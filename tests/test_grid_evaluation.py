"""Sum-factorized evaluation of chaos densities on product grids against the
P x M evaluation matrix, which scattered points take, bump residuals and
battery integrals from axis sums against the per-node sum, the index
embedding shared by zero-padding and marginals, and the memory of a ladder
to k = 8."""
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfpk.basis
import gfpk.drift
import gfpk.linear
from gfpk import (
    BumpTest,
    ChaosDensity,
    FixedPointOptions,
    HermiteTest,
    as_measure,
    custom_drift,
    enumerate_basis,
    fixed_point_solve,
    gauss_hermite,
    marginal,
    product_grid,
    residual,
    residual_suite,
    solve_linear,
    tensor_grid,
    uniform_gaussian_grid,
)
from gfpk.cli import default_bumps, density_checks
from gfpk.drift import drift_from_block
from gfpk.ladder import LadderConfig, _battery_integrals, _zero_pad, default_battery, run_ladder
from gfpk.linear import BUMP_RULE
from helpers import bump_defect_per_node

REL_TOL = 1e-13
MAX_NODES = {1: 40, 2: 14, 3: 8, 4: 6}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def random_density(k, degree, seed):
    rng = np.random.default_rng(seed)
    basis = enumerate_basis(k, degree)
    coeffs = rng.standard_normal(basis.size) / (1.0 + basis.degrees())
    coeffs[0] = 1.0
    return ChaosDensity(basis, coeffs)


def one_dimensional_rule(kind, n, seed):
    if kind == "gauss-hermite":
        rule = gauss_hermite(n)
        return rule.nodes[:, 0], rule.weights
    if kind == "uniform":
        rule = uniform_gaussian_grid(4.0, max(n, 2), 1)
        return rule.nodes[:, 0], rule.weights
    nodes = np.sort(np.random.default_rng(seed).uniform(-3.0, 3.0, n))
    return nodes, np.full(n, 1.0 / n)


def assert_matches_reference(rho, grid):
    """Values and gradients on the grid against the evaluation matrix, with
    the error measured against sum_alpha |c_alpha| |h_alpha| (no cancellation
    can hide a wrong term)."""
    h = rho.basis.eval_matrix(grid.nodes)
    scale = max(float(np.max(np.abs(rho.coefficients) @ np.abs(h))), 1.0)
    assert np.max(np.abs(rho.evaluate(grid) - rho.coefficients @ h)) <= REL_TOL * scale
    reference = sum(
        c * HermiteTest(alpha).gradient(grid.nodes)
        for c, alpha in zip(rho.coefficients, rho.basis.indices)
    )
    magnitude = sum(
        abs(c) * np.abs(HermiteTest(alpha).gradient(grid.nodes))
        for c, alpha in zip(rho.coefficients, rho.basis.indices)
    )
    gradient_scale = max(float(np.max(magnitude)), 1.0)
    on_grid = rho.gradient(grid)
    assert on_grid.shape == (grid.n_nodes, rho.k)
    assert np.max(np.abs(on_grid - reference)) <= REL_TOL * gradient_scale
    assert np.max(np.abs(on_grid - rho.gradient(grid.nodes))) <= REL_TOL * gradient_scale


@st.composite
def mixed_product_grids(draw):
    k = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["gauss-hermite", "uniform", "random"]), min_size=k, max_size=k))
    sizes = draw(st.lists(st.integers(1, MAX_NODES[k]), min_size=k, max_size=k))
    seed = draw(st.integers(0, 2**32 - 1))
    rules = [one_dimensional_rule(kind, n, seed + i) for i, (kind, n) in enumerate(zip(kinds, sizes))]
    return product_grid(rules, min(x.size for x, _ in rules)), seed


@settings(max_examples=60, deadline=None)
@given(case=mixed_product_grids(), degree=st.integers(0, 6))
def test_sum_factorization_on_mixed_product_grids(case, degree):
    grid, seed = case
    assert_matches_reference(random_density(grid.k, degree if grid.k < 3 else degree % 5, seed), grid)


@pytest.mark.parametrize(
    "grid",
    [tensor_grid(9, 1), tensor_grid(7, 2), tensor_grid(5, 3), tensor_grid(4, 4),
     uniform_gaussian_grid(6.0, 41, 1), uniform_gaussian_grid(6.0, 21, 2), uniform_gaussian_grid(6.0, 9, 3)],
    ids=["gh-k1", "gh-k2", "gh-k3", "gh-k4", "uniform-k1", "uniform-k2", "uniform-k3"],
)
@settings(max_examples=10, deadline=None)
@given(degree=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_sum_factorization_on_one_rule_grids(grid, degree, seed):
    assert_matches_reference(random_density(grid.k, degree if grid.k < 4 else degree % 4, seed), grid)


@settings(max_examples=60, deadline=None)
@given(case=mixed_product_grids(), degree=st.integers(0, 6))
def test_project_is_the_adjoint_of_grid_values(case, degree):
    """<grid_values(c), w f> = <c, project(f)>, and project(f) is the weighted
    product with the evaluation matrix, for node values f with a lead axis."""
    grid, seed = case
    rho = random_density(grid.k, degree if grid.k < 3 else degree % 5, seed)
    basis, c = rho.basis, rho.coefficients
    f = np.random.default_rng(seed).standard_normal((2, grid.n_nodes))
    projected = basis.project(f, grid)
    assert projected.shape == (2, basis.size)
    h = basis.eval_matrix(grid.nodes)
    weighted = np.abs(f) * grid.weights
    assert np.all(np.abs(projected - (f * grid.weights) @ h.T) <= REL_TOL * (weighted @ np.abs(h).T))
    pairing = (f * grid.weights) @ basis.grid_values(c, grid)
    assert np.all(np.abs(projected @ c - pairing) <= REL_TOL * (weighted @ (np.abs(c) @ np.abs(h))))
    assert np.all(np.abs(basis.project(f[0], grid) - projected[0]) <= REL_TOL * (weighted[0] @ np.abs(h).T))


def shuffled_nodes(grid, seed=0):
    return grid.nodes[np.random.default_rng(seed).permutation(grid.n_nodes)]


def gaussian_cloud(k, m=50, seed=0):
    return np.random.default_rng(seed).standard_normal((m, k))


@pytest.mark.parametrize(
    "points", [shuffled_nodes(tensor_grid(6, 2)), shuffled_nodes(tensor_grid(4, 3), 1), gaussian_cloud(2), gaussian_cloud(3)],
    ids=["shuffled-k2", "shuffled-k3", "cloud-k2", "cloud-k3"],
)
def test_other_grids_take_the_evaluation_matrix(points):
    """Scattered points, not a QuadratureGrid, are read through the P x M
    evaluation matrix, which agrees with the term-by-term sum."""
    rho = random_density(points.shape[1], 4, 11)
    values = rho.evaluate(points)
    assert np.array_equal(values, rho.coefficients @ rho.basis.eval_matrix(points))
    terms = [c * HermiteTest(alpha).value(points) for c, alpha in zip(rho.coefficients, rho.basis.indices)]
    scale = max(float(np.max(sum(np.abs(t) for t in terms))), 1.0)
    assert np.max(np.abs(values - sum(terms))) <= REL_TOL * scale
    gradient = sum(c * HermiteTest(alpha).gradient(points) for c, alpha in zip(rho.coefficients, rho.basis.indices))
    assert np.allclose(rho.gradient(points), gradient, rtol=0.0, atol=1e-12)


def test_product_grid_keeps_its_rules():
    rules = [one_dimensional_rule("gauss-hermite", 5, 0), one_dimensional_rule("uniform", 7, 0)]
    grid = product_grid(rules, 5)
    assert grid.n_nodes == 35 and np.isclose(grid.weights.sum(), 1.0)
    for (x, w), (x_i, w_i) in zip(rules, grid.rules):
        assert np.array_equal(x, x_i) and np.array_equal(w, w_i)
    assert np.array_equal(grid.nodes[:7, 1], rules[1][0]) and np.all(grid.nodes[:7, 0] == rules[0][0][0])
    # one rule on every axis is needed for the separable assembly
    assert grid.axis_rule is None
    same = product_grid([rules[0]] * 2, 5)
    assert np.array_equal(same.nodes, tensor_grid(5, 2).nodes)
    assert np.array_equal(same.weights, tensor_grid(5, 2).weights)
    assert same.axis_rule is not None


def test_sum_factorization_on_the_k3_bump_grid():
    # a uniform 41^3 = 68,921-node grid
    grid = uniform_gaussian_grid(6.0, 41, 3)
    assert_matches_reference(random_density(3, 8, 5), grid)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 3),
    extra=st.integers(0, 3),
    degree=st.integers(0, 5),
    lower=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_marginal_of_zero_padding_is_the_identity(k, extra, degree, lower, seed):
    rho = random_density(k, degree, seed)
    padded = _zero_pad(rho, enumerate_basis(k + extra, degree))
    assert np.array_equal(marginal(padded, list(range(k))).coefficients, rho.coefficients)
    # into a lower degree, zero-padding keeps exactly the coefficients that fit
    small = enumerate_basis(k + extra, max(degree - lower, 0))
    truncated = marginal(_zero_pad(rho, small), list(range(k)))
    kept = [j for j, alpha in enumerate(rho.basis.indices) if sum(alpha) <= small.degree]
    assert np.array_equal(truncated.coefficients, rho.coefficients[kept])


def test_embed_places_coordinates():
    source, target = enumerate_basis(2, 2), enumerate_basis(3, 2)
    positions = target.embed(source, [2, 0])
    for alpha, j in zip(source.indices, positions):
        assert target.indices[j] == (alpha[1], 0, alpha[0])
    assert np.all(enumerate_basis(3, 1).embed(source, [0, 1])[[0, 1, 2]] >= 0)
    assert np.all(enumerate_basis(3, 1).embed(source, [0, 1])[3:] == -1)


@pytest.fixture
def eval_matrix_calls(monkeypatch):
    calls = []
    original = gfpk.basis.ChaosBasis.eval_matrix

    def counted(self, points):
        calls.append(np.shape(points))
        return original(self, points)

    monkeypatch.setattr(gfpk.basis.ChaosBasis, "eval_matrix", counted)
    return calls


def test_separable_solves_build_no_evaluation_matrix(eval_matrix_calls):
    grid = tensor_grid(10, 2)
    v = drift_from_block({"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.8}}, 2)
    _, trace = fixed_point_solve(v, enumerate_basis(2, 8), grid)
    assert trace.converged and trace.iterations > 1
    block = {"kind": "componentwise-tanh", "scale": 0.5, "n_components": 3, "mean_shift": True}
    cfg = LadderConfig(weights=(1.0, 0.5, 0.25), component_bound=0.5, levels=(1, 2, 3),
                       degrees=(6, 5, 4), quad_orders=(8, 6, 5))
    assert run_ladder(lambda k: drift_from_block(block, k), cfg).completed
    assert eval_matrix_calls == []


def test_dense_fixed_point_builds_the_evaluation_matrix_once(eval_matrix_calls):
    # a coupled drift takes the dense assembly on every iteration
    v = custom_drift(lambda p, x: 0.4 * np.tanh(x + x[:, ::-1]), 2, "componentwise", 0.4,
                     reads_measure=True)
    grid = tensor_grid(8, 2)
    _, trace = fixed_point_solve(v, enumerate_basis(2, 5), grid, FixedPointOptions(damping=0.5))
    assert trace.converged and trace.iterations > 1
    assert eval_matrix_calls == [grid.nodes.shape]


def test_separable_checks_build_no_evaluation_matrix(eval_matrix_calls):
    v = drift_from_block({"kind": "clipped-potential", "lam": 0.5}, 3)
    grid = tensor_grid(6, 3)
    rho = solve_linear(v, None, enumerate_basis(3, 5), grid)
    report, _ = density_checks(rho, v, None, grid)
    assert report["residuals"]["hermite_pass"] and eval_matrix_calls == []


def test_hermite_residuals_hold_no_p_by_m_array():
    # k = 6, N = 5, Q = 6: P = 462 and M = 46,656, so one P x M table is 172 MB
    v = drift_from_block({"kind": "clipped-potential", "lam": 0.5}, 6)
    grid = tensor_grid(6, 6)
    rho = solve_linear(v, None, enumerate_basis(6, 5), grid)
    tracemalloc.start()
    try:
        hermite_max, system_norm, _ = residual_suite(rho, v, None, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hermite_max <= 1e-10 * (1.0 + system_norm)
    assert peak < 50e6


def bump_grid_of(grid, active):
    """residual_suite's grid for bumps reading x_A, A = active: grid's rules
    with those of A replaced by the uniform bump rule."""
    rule = uniform_gaussian_grid(*BUMP_RULE).rules[0]
    return product_grid([rule if i in active else r for i, r in enumerate(grid.rules)], grid.q)


def test_suite_bumps_equal_single_residuals():
    grid = tensor_grid(10, 2)
    bumps = [BumpTest(active=(i,), center=(c,), radius=2.0) for i in range(2) for c in (-1.0, 0.5)]
    bumps.append(BumpTest(active=(1, 0), center=(0.5, -0.2), radius=1.5))
    v = drift_from_block({"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.5}}, 2)
    rho, _ = fixed_point_solve(v, enumerate_basis(2, 6), grid)
    p = as_measure(rho, grid)
    _, _, values = residual_suite(rho, v, p, grid, bumps)
    assert values == [residual(rho, v, p, phi, bump_grid_of(grid, phi.active)) for phi in bumps]


@st.composite
def bump_grids(draw):
    """Product grids of one or mixed 1-D rules: as drawn, with each rule's
    nodes out of order, or with nodes that repeat a few values under random
    weights; with a seed."""
    grid, seed = draw(mixed_product_grids())
    form = draw(st.sampled_from(["product", "shuffled", "repeated"]))
    rng = np.random.default_rng(seed)
    rules = []
    for x, w in grid.rules:
        if form == "shuffled":
            order = rng.permutation(x.size)
            x, w = x[order], w[order]
        elif form == "repeated":
            levels = rng.uniform(-3.0, 3.0, draw(st.integers(1, x.size)))
            x, w = levels[rng.integers(0, levels.size, x.size)], rng.uniform(0.1, 1.0, x.size)
            w = w / w.sum()
        rules.append((x, w))
    return product_grid(rules, grid.q), seed


def bump_tests(k):
    active = st.permutations(range(k)).flatmap(
        lambda axes: st.integers(1, min(2, k)).map(lambda n: tuple(axes[:n]))
    )
    return st.builds(
        lambda active, center, radius: BumpTest(active, tuple(center[: len(active)]), radius),
        active,
        st.lists(st.floats(-2.5, 2.5), min_size=2, max_size=2),
        st.floats(0.3, 3.0),
    )


def coupled_drift(k):
    return custom_drift(lambda p, x: 0.5 * np.tanh(x + 1.0 - x[:, ::-1]), k, "componentwise", 0.5,
                        reads_measure=False)


@settings(max_examples=80, deadline=None)
@given(case=bump_grids(), data=st.data())
def test_regrouped_bump_residuals_equal_the_per_node_sum(case, data):
    grid, seed = case
    bumps = data.draw(st.lists(bump_tests(grid.k), min_size=1, max_size=4))
    rho, v = random_density(grid.k, 3, seed), coupled_drift(grid.k)
    vvals, rvals = v.eval_v(None, grid.nodes), rho.evaluate(grid)
    for phi in bumps:
        reference, magnitude = bump_defect_per_node(phi, grid, vvals, rvals)
        assert abs(residual(rho, v, None, phi, grid) - reference) <= 1e-13 * magnitude


@pytest.fixture
def profile_sizes(monkeypatch):
    """The number of points of every BumpTest._profile call."""
    seen = []
    profile = BumpTest._profile
    monkeypatch.setattr(BumpTest, "_profile", lambda self, u: seen.append(u.size) or profile(self, u))
    return seen


def test_bumps_are_evaluated_on_their_active_values(profile_sizes):
    # a bump on x_0 is integrated on 401 x 4 x 4 nodes but read at the 401 values of x_0
    rho = random_density(3, 3, 0)
    _, _, values = residual_suite(rho, coupled_drift(3), None, tensor_grid(4, 3), default_bumps(3))
    assert len(values) == len(default_bumps(3)) and profile_sizes and max(profile_sizes) <= BUMP_RULE[1]


def test_battery_tests_are_evaluated_on_their_coordinate_values(profile_sizes):
    grid = tensor_grid(5, 3)
    rho = random_density(3, 4, 3)
    battery = default_battery(3)
    values = _battery_integrals(rho, grid, battery)
    assert profile_sizes and max(profile_sizes) <= 5
    weighted = grid.weights * rho.evaluate(grid)
    for phi, value in zip(battery, values):
        terms = weighted * phi.value(grid.nodes)
        assert abs(value - terms.sum()) <= 1e-14 * np.abs(terms).sum()


def test_bump_grids_are_read_in_blocks(monkeypatch):
    # k = 6, Q = 6: a bump grid has 401 * 6^5 = 3,118,176 nodes
    sizes = []
    eval_v = gfpk.drift.DriftField.eval_v
    monkeypatch.setattr(gfpk.drift.DriftField, "eval_v", lambda self, p, x: sizes.append(len(x)) or eval_v(self, p, x))
    rho = ChaosDensity.constant(enumerate_basis(6, 1))
    # zero, but not a SeparableField: the bumps take the axis_sums path, and
    # the dense assembly reads the solve grid besides hermite_defects
    v = custom_drift(lambda p, x: np.zeros_like(x), 6, "H", 0.0, reads_measure=False)
    _, _, values = residual_suite(rho, v, None, tensor_grid(6, 6), default_bumps(6))
    assert max(sizes) <= 1_000_000 and sum(sizes) == 2 * 6**6 + 6 * 401 * 6**5
    # rho = 1 solves the zero-drift equation exactly
    assert max(abs(b) for b in values) <= 1e-3


H = [0.3, -0.2, 0.1, 0.25]
# a config block in dimension k for every separable drift kind and kernel
SEPARABLE_BLOCKS = {
    "constant": lambda k: {"kind": "constant", "h": H[:k]},
    "clipped-potential": lambda k: {"kind": "clipped-potential", "lam": 0.5},
    "vlasov-constant": lambda k: {"kind": "vlasov", "kernel": {"kind": "constant", "h": H[:k]}},
    "vlasov-tanh": lambda k: {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.5}},
    "vlasov-gaussian-lobe": lambda k: {"kind": "vlasov", "kernel": {"kind": "gaussian-lobe", "scale": 0.8}},
    "vlasov-clipped-linear": lambda k: {"kind": "vlasov", "kernel": {"kind": "clipped-linear", "scale": 0.5, "cap": 0.4}},
    "componentwise-tanh": lambda k: {"kind": "componentwise-tanh", "scale": 0.5, "n_components": 4, "mean_shift": True},
    "componentwise-decoupled-tanh": lambda k: {"kind": "componentwise-decoupled-tanh", "scale": 0.5, "n_components": 4},
}
# (N, Q) per dimension k: every Gauss-Hermite rule is exact to degree N
ONE_AXIS_SIZES = {1: (8, 10), 2: (6, 8), 3: (5, 6), 4: (4, 5)}


def test_separable_blocks_cover_every_separable_kind():
    blocks = [make(2) for make in SEPARABLE_BLOCKS.values()]
    assert {b["kind"] for b in blocks} | {"rotational"} == set(gfpk.drift.DRIFTS)
    assert {b["kernel"]["kind"] for b in blocks if "kernel" in b} == set(gfpk.drift.KERNELS)
    assert all(isinstance(drift_from_block(b, 2), gfpk.drift.SeparableField) for b in blocks)


@pytest.mark.parametrize("k", sorted(ONE_AXIS_SIZES))
@pytest.mark.parametrize("name", sorted(SEPARABLE_BLOCKS))
def test_one_axis_bumps_match_the_axis_sums(name, k):
    """The 1-D bump sums of a SeparableField against the axis_sums path,
    which the same field takes once wrapped as a non-separable drift."""
    degree, q = ONE_AXIS_SIZES[k]
    grid = tensor_grid(q, k)
    rho = random_density(k, degree, 7 + k)
    v = drift_from_block(SEPARABLE_BLOCKS[name](k), k)
    wrapped = custom_drift(lambda p, x: v.eval_v(p, x), k, v.bound_kind, v.bound, reads_measure=v.reads_measure)
    p = as_measure(rho, grid) if v.reads_measure else None
    bumps = default_bumps(k) + [BumpTest(active=(k - 1,), center=(0.7,), radius=1.3)]
    one_axis = residual_suite(rho, v, p, grid, bumps)[2]
    reference = residual_suite(rho, wrapped, p, grid, bumps)[2]
    assert np.max(np.abs(np.subtract(one_axis, reference))) <= 1e-14


@pytest.fixture
def axis_sums_calls(monkeypatch):
    calls = []
    original = gfpk.basis.QuadratureGrid.axis_sums
    monkeypatch.setattr(gfpk.basis.QuadratureGrid, "axis_sums",
                        lambda self, values, axes: calls.append(tuple(axes)) or original(self, values, axes))
    return calls


ONE_AXIS = BumpTest(active=(0,), center=(0.5,), radius=2.0)
TWO_AXES = BumpTest(active=(1, 0), center=(0.5, -0.2), radius=1.5)
BUMP = uniform_gaussian_grid(*BUMP_RULE).rules[0]


@pytest.mark.parametrize(
    "drift, phi, other, degree, expected",
    [
        ({"kind": "rotational", "scale": 0.3}, ONE_AXIS, gauss_hermite(8).rules[0], 6, True),
        ({"kind": "clipped-potential", "lam": 0.5}, TWO_AXES, gauss_hermite(8).rules[0], 6, True),
        # a Gauss-Hermite rule of 3 nodes is exact to degree 5 < 6
        ({"kind": "clipped-potential", "lam": 0.5}, ONE_AXIS, gauss_hermite(3).rules[0], 6, True),
        ({"kind": "clipped-potential", "lam": 0.5}, ONE_AXIS, uniform_gaussian_grid(6.0, 41).rules[0], 4, True),
        ({"kind": "clipped-potential", "lam": 0.5}, ONE_AXIS, gauss_hermite(4).rules[0], 6, False),
    ],
    ids=["rotational", "two-axis", "inexact-gauss-hermite", "uniform", "one-axis"],
)
def test_which_bumps_take_the_axis_sums(axis_sums_calls, drift, phi, other, degree, expected):
    """Only a one-axis bump of a SeparableField whose other rule is exact to
    the degree N of rho skips the sums over the 2-D bump grid."""
    grid = product_grid([BUMP, other], 8)
    residual(random_density(2, degree, 1), drift_from_block(drift, 2), None, phi, grid)
    assert bool(axis_sums_calls) == expected


def test_separable_k3_checks_read_v_and_rho_once_on_the_solve_grid(monkeypatch):
    sizes, evaluated = [], []
    eval_v, evaluate = gfpk.drift.DriftField.eval_v, ChaosDensity.evaluate
    monkeypatch.setattr(gfpk.drift.DriftField, "eval_v", lambda self, p, x: sizes.append(len(x)) or eval_v(self, p, x))
    monkeypatch.setattr(ChaosDensity, "evaluate", lambda self, x: evaluated.append(getattr(x, "n_nodes", None)) or evaluate(self, x))
    v = drift_from_block({"kind": "clipped-potential", "lam": 0.5}, 3)
    grid = tensor_grid(8, 3)
    rho = solve_linear(v, None, enumerate_basis(3, 6), grid)
    report, passed = density_checks(rho, v, None, grid)
    # no bump grid of 401 * 8^2 nodes is read; v and rho are read on the 8^3 nodes once
    assert sizes == [8**3] and evaluated.count(8**3) == 1
    assert passed and report["residuals"]["bump_pass"]


@pytest.mark.parametrize("max_nodes", [1, 5, 37, 1_000_000])
def test_blocks_partition_the_grid(monkeypatch, max_nodes):
    rules = [one_dimensional_rule("gauss-hermite", 4, 0), one_dimensional_rule("uniform", 6, 0),
             one_dimensional_rule("random", 5, 1)]
    grid = product_grid(rules, 4)
    nodes, weights = grid.nodes.reshape(grid.shape + (3,)), grid.weights.reshape(grid.shape)
    covered = np.zeros(grid.shape)
    for block, place in grid.blocks(max_nodes):
        assert block.n_nodes <= max_nodes
        assert np.array_equal(block.nodes, nodes[tuple(place)].reshape(-1, 3))
        assert np.array_equal(block.weights, weights[tuple(place)].ravel())
        covered[tuple(place)] += 1
    assert np.all(covered == 1)
    # a bump residual summed block by block is the per-node sum
    monkeypatch.setattr(gfpk.linear, "BLOCK_NODES", max_nodes)
    phi = BumpTest(active=(2, 0), center=(0.3, -0.1), radius=2.0)
    rho, v = random_density(3, 3, 2), coupled_drift(3)
    reference, magnitude = bump_defect_per_node(phi, grid, v.eval_v(None, grid.nodes), rho.evaluate(grid))
    assert abs(residual(rho, v, None, phi, grid) - reference) <= 1e-13 * magnitude


LADDER_TO_K8 = """
import json, resource
from gfpk import LadderConfig, run_ladder
from gfpk.drift import drift_from_block
block = {"kind": "componentwise-tanh", "scale": 0.5, "n_components": 8, "mean_shift": True}
cfg = LadderConfig(weights=tuple(0.5**n for n in range(8)), component_bound=0.5,
                   levels=tuple(range(1, 9)), degrees=(4,) * 8, quad_orders=(5,) * 8)
report = run_ladder(lambda k: drift_from_block(block, k), cfg)
# Linux carries ru_maxrss across exec from the forking (test) process, so
# the peak of this process image is read from VmHWM where it exists
try:
    with open("/proc/self/status") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "completed": report.completed,
    "levels": [lv.k for lv in report.levels],
    "passed": [lv.passed for lv in report.levels],
    "maxrss_mb": peak_kb / 1024,
}))
"""


def test_ladder_to_k8_stays_within_300_mb():
    # k = 8, Q = 5: 390,625 nodes and 495 basis elements; a P x M
    # evaluation matrix alone would take 1.5 GB
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", LADDER_TO_K8], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["completed"] and result["levels"] == list(range(1, 9))
    assert all(result["passed"])
    assert result["maxrss_mb"] < 300.0
