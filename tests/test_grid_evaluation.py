"""Sum-factorized evaluation of chaos densities on product grids against the
P x M evaluation matrix, the fallback on other grids, bump residuals on
their active-coordinate marginals against the per-node sum, the index
embedding shared by zero-padding and marginals, and the memory of a ladder
to k = 8."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfpk.basis
from gfpk import (
    BumpTest,
    ChaosDensity,
    FixedPointOptions,
    HermiteTest,
    QuadratureGrid,
    as_measure,
    custom_drift,
    enumerate_basis,
    fixed_point_solve,
    gauss_hermite,
    marginal,
    product_grid,
    residual,
    residual_suite,
    tensor_grid,
    uniform_gaussian_grid,
)
from gfpk.cli import bump_grid, default_bumps
from gfpk.drift import drift_from_block
from gfpk.ladder import LadderConfig, _zero_pad, run_ladder
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
    assert grid.factors is not None
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


def shuffled(grid, seed=0):
    order = np.random.default_rng(seed).permutation(grid.n_nodes)
    return QuadratureGrid(q=grid.q, k=grid.k, nodes=grid.nodes[order], weights=grid.weights[order])


def gaussian_cloud(k, m=50, seed=0):
    nodes = np.random.default_rng(seed).standard_normal((m, k))
    return QuadratureGrid(q=m, k=k, nodes=nodes, weights=np.full(m, 1.0 / m))


@pytest.mark.parametrize(
    "grid", [shuffled(tensor_grid(6, 2)), shuffled(tensor_grid(4, 3), 1), gaussian_cloud(2), gaussian_cloud(3)],
    ids=["shuffled-k2", "shuffled-k3", "cloud-k2", "cloud-k3"],
)
def test_other_grids_take_the_evaluation_matrix(grid):
    rho = random_density(grid.k, 4, 11)
    assert grid.factors is None
    assert np.array_equal(rho.evaluate(grid), rho.coefficients @ rho.basis.eval_matrix(grid.nodes))
    assert np.array_equal(rho.gradient(grid), rho.gradient(grid.nodes))


def test_product_grid_keeps_its_rules():
    rules = [one_dimensional_rule("gauss-hermite", 5, 0), one_dimensional_rule("uniform", 7, 0)]
    grid = product_grid(rules, 5)
    assert grid.n_nodes == 35 and np.isclose(grid.weights.sum(), 1.0)
    for (x, _), factor in zip(rules, grid.factors):
        assert np.array_equal(x, factor)
    assert np.array_equal(grid.nodes[:7, 1], rules[1][0]) and np.all(grid.nodes[:7, 0] == rules[0][0][0])
    # one rule on every axis is needed for the separable assembly
    assert grid.axis_rule is None
    same = product_grid([rules[0]] * 2, 5)
    assert np.array_equal(same.nodes, tensor_grid(5, 2).nodes)
    assert np.array_equal(same.weights, tensor_grid(5, 2).weights)
    assert same.axis_rule is not None


def test_sum_factorization_on_the_k3_bump_grid():
    # the k = 3 bump grid of the CLI: 41^3 = 68,921 nodes
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


def test_suite_bumps_equal_single_residuals():
    grid = tensor_grid(10, 2)
    bumps = [BumpTest(active=(i,), center=(c,), radius=2.0) for i in range(2) for c in (-1.0, 0.5)]
    v = drift_from_block({"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.5}}, 2)
    rho, _ = fixed_point_solve(v, enumerate_basis(2, 6), grid)
    p = as_measure(rho, grid)
    bgrid = uniform_gaussian_grid(6.0, 61, 2)
    _, _, values = residual_suite(rho, v, p, grid, bumps, bgrid)
    assert values == [residual(rho, v, p, phi, bgrid) for phi in bumps]


@st.composite
def bump_grids(draw):
    """Product grids of one or mixed 1-D rules, shuffled ones, and point
    clouds whose coordinates repeat, with a seed."""
    grid, seed = draw(mixed_product_grids())
    form = draw(st.sampled_from(["product", "shuffled", "cloud"]))
    if form == "shuffled":
        return shuffled(grid, seed), seed
    if form == "cloud":
        rng = np.random.default_rng(seed)
        m = draw(st.integers(1, 200))
        distinct = draw(st.lists(st.integers(1, m), min_size=grid.k, max_size=grid.k))
        nodes = np.stack([rng.uniform(-3.0, 3.0, n)[rng.integers(0, n, m)] for n in distinct], axis=1)
        weights = rng.uniform(0.1, 1.0, m)
        return QuadratureGrid(q=m, k=grid.k, nodes=nodes, weights=weights / weights.sum()), seed
    return grid, seed


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
    _, _, values = residual_suite(rho, v, None, tensor_grid(4, grid.k), bumps, grid)
    vvals, rvals = v.eval_v(None, grid.nodes), rho.evaluate(grid)
    for phi, value in zip(bumps, values):
        reference, magnitude = bump_defect_per_node(phi, grid, vvals, rvals)
        assert abs(value - reference) <= 1e-13 * magnitude
        assert value == residual(rho, v, None, phi, grid)


def test_bumps_are_evaluated_on_their_active_values(monkeypatch):
    # the CLI's k = 3 bump grid has 41^3 = 68,921 nodes but 41 values of x_0
    seen = []
    profile = BumpTest._profile
    monkeypatch.setattr(BumpTest, "_profile", lambda self, u: seen.append(u.size) or profile(self, u))
    rho = random_density(3, 3, 0)
    _, _, values = residual_suite(rho, coupled_drift(3), None, tensor_grid(4, 3), default_bumps(3), bump_grid(3))
    assert len(values) == len(default_bumps(3)) and seen and max(seen) <= 41


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
