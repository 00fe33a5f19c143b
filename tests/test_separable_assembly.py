"""Assembly of separable drifts from 1-D Gram matrices against the dense
quadrature sum, the choice between the two paths by the field's type, and
the LU solve with its condition estimate."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfpk import (
    BoundViolationError,
    ChaosDensity,
    FixedPointOptions,
    QuadratureGrid,
    SeparableField,
    SolverError,
    as_measure,
    assemble,
    custom_drift,
    enumerate_basis,
    fixed_point_solve,
    rotational_drift,
    solve_linear,
    tensor_grid,
    uniform_gaussian_grid,
)
from gfpk.drift import DRIFTS, H_BOUND, KERNELS, drift_from_block
from gfpk.ladder import LadderConfig, run_ladder
from gfpk.linear import GalerkinSystem, dense_interaction, separable_interaction, solve_system
from gfpk.schema import REQUIRED

REL_TOL = 1e-13
# largest Q per k: Gauss-Hermite rules up to Q = 25 are orthonormal to
# 1e-13 up to degree Q - 1, and the grids stay small
MAX_Q = {1: 24, 2: 12, 3: 7, 4: 5}


def minimal_block(registry, kind, k, s, switched_on=None):
    """The {"kind": kind} block with every required number, integer and
    vector set from the scale s (integers at their largest value) and the
    bool parameter switched_on set."""
    block = {"kind": kind}
    for param in registry[kind].params:
        if param.name == switched_on:
            block[param.name] = True
        elif param.default is REQUIRED and not isinstance(param.type, dict):
            values = {"number": s, "integer": int(param.high), "vector": [s * (i + 1) / k for i in range(k)]}
            block[param.name] = values[param.type]
    return block


def case_block(kind, kernel, switched_on, k, s):
    block = minimal_block(DRIFTS, kind, k, s, switched_on)
    if kernel is not None:
        block["kernel"] = minimal_block(KERNELS, kernel, k, s)
    return block


def registry_cases():
    """(name, block of (k, s)) for every drift kind, with each kernel of a
    kind that reads one and with each of its bool parameters switched on."""
    cases = []
    for kind, entry in DRIFTS.items():
        kernels = KERNELS if any(p.type is KERNELS for p in entry.params) else [None]
        switches = [None] + [p.name for p in entry.params if p.type == "bool"]
        for kernel in kernels:
            for switch in switches:
                name = "-".join(filter(None, [kind, kernel, switch and switch.replace("_", "-")]))
                cases.append((name, functools.partial(case_block, kind, kernel, switch)))
    return cases


# every registry case that builds a SeparableField (checked at k = 2, which
# every kind accepts)
SEPARABLE_KINDS = {
    name: block for name, block in registry_cases()
    if isinstance(drift_from_block(block(2, 0.5), 2), SeparableField)
}


def random_iterate(basis, seed, amplitude=0.05):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(basis.size)
    coeffs[0] = 1.0
    coeffs[1:] = amplitude * rng.standard_normal(basis.size - 1)
    return ChaosDensity(basis, coeffs)


def assert_close(sparse, dense):
    scale = max(float(np.max(np.abs(dense))), 1e-300)
    assert float(np.max(np.abs(sparse - dense))) <= REL_TOL * scale


@st.composite
def sizes(draw):
    k = draw(st.integers(1, 4))
    q = draw(st.integers(2, MAX_Q[k]))
    return k, draw(st.integers(0, q - 1)), q


@pytest.mark.parametrize("kind", sorted(SEPARABLE_KINDS))
@settings(max_examples=12, deadline=None)
@given(
    size=sizes(),
    scale=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_separable_matches_dense(kind, size, scale, seed):
    k, degree, q = size
    grid = tensor_grid(q, k)
    basis = enumerate_basis(k, degree)
    v = drift_from_block(SEPARABLE_KINDS[kind](k, scale), k)
    p = as_measure(random_iterate(basis, seed), grid)
    sparse = separable_interaction(basis, grid, v, p)
    assert sparse is not None
    assert_close(sparse, dense_interaction(basis, grid, v.eval_v(p, grid.nodes)))
    assert np.array_equal(assemble(v, p, basis, grid).interaction, sparse)


def test_every_kind_but_rotational_is_separable():
    names = {name for name, _ in registry_cases()}
    assert names - set(SEPARABLE_KINDS) == {"rotational"}
    assert {"componentwise-tanh-mean-shift", "vlasov-clipped-linear", "constant"} <= set(SEPARABLE_KINDS)


def one_sided(c):
    """v_0 = c where x_0 > 0 and v_1 = c where x_1 < 0, both 0 under the
    one-point construction probe: |v|_H = c on every diagonal point x_0 = x_1
    and c sqrt(2) where x_0 > 0 > x_1."""

    def axis(measure, i, z):
        if measure is None or measure.points.shape[0] == 1:
            return np.zeros(z.shape)
        return np.where(z > 0 if i == 0 else z < 0, c, 0.0)

    return SeparableField("one-sided", 2, axis, H_BOUND, c, reads_measure=True)


def test_bound_is_checked_on_the_product_grid():
    grid = tensor_grid(6, 2)
    basis = enumerate_basis(2, 4)
    v = one_sided(0.3)
    p = as_measure(ChaosDensity.constant(basis), grid)
    diagonal = np.repeat(grid.axis_rule[0][:, None], 2, axis=1)
    assert np.max(np.linalg.norm(v.eval_v(p, diagonal), axis=1)) <= 0.3
    with pytest.raises(BoundViolationError, match="0.424264"):
        assemble(v, p, basis, grid)


def test_assembly_reads_a_separable_field_on_the_one_dimensional_nodes():
    sizes = []

    def axis(measure, i, z):
        sizes.append(z.size)
        return 0.3 * np.tanh(z)

    v = SeparableField("counting", 3, axis, H_BOUND, 0.3 * np.sqrt(3), reads_measure=False)
    sizes.clear()
    assemble(v, None, enumerate_basis(3, 4), tensor_grid(6, 3))
    assert sizes == [6, 6, 6]


def shuffled(grid, seed=0):
    order = np.random.default_rng(seed).permutation(grid.n_nodes)
    return QuadratureGrid(q=grid.q, k=grid.k, nodes=grid.nodes[order], weights=grid.weights[order])


def coupled(p, x):
    return 0.4 * np.tanh(x + x[:, ::-1])


@pytest.mark.parametrize(
    "v, grid",
    [
        (rotational_drift(0.3, 2, offset=[0.2, 0.0]), tensor_grid(8, 2)),
        (custom_drift(coupled, 2, "componentwise", 0.4, reads_measure=False), tensor_grid(8, 2)),
        (drift_from_block({"kind": "clipped-potential", "lam": 0.5}, 2), uniform_gaussian_grid(6.0, 21, 2)),
        (drift_from_block({"kind": "clipped-potential", "lam": 0.5}, 2), shuffled(tensor_grid(8, 2))),
    ],
    ids=["rotational", "coupled-custom", "uniform-grid", "non-product-order"],
)
def test_dense_path_when_regrouping_fails(v, grid):
    basis = enumerate_basis(2, 5)
    assert separable_interaction(basis, grid, v, None) is None
    dense = dense_interaction(basis, grid, v.eval_v(None, grid.nodes))
    assert np.array_equal(assemble(v, None, basis, grid).interaction, dense)


def test_axis_rule_reads_the_one_dimensional_rule():
    rule = tensor_grid(7, 1)
    for k in (1, 3):
        x1, w1 = tensor_grid(7, k).axis_rule
        assert np.array_equal(x1, rule.nodes[:, 0])
        assert np.allclose(w1, rule.weights, rtol=1e-14, atol=0.0)
    x1, _ = uniform_gaussian_grid(3.0, 5, 2).axis_rule
    assert np.array_equal(x1, np.linspace(-3.0, 3.0, 5))
    assert shuffled(tensor_grid(7, 3)).axis_rule is None
    nodes = tensor_grid(7, 2).nodes
    ramp = np.linspace(1.0, 2.0, nodes.shape[0])
    assert QuadratureGrid(q=7, k=2, nodes=nodes, weights=ramp / ramp.sum()).axis_rule is None
    assert QuadratureGrid(q=6, k=2, nodes=nodes, weights=ramp / ramp.sum()).axis_rule is None


def test_tables_built_once_per_basis():
    grid = tensor_grid(8, 2)
    basis = enumerate_basis(2, 6)
    assert "gram_pattern" not in vars(basis)
    v = drift_from_block({"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.5}}, 2)
    rho, trace = fixed_point_solve(v, basis, grid)
    assert trace.converged and trace.iterations > 1
    pattern, lowering = basis.gram_pattern, basis.lowering_table()
    assemble(v, as_measure(rho, grid), basis, grid)
    assert basis.gram_pattern is pattern and basis.lowering_table() is lowering
    assert not lowering.flags.writeable


# the bench ladder (mean-shifted componentwise tanh, k = 1..5) solved with
# the dense assembly and damped Picard (memory 0): per-level iteration
# counts and Lyapunov moments
DENSE_LADDER = [
    (1, 32, 1.3842192714063213),
    (2, 32, 2.0768242292699264),
    (3, 32, 2.424880486623916),
    (4, 32, 2.5980862356684815),
    (5, 32, 2.684689110190763),
]


def bench_ladder(fixed_point):
    block = {"kind": "componentwise-tanh", "scale": 0.5, "n_components": 5, "mean_shift": True}
    cfg = LadderConfig(
        weights=(1.0, 0.5, 0.25, 0.125, 0.0625),
        component_bound=0.5,
        levels=(1, 2, 3, 4, 5),
        degrees=(8, 6, 5, 4, 4),
        quad_orders=(10, 8, 6, 6, 6),
        fixed_point=fixed_point,
    )
    return run_ladder(lambda k: drift_from_block(block, k), cfg)


def test_ladder_matches_dense_assembly():
    report = bench_ladder(FixedPointOptions(memory=0))
    assert [(lv.k, lv.iterations) for lv in report.levels] == [row[:2] for row in DENSE_LADDER]
    for lv, (_, _, moment) in zip(report.levels, DENSE_LADDER):
        assert abs(lv.moment - moment) <= 1e-12


def test_anderson_ladder_reaches_the_damped_moments():
    report = bench_ladder(FixedPointOptions())
    assert [lv.k for lv in report.levels] == [row[0] for row in DENSE_LADDER]
    for lv, (_, _, moment) in zip(report.levels, DENSE_LADDER):
        assert lv.iterations <= 3
        assert abs(lv.moment - moment) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_lu_solve_matches_dense_solve(seed):
    basis = enumerate_basis(2, 6)
    rng = np.random.default_rng(seed)
    interaction = 0.3 * rng.standard_normal((basis.size, basis.size))
    system = GalerkinSystem(basis, basis.degrees(), interaction)
    rho = solve_system(system)
    expected = np.linalg.solve(system.matrix, system.rhs)
    assert np.allclose(rho.coefficients[1:], expected, rtol=1e-12, atol=1e-14)
    assert rho.coefficients[0] == 1.0


def test_degree_zero_solves_to_the_constant():
    rho = solve_linear(custom_drift(lambda p, x: np.full_like(x, 0.3), 1, "H", 0.3, reads_measure=False), None,
                       enumerate_basis(1, 0), tensor_grid(2, 1))
    assert np.array_equal(rho.coefficients, [1.0])


def test_singular_system_raises():
    basis = enumerate_basis(1, 3)
    system = GalerkinSystem(basis, basis.degrees(), np.diag(basis.degrees()))
    with pytest.raises(SolverError, match="condition"):
        solve_system(system)
