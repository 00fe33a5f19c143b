"""Assembly of separable drifts from 1-D Gram matrices against the dense
quadrature sum, the observed choice between the two paths, and the LU
solve with its condition estimate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfpk import (
    ChaosDensity,
    FixedPointOptions,
    QuadratureGrid,
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
from gfpk.drift import drift_from_block
from gfpk.ladder import LadderConfig, run_ladder
from gfpk.linear import GalerkinSystem, dense_interaction, separable_interaction, solve_system

REL_TOL = 1e-13
# largest Q per k: Gauss-Hermite rules up to Q = 25 are orthonormal to
# 1e-13 up to degree Q - 1, and the grids stay small
MAX_Q = {1: 24, 2: 12, 3: 7, 4: 5}

SEPARABLE_KINDS = {
    "constant": lambda k, s: {"kind": "constant", "h": [s * (i + 1) / k for i in range(k)]},
    "clipped-potential": lambda k, s: {"kind": "clipped-potential", "lam": s, "width": 1.5},
    "componentwise-tanh": lambda k, s: {"kind": "componentwise-tanh", "scale": s, "n_components": 4},
    "componentwise-tanh-mean-shift": lambda k, s: {
        "kind": "componentwise-tanh", "scale": s, "n_components": 4, "mean_shift": True
    },
    "componentwise-decoupled-tanh": lambda k, s: {
        "kind": "componentwise-decoupled-tanh", "scale": s, "n_components": 4
    },
    "vlasov-constant": lambda k, s: {
        "kind": "vlasov", "kernel": {"kind": "constant", "h": [s / (i + 1) for i in range(k)]}
    },
    "vlasov-tanh": lambda k, s: {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": s}},
    "vlasov-gaussian-lobe": lambda k, s: {"kind": "vlasov", "kernel": {"kind": "gaussian-lobe", "scale": s}},
    "vlasov-clipped-linear": lambda k, s: {
        "kind": "vlasov", "kernel": {"kind": "clipped-linear", "scale": s, "cap": 0.7}
    },
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
    vvals = v.eval_v(p, grid.nodes)
    sparse = separable_interaction(basis, grid, vvals)
    assert sparse is not None
    assert_close(sparse, dense_interaction(basis, grid, vvals))
    assert np.array_equal(assemble(v, p, basis, grid).interaction, sparse)


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
    vvals = v.eval_v(None, grid.nodes)
    assert separable_interaction(basis, grid, vvals) is None
    dense = dense_interaction(basis, grid, vvals)
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
