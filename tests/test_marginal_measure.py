"""A separable drift reads each density as its k one-dimensional marginals
(marginal_measure), checked against the joint PointMeasure on every grid
node (as_measure), the path it replaces; and the protocol both answer."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfpk import (
    ChaosDensity,
    ConstantKernel,
    DegenerateDensityError,
    FixedPointOptions,
    LadderConfig,
    MarginalMeasure,
    PointMeasure,
    QuadratureGrid,
    TanhKernel,
    as_measure,
    custom_drift,
    default_battery,
    enumerate_basis,
    fixed_point_solve,
    gauss_hermite,
    marginal,
    marginal_distance,
    marginal_measure,
    product_grid,
    run_ladder,
    tensor_grid,
    uniform_gaussian_grid,
    vlasov_drift,
)
from gfpk.drift import drift_from_block
from gfpk.linear import assemble, separable_interaction
from helpers import (
    SEPARABLE_BLOCKS,
    NodelessGrid,
    cameron_martin,
    joint_fixed_point,
    joint_measure_drift,
    phi_value,
    registry_drift,
)


def random_density(k, degree, seed, amplitude=0.05):
    rng = np.random.default_rng(seed)
    basis = enumerate_basis(k, degree)
    coeffs = amplitude * rng.standard_normal(basis.size)
    coeffs[0] = 1.0
    return ChaosDensity(basis, coeffs)


@pytest.mark.parametrize("name", sorted(SEPARABLE_BLOCKS))
@settings(max_examples=12, deadline=None)
@given(k=st.integers(1, 4), degree=st.integers(0, 4), extra=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_separable_fields_read_the_marginals_as_the_joint_measure(name, k, degree, extra, seed):
    grid = tensor_grid(degree + 1 + extra, k)
    rho = random_density(k, degree, seed)
    joint = as_measure(rho, grid)
    assume(joint.clip_defect == 0.0)
    marginals = marginal_measure(rho, grid)
    assert marginals.clip_defect == 0.0
    for i in range(k):
        y, masses = joint.marginal(i)
        assert np.array_equal(y, marginals.nodes[i])
        assert np.max(np.abs(masses - marginals.masses[i])) <= 1e-14
    assert np.max(np.abs(joint.mean() - marginals.mean())) <= 1e-14
    v = drift_from_block(SEPARABLE_BLOCKS[name](k), k)
    assert np.max(np.abs(np.subtract(v.eval_rules(marginals, grid), v.eval_rules(joint, grid)))) <= 1e-13 * v.bound


def test_marginals_are_those_of_density_marginal_clipped_one_at_a_time():
    # rho_0 = 1 + 1.2 h_1(x_0) goes negative, rho_1 = 1 + 0.1 h_1(x_1) does not
    basis = enumerate_basis(2, 2)
    coeffs = np.zeros(basis.size)
    coeffs[[0, basis.position((1, 0)), basis.position((0, 1))]] = 1.0, 1.2, 0.1
    rho = ChaosDensity(basis, coeffs)
    grid, line = tensor_grid(6, 2), tensor_grid(6, 1)
    measure = marginal_measure(rho, grid)
    expected = [as_measure(marginal(rho, [i]), line) for i in range(2)]
    for i in range(2):
        assert np.array_equal(measure.marginal(i)[1], expected[i].masses)
        assert np.array_equal(measure.marginal(i)[0], line.nodes[:, 0])
        assert measure.mean()[i] == expected[i].mean()[0]
    assert measure.clip_defect == expected[0].clip_defect > 0.0 == expected[1].clip_defect
    # a marginal whose positive part is too light is refused, as by as_measure
    coeffs[basis.position((0, 2))] = 3.0  # rho_1 < 0 at the two inner nodes, of mass 0.82
    with pytest.raises(DegenerateDensityError):
        marginal_measure(ChaosDensity(basis, coeffs), grid)


def test_rules_may_differ_per_axis():
    rho = random_density(2, 3, 5)
    gh, uniform = tensor_grid(8, 1).rules[0], uniform_gaussian_grid(5.0, 11).rules[0]
    grid = QuadratureGrid((gh, uniform))
    measure = marginal_measure(rho, grid)
    assert [y.size for y in measure.nodes] == [8, 11]
    assert all(abs(m.sum() - 1.0) <= 1e-15 for m in measure.masses)


@pytest.mark.parametrize("name", ["vlasov-tanh", "vlasov-gaussian-lobe", "componentwise-tanh"])
def test_separable_fixed_point_reads_nothing_on_the_product_grid(name):
    k, degree, q = 3, 4, 6
    v = drift_from_block(SEPARABLE_BLOCKS[name](k), k)
    basis, grid = enumerate_basis(k, degree), tensor_grid(q, k)
    opts = FixedPointOptions()
    rho, trace = fixed_point_solve(v, basis, NodelessGrid(grid.rules), opts)
    reference, joint_trace = joint_fixed_point(v, basis, grid, opts)
    assert trace.converged and trace.iterations == joint_trace.iterations > 1
    assert np.max(np.abs(rho.coefficients - reference.coefficients)) <= 1e-13


def test_marginal_distance_reads_nothing_on_the_product_grid(monkeypatch):
    rho_a, rho_b = random_density(2, 4, 1), random_density(3, 4, 2)
    grid_a, grid_b = tensor_grid(6, 2), tensor_grid(5, 3)
    battery = default_battery(2)
    per_node = lambda rho, grid, phi: np.sum(grid.weights * rho.evaluate(grid) * phi_value(phi, grid.nodes))
    reference = max(abs(per_node(rho_a, grid_a, phi) - per_node(rho_b, grid_b, phi)) for phi in battery)
    grids = []
    evaluate = ChaosDensity.evaluate
    monkeypatch.setattr(ChaosDensity, "evaluate", lambda self, x: grids.append(isinstance(x, QuadratureGrid)) or evaluate(self, x))
    distance = marginal_distance(rho_a, NodelessGrid(grid_a.rules), rho_b, NodelessGrid(grid_b.rules), battery)
    assert not any(grids)
    assert distance > 0.0 and abs(distance - reference) <= 1e-15


def test_the_joint_measure_still_reads_as_a_measure_of_a_separable_drift():
    v = vlasov_drift(TanhKernel(0.5), 2)
    grid = tensor_grid(6, 2)
    p = ChaosDensity.constant(enumerate_basis(2, 3))
    assert isinstance(v.read_measure(p, grid), MarginalMeasure)
    assert isinstance(joint_measure_drift(v).read_measure(p, grid), PointMeasure)
    # a non-separable drift reads the joint measure, and refuses the marginals
    coupled = custom_drift(lambda p, x: 0.1 * np.tanh(x[:, ::-1]), 2, "H", 0.2, reads_measure=True)
    assert isinstance(coupled.read_measure(p, grid), PointMeasure)
    with pytest.raises(TypeError, match="read_measure"):
        coupled.eval_v(marginal_measure(p, grid), np.zeros((1, 2)))


@pytest.mark.parametrize("read", ["marginal_measure", "as_measure"])
@pytest.mark.parametrize("grid", [product_grid(gauss_hermite(30).rules + uniform_gaussian_grid(5.0, 30).rules),
                                  uniform_gaussian_grid(5.0, 30, 2)], ids=["gauss-hermite", "uniform"])
def test_the_dense_path_reads_the_kernel_once_per_distinct_value(read, grid, monkeypatch):
    """Where the Gram regrouping fails (a uniform rule on an axis: a
    Gauss-Hermite rule times a uniform one, or two uniform ones), assembly
    reads a separable Vlasov drift on all q^k nodes; the kernel is still
    evaluated at no more than k q^2 pairs, one per distinct x_i and marginal
    node, not k q^(k+1)."""
    k, q, kernel = 2, 30, TanhKernel(0.5)
    v, basis = vlasov_drift(kernel, k), enumerate_basis(k, 12)
    measure = {"marginal_measure": marginal_measure, "as_measure": as_measure}[read](random_density(k, 4, 1), grid)
    x = grid.nodes
    expected = np.column_stack([kernel.component(i, x[:, [i]] - y) @ masses for i, (y, masses) in enumerate(map(measure.marginal, range(k)))])
    entries = []
    component = TanhKernel.component
    monkeypatch.setattr(TanhKernel, "component", lambda self, i, z: entries.append(z.size) or component(self, i, z))
    assert separable_interaction(basis, grid, v, measure) is None
    assemble(v, measure, basis, grid)
    assert 0 < sum(entries) <= k * q * q
    entries.clear()
    assert np.max(np.abs(v.eval_v(measure, x) - expected)) <= 1e-15
    assert 0 < sum(entries) <= k * q * q


# (k, N, Q, kernel or None, fixed-point options) of the bench and acceptance
# Vlasov solves; the sweep runs every scale with damping 1.0
SWEEP_SCALES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 1.0, 1.2, 1.5)
SOLVES = {
    **{f"sweep-{s}": (2, 12, 24, TanhKernel(s), FixedPointOptions(damping=1.0)) for s in SWEEP_SCALES},
    "certify-a": (1, 16, 32, TanhKernel(0.2), FixedPointOptions()),
    "criterion-5": (1, 20, 40, TanhKernel(0.2), FixedPointOptions(damping=0.5)),
    "criterion-5-undamped": (1, 20, 40, TanhKernel(0.2), FixedPointOptions(damping=1.0)),
    "criterion-5-seeded": (1, 20, 40, TanhKernel(0.2), FixedPointOptions(initial=cameron_martin(0.2, 20))),
    "criterion-6": (1, 12, 24, ConstantKernel((0.3,)), FixedPointOptions(damping=1.0)),
}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_bench_and_acceptance_solves_match_the_joint_measure(name):
    k, degree, q, kernel, opts = SOLVES[name]
    v, basis, grid = vlasov_drift(kernel, k), enumerate_basis(k, degree), tensor_grid(q, k)
    rho, trace = fixed_point_solve(v, basis, grid, opts)
    reference, joint_trace = joint_fixed_point(v, basis, grid, opts)
    assert trace.iterations == joint_trace.iterations
    gap = np.max(np.abs(rho.coefficients - reference.coefficients))
    assert gap == 0.0 if k == 1 else gap <= 1e-13  # at k = 1 the two reads are one


LADDERS = {
    "bench-ladder-k5": ("componentwise-tanh", (1.0, 0.5, 0.25, 0.125, 0.0625), (8, 6, 5, 4, 4), (10, 8, 6, 6, 6), 1e-10),
    "criterion-9": ("componentwise-tanh", tuple(4.0 ** -(n + 1) for n in range(4)), (8, 6, 5, 4), (10, 8, 6, 6), 1e-9),
    "criterion-9-decoupled": (
        "componentwise-decoupled-tanh", tuple(4.0 ** -(n + 1) for n in range(4)), (8,) * 4, (10,) * 4, 1e-11
    ),
}


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_bench_and_acceptance_ladders_match_the_joint_measure(name):
    kind, weights, degrees, quads, tolerance = LADDERS[name]
    params = {"scale": 0.5, "n_components": len(weights)} | ({"mean_shift": True} if kind == "componentwise-tanh" else {})
    cfg = LadderConfig(
        weights=weights, component_bound=0.5, levels=tuple(range(1, len(weights) + 1)), degrees=degrees,
        quad_orders=quads, fixed_point=FixedPointOptions(damping=0.5, tolerance=tolerance, max_iterations=200),
    )
    drift = registry_drift(kind, **params)
    report = run_ladder(drift, cfg)
    reference = run_ladder(lambda k: joint_measure_drift(drift(k)), cfg)
    assert report.completed and reference.completed
    for level, joint in zip(report.levels, reference.levels):
        assert level["iterations"] == joint["iterations"]
        assert np.max(np.abs(level["solution"].coefficients - joint["solution"].coefficients)) <= 1e-13
