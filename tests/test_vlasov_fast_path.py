"""The marginal Vlasov convolution against the dense pairwise sum, and the
fixed-point loop with its p-independent tables built once per solve."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfpk import (
    ChaosDensity,
    ComponentwiseKernel,
    FixedPointOptions,
    PointMeasure,
    as_measure,
    clipped_linear_kernel,
    constant_kernel,
    enumerate_basis,
    fixed_point_solve,
    gaussian_lobe_kernel,
    l2_distance,
    solve_linear,
    tanh_kernel,
    tensor_grid,
    uniform_gaussian_grid,
    vlasov_drift,
    vlasov_eval,
)
from gfpk.drift import DriftField
from gfpk.linear import separable_interaction
from helpers import CoupledLobeKernel

# the built-in kinds, and a kernel built from a plain component
KERNEL_NAMES = ("constant", "tanh", "gaussian-lobe", "clipped-linear", "own-sine")
REL_TOL = 1e-13

scales = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def make_kernel(name, k, scale, cap):
    if name == "constant":
        return constant_kernel(tuple(scale * (i + 1) / k for i in range(k)))
    if name == "tanh":
        return tanh_kernel(scale)
    if name == "gaussian-lobe":
        return gaussian_lobe_kernel(scale)
    if name == "own-sine":
        return ComponentwiseKernel(lambda i, z: scale * np.sin(z), abs(scale))
    return clipped_linear_kernel(scale, cap)


kernel_args = st.tuples(scales, st.floats(min_value=0.01, max_value=2.0))


def random_density(k, degree, seed, amplitude=0.05):
    basis = enumerate_basis(k, degree)
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(basis.size)
    coeffs[0] = 1.0
    coeffs[1:] = amplitude * rng.standard_normal(basis.size - 1)
    return ChaosDensity(basis, coeffs)


def assert_paths_agree(kernel, measure, x):
    """Marginal (the Vlasov drift of a componentwise kernel) and dense (vlasov_eval) sums agree to REL_TOL of the
    kernel's bound, which bounds every summand (the masses sum to 1)."""
    fast = vlasov_drift(kernel, x.shape[1]).eval_v(measure, x)
    dense = vlasov_eval(kernel, measure, x, None)
    assert fast.shape == dense.shape == x.shape
    scale = max(kernel.component_bound, 1e-300)
    assert float(np.max(np.abs(fast - dense))) <= REL_TOL * scale


@pytest.mark.parametrize("name", KERNEL_NAMES)
@settings(max_examples=15, deadline=None)
@given(
    args=kernel_args,
    k=st.integers(1, 3),
    q=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_marginal_matches_dense_on_tensor_grids(name, args, k, q, seed):
    kernel = make_kernel(name, k, *args)
    grid = tensor_grid(q, k)
    measure = as_measure(random_density(k, min(q - 1, 3), seed), grid)
    assert_paths_agree(kernel, measure, grid.nodes)
    # at the measure's own points the result is bitwise that of an equal but
    # distinct point array
    assert measure.points is grid.nodes
    v = vlasov_drift(kernel, k)
    assert np.array_equal(v.eval_v(measure, grid.nodes), v.eval_v(measure, grid.nodes.copy()))


@pytest.mark.parametrize("name", KERNEL_NAMES)
@settings(max_examples=15, deadline=None)
@given(
    args=kernel_args,
    k=st.integers(1, 3),
    m=st.integers(1, 40),
    n_eval=st.integers(1, 30),
    levels=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_marginal_matches_dense_on_random_clouds(name, args, k, m, n_eval, levels, seed):
    """Clouds whose coordinates repeat (drawn from a few levels) and clouds
    whose coordinates are all distinct."""
    kernel = make_kernel(name, k, *args)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((m, k))
    points[: m // 2] = rng.integers(-levels, levels + 1, size=(m // 2, k)) / 2.0
    masses = rng.random(m)
    measure = PointMeasure(points=points, masses=masses / masses.sum(), clip_defect=0.0)
    x = rng.standard_normal((n_eval, k)) * 2.0
    shared = min(n_eval // 2, m)
    x[:shared] = points[:shared]
    assert_paths_agree(kernel, measure, x)


@pytest.mark.parametrize("name", KERNEL_NAMES)
@settings(max_examples=10, deadline=None)
@given(
    args=kernel_args,
    k=st.integers(1, 3),
    n=st.integers(3, 9),
    span=st.floats(min_value=1.0, max_value=8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_marginal_matches_dense_on_uniform_grids(name, args, k, n, span, seed):
    kernel = make_kernel(name, k, *args)
    grid = uniform_gaussian_grid(span, n, k)
    rho = random_density(k, 2, seed, amplitude=0.02)
    measure = as_measure(rho, grid)
    assert_paths_agree(kernel, measure, grid.nodes)
    # solve-grid measure evaluated on a finer uniform grid, as the bump
    # residuals do
    fine = uniform_gaussian_grid(span, 2 * n + 1, k)
    assert_paths_agree(kernel, as_measure(rho, tensor_grid(6, k)), fine.nodes)


def test_kernels_apply_their_component_on_every_axis():
    z = np.linspace(-4.0, 4.0, 24).reshape(4, 3, 2)
    assert np.array_equal(constant_kernel((0.3, -0.2))(z)[..., 1], np.full((4, 3), -0.2))
    assert np.allclose(tanh_kernel(0.7)(z), 0.7 * np.tanh(z), rtol=0, atol=1e-15)
    assert np.allclose(
        gaussian_lobe_kernel(1.5)(z), 1.5 * z * np.exp(-0.5 * z * z), rtol=0, atol=1e-15
    )
    assert np.array_equal(clipped_linear_kernel(2.0, 0.5)(z), np.clip(2.0 * z, -0.5, 0.5))


def test_a_kernel_built_from_its_component_solves_as_the_built_in_one():
    """The same fixed point, bit for bit, and the same trace as tanh_kernel."""
    grid, basis = tensor_grid(40, 1), enumerate_basis(1, 20)
    (rho, trace), (own, own_trace) = [
        fixed_point_solve(vlasov_drift(kernel, 1), basis, grid, FixedPointOptions(damping=0.5))
        for kernel in (tanh_kernel(0.2), ComponentwiseKernel(lambda i, z: 0.2 * np.tanh(z), 0.2))
    ]
    assert trace.converged and trace.iterations > 1
    assert own.coefficients.tobytes() == rho.coefficients.tobytes()
    assert own_trace == trace


def test_undeclared_kernel_takes_the_dense_path():
    """A kernel coupling the coordinates (a general H-valued b0) is summed
    over all pairs; the marginal regrouping would be wrong for it."""

    def rotation(z):
        out = np.empty_like(z)
        out[..., 0] = -z[..., 1]
        out[..., 1] = z[..., 0]
        return 0.5 * out / (1.0 + np.sum(z * z, axis=-1))[..., None]

    grid = tensor_grid(6, 2)
    measure = as_measure(random_density(2, 3, 7), grid)
    x = grid.nodes[::5]
    expected = vlasov_eval(rotation, measure, x, None)
    pairwise = np.array(
        [sum(w * rotation(xi - y) for y, w in zip(measure.points, measure.masses)) for xi in x]
    )
    assert np.allclose(expected, pairwise, rtol=0, atol=1e-14)


def test_coupled_kernel_gives_a_dense_measure_reading_field():
    """The Vlasov drift of a coupling kernel is a plain DriftField that reads
    the joint PointMeasure, evaluates as vlasov_eval, assembles densely and
    keeps the symmetric fixed point: b0 is odd, so every odd coefficient of
    the solution vanishes."""
    kernel = CoupledLobeKernel(1.0)
    v = vlasov_drift(kernel, 2)
    assert type(v) is DriftField and v.reads_measure
    basis, grid = enumerate_basis(2, 6), tensor_grid(10, 2)
    measure = v.read_measure(random_density(2, 6, 3), grid)
    assert isinstance(measure, PointMeasure)
    assert np.array_equal(v.eval_v(measure, grid.nodes), vlasov_eval(kernel, measure, grid.nodes, None))
    assert separable_interaction(basis, grid, v, measure) is None
    rho, trace = fixed_point_solve(v, basis, grid)
    assert trace.converged and trace.iterations > 1
    assert np.max(np.abs(rho.coefficients[basis.degrees() % 2 == 1])) <= 1e-14


def shifted_density(basis, shift):
    """Truncated Cameron-Martin density exp(<shift, x> - |shift|^2 / 2):
    c_alpha = prod_i shift_i^alpha_i / sqrt(alpha_i!)."""
    coeffs = np.array(
        [
            np.prod([s**a / math.sqrt(math.factorial(a)) for s, a in zip(shift, alpha)])
            for alpha in basis.indices
        ]
    )
    return ChaosDensity(basis, coeffs)


def reference_fixed_point(v, basis, grid, opts):
    """The damped iteration with one full solve_linear per iterate; returns
    the last solve and the residual of every iterate."""
    p = opts.initial
    residuals = []
    for _ in range(opts.max_iterations + 1):
        rho = solve_linear(v, as_measure(p, grid), basis, grid)
        residuals.append(l2_distance(rho, p))
        if residuals[-1] <= opts.tolerance:
            return rho, residuals
        coeffs = (1.0 - opts.damping) * p.coefficients + opts.damping * rho.coefficients
        p = ChaosDensity(basis, coeffs)
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize("scale", [0.3, 1.0, 1.5])
def test_hoisted_fixed_point_matches_per_iteration_solves(scale):
    """Same iterates, not only the same limit: the asymmetric start keeps
    every iterate off the symmetric fixed point."""
    grid = tensor_grid(16, 2)
    basis = enumerate_basis(2, 8)
    v = vlasov_drift(tanh_kernel(scale), 2)
    opts = FixedPointOptions(
        damping=0.7, tolerance=1e-10, memory=0, initial=shifted_density(basis, (0.4, -0.25))
    )
    rho, trace = fixed_point_solve(v, basis, grid, opts)
    assert trace.converged
    reference, residuals = reference_fixed_point(v, basis, grid, opts)
    assert l2_distance(rho, reference) <= 1e-12
    assert len(trace.psi_residuals) == len(residuals)
    assert np.allclose(trace.psi_residuals, residuals, rtol=0, atol=1e-12)
