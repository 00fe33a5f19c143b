"""Drift fields, convolution kernels and bound enforcement."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gfpk
from gfpk import (
    BoundViolationError,
    ChaosDensity,
    as_measure,
    clipped_linear_kernel,
    clipped_potential_drift,
    constant_drift,
    constant_kernel,
    custom_drift,
    enumerate_basis,
    gaussian_lobe_kernel,
    marginal_measure,
    rotational_drift,
    tanh_kernel,
    tensor_grid,
    vlasov_drift,
    vlasov_eval,
)
from gfpk.drift import (
    BOUND_SLACK,
    VALIDATION_SAMPLES,
    ComponentwiseKernel,
    SeparableField,
    _largest_rows,
    drift_from_block,
    h_norm,
    validation_samples,
)
from helpers import CoupledLobeKernel, cameron_martin

VLASOV_KERNELS = [
    {"kind": "constant", "h": [0.3, -0.2]},
    {"kind": "tanh", "scale": 0.5},
    {"kind": "gaussian-lobe", "scale": 0.8},
    {"kind": "clipped-linear", "scale": 0.5, "cap": 0.4},
]


def test_constant_drift_value_and_bound():
    v = constant_drift([0.3])
    assert np.allclose(v.eval_v(None, np.array([[1.7]])), [[0.3]])
    assert v.h_bound == pytest.approx(0.3)
    assert v.c0 == pytest.approx(0.6 * math.pi)


def test_vlasov_constant_kernel_ignores_measure():
    grid = tensor_grid(12, 1)
    v = vlasov_drift(constant_kernel((0.4,)), 1)
    p = as_measure(ChaosDensity.constant(enumerate_basis(1, 4)), grid)
    out = v.eval_v(p, np.array([[0.0], [2.0]]))
    assert np.allclose(out, 0.4)


def test_vlasov_tanh_symmetric_measure_at_origin():
    # odd kernel against the symmetric Gaussian vanishes at x = 0
    grid = tensor_grid(24, 1)
    v = vlasov_drift(tanh_kernel(1.0), 1)
    p = as_measure(ChaosDensity.constant(enumerate_basis(1, 4)), grid)
    assert abs(v.eval_v(p, np.array([[0.0]]))[0, 0]) < 1e-14


def test_vlasov_tanh_against_quadrature_oracle():
    """v(p, 0) = int tanh(-y) exp(0.5 y - 0.125) gamma(dy), oracle by
    independent high-order quadrature over the explicit integrand."""
    grid = tensor_grid(48, 1)
    p = cameron_martin(0.5, 20)
    v = vlasov_drift(tanh_kernel(1.0), 1)
    value = v.eval_v(as_measure(p, grid), np.array([[0.0]]))[0, 0]
    y = grid.nodes[:, 0]
    oracle = float(np.sum(grid.weights * np.tanh(-y) * np.exp(0.5 * y - 0.125)))
    assert value == pytest.approx(oracle, abs=1e-8)


def test_vlasov_eval_point_measure():
    from gfpk import PointMeasure

    measure = PointMeasure(
        points=np.array([[1.0], [-1.0]]), masses=np.array([0.5, 0.5]), clip_defect=0.0
    )
    out = vlasov_eval(tanh_kernel(1.0), measure, np.array([[0.0]]), None)
    assert abs(out[0, 0]) < 1e-15


@pytest.mark.parametrize(
    "v",
    [
        vlasov_drift(tanh_kernel(0.5), 1),
        drift_from_block({"kind": "componentwise-tanh", "scale": 0.5, "n_components": 1, "mean_shift": True}, 1),
        constant_drift([0.3]),
    ],
    ids=lambda v: v.kind,
)
def test_eval_v_rejects_a_density(v):
    """A drift reads its measure as a PointMeasure; a ChaosDensity must be
    read on a grid by as_measure first, whether or not the drift uses it."""
    p = cameron_martin(0.4, 8)
    with pytest.raises(TypeError, match="as_measure"):
        v.eval_v(p, np.zeros((1, 1)))
    v.eval_v(as_measure(p, tensor_grid(12, 1)), np.zeros((1, 1)))


@pytest.mark.parametrize("kernel", [tanh_kernel(0.7), constant_kernel((0.2, -0.1))])
def test_vlasov_eval_reads_a_density_on_its_grid(kernel):
    """vlasov_eval on a ChaosDensity and a grid is vlasov_eval on the
    measure as_measure reads from them, bit for bit."""
    grid = tensor_grid(7, 2)
    basis = enumerate_basis(2, 4)
    rng = np.random.default_rng(3)
    p = ChaosDensity(basis, np.concatenate([[1.0], 0.1 * rng.standard_normal(basis.size - 1)]))
    x = rng.standard_normal((30, 2))
    expected = vlasov_eval(kernel, as_measure(p, grid), x, None)
    assert np.array_equal(vlasov_eval(kernel, p, x, grid), expected)
    with pytest.raises(TypeError, match="grid"):
        vlasov_eval(kernel, p, x, None)


def test_vlasov_weak_continuity():
    """If p_m -> p coefficientwise on a fixed basis with bounded norms, then
    eval_v(p_m, x) -> eval_v(p, x) at every node (the sequential-continuity
    hypothesis the fixed-point argument rests on)."""
    grid = tensor_grid(24, 1)
    v = vlasov_drift(tanh_kernel(0.5), 1)
    basis = enumerate_basis(1, 8)
    target = cameron_martin(0.4, 8)
    x = grid.nodes[:32]
    limit = v.eval_v(as_measure(target, grid), x)
    gaps = []
    for m in (1, 2, 4, 8, 16):
        coeffs = target.coefficients.copy()
        coeffs[1:] *= 1.0 + 1.0 / m  # converging perturbation, bounded norm
        p_m = ChaosDensity(basis, coeffs)
        gaps.append(float(np.max(np.abs(v.eval_v(as_measure(p_m, grid), x) - limit))))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < gaps[0] / 8


def test_clipped_potential_gradient_consistency():
    """v = grad W for the documented W(x) = lam width sum_i log cosh(x_i / width)."""
    lam, width = 0.8, 2.0
    v = clipped_potential_drift(lam, 2, width)

    def potential(x):
        return lam * width * np.sum(np.log(np.cosh(x / width)), axis=1)

    x = np.array([[0.3, -1.0], [1.5, 0.2]])
    eps = 1e-6
    for i in range(2):
        shift = np.zeros(2)
        shift[i] = eps
        fd = (potential(x + shift) - potential(x - shift)) / (2 * eps)
        assert np.allclose(v.eval_v(None, x)[:, i], fd, atol=1e-8)


@pytest.mark.parametrize("k, ambient", [(1, 1), (3, 3), (3, 5)])
def test_mean_shift_tanh_matches_per_component_evaluation(k, ambient):
    """Bitwise the values of each component reading its own copy of the
    mean; n_components (ambient) only bounds k."""
    scale = 0.5
    rng = np.random.default_rng(k + ambient)
    grid = tensor_grid(6, k)
    basis = enumerate_basis(k, 3)
    coefficients = np.concatenate([[1.0], 0.1 * rng.standard_normal(basis.size - 1)])
    p = ChaosDensity(basis, coefficients)
    x = rng.standard_normal((40, k))
    v = drift_from_block({"kind": "componentwise-tanh", "scale": scale, "n_components": ambient, "mean_shift": True}, k)
    # the joint measure and the marginals, each with its own mean
    point, marginals = as_measure(p, grid), marginal_measure(p, grid)
    for measure, mean in ((point, lambda n: (point.masses @ point.points)[n]),
                          (marginals, lambda n: marginals.masses[n] @ marginals.nodes[n])):
        reference = np.stack([scale * np.tanh(x[:, n] - mean(n)) for n in range(k)], axis=1)
        assert np.array_equal(v.eval_v(measure, x), reference)
        assert measure.mean() is measure.mean() and not measure.mean().flags.writeable


@pytest.mark.parametrize(
    "v",
    [
        clipped_potential_drift(0.5, 2),
        rotational_drift(0.3, 2),
        vlasov_drift(tanh_kernel(0.3), 2),
        custom_drift(lambda p, x: 0.1 * np.tanh(x), 2, h_bound=0.3, reads_measure=False),
    ],
    ids=lambda v: v.kind,
)
@pytest.mark.parametrize("shape", [(3, 5), (3, 1), (5,), (1,), (2, 2, 2)])
def test_eval_v_rejects_points_of_another_dimension(v, shape):
    # a 2-dimensional field once returned (3, 5) values for (3, 5) points
    measure = as_measure(ChaosDensity.constant(enumerate_basis(2, 2)), tensor_grid(4, 2))
    with pytest.raises(ValueError, match="2-dimensional"):
        v.eval_v(measure, np.ones(shape))
    assert v.eval_v(measure, np.ones((3, 2))).shape == (3, 2)
    assert v.eval_v(measure, np.ones(2)).shape == (2,)


@pytest.mark.parametrize("name", ["h_bound", "component_bound"])
@pytest.mark.parametrize("bound", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_a_declared_bound_is_a_finite_number_at_least_zero(name, bound):
    # a bound of -1 or NaN once blamed the zero field for |v| = 0 beyond it, and
    # an infinite one built c0 = inf and sigma_inf = 0, passing the ball and tail vacuously
    zero = lambda p, x: np.zeros_like(x)
    with pytest.raises(ValueError, match=f"{name} must be a finite number >= 0, got {bound!r}"):
        custom_drift(zero, 2, reads_measure=False, **{name: bound})
    with pytest.raises(ValueError, match=name):
        custom_drift(zero, 2, reads_measure=False, **{"h_bound": 0.3, "component_bound": 0.3, name: bound})
    assert custom_drift(zero, 2, reads_measure=False, **{name: 0.0}).c0 == 0.0


def test_a_field_declares_a_bound():
    with pytest.raises(ValueError, match="must declare h_bound, component_bound or both"):
        custom_drift(lambda p, x: np.zeros_like(x), 2, reads_measure=False)
    with pytest.raises(ValueError, match="must declare"):
        SeparableField("none", 2, lambda measure, i, z: np.zeros(z.shape), reads_measure=False)


def test_a_componentwise_bound_alone_gives_the_h_bound_by_sqrt_k():
    tanh = lambda p, x: 0.1 * np.tanh(x)
    v = custom_drift(tanh, 2, reads_measure=False, component_bound=0.3)
    assert (v.component_bound, v.h_bound) == (0.3, 0.3 * math.sqrt(2))
    w = custom_drift(tanh, 2, reads_measure=False, h_bound=0.3)
    assert (w.component_bound, w.h_bound) == (None, 0.3)
    both = custom_drift(tanh, 2, reads_measure=False, h_bound=0.2, component_bound=0.15)
    assert (both.component_bound, both.h_bound) == (0.15, 0.2)


def test_each_declared_bound_is_enforced():
    """A field is refused beyond either of its bounds, at construction and
    where it is evaluated; the message names the norm that broke."""
    flat = lambda p, x: np.where(np.abs(x) > 50.0, 0.2, 0.1)
    with pytest.raises(BoundViolationError, match=r"\|v_n\| = 0\.1 beyond its declared bound 0\.05$"):
        custom_drift(flat, 2, reads_measure=False, h_bound=1.0, component_bound=0.05)
    with pytest.raises(BoundViolationError, match=r"\|v\|_H = 0\.141421 beyond its declared bound 0\.12$"):
        custom_drift(flat, 2, reads_measure=False, h_bound=0.12, component_bound=0.1)
    v = custom_drift(flat, 2, reads_measure=False, h_bound=0.15, component_bound=0.1)
    with pytest.raises(BoundViolationError, match=r"\|v_n\| = 0\.2 "):
        v.eval_v(None, [[60.0, 0.0]])
    with pytest.raises(BoundViolationError, match=r"\|v\|_H = 0\.282843 "):
        custom_drift(flat, 2, reads_measure=False, h_bound=0.15).eval_v(None, [[60.0, 60.0]])


def test_fields_state_whether_they_read_the_measure():
    """reads_measure is true exactly for the built-in fields whose value
    depends on the measure, and read_measure gives None for every other."""
    componentwise = {"scale": 0.3, "n_components": 2}
    reading = [
        vlasov_drift(tanh_kernel(0.3), 2),
        drift_from_block({"kind": "componentwise-tanh", **componentwise, "mean_shift": True}, 2),
    ]
    ignoring = [
        constant_drift([0.1, 0.2]),
        clipped_potential_drift(0.3, 2),
        rotational_drift(0.3, 2),
        drift_from_block({"kind": "componentwise-tanh", **componentwise}, 2),
        drift_from_block({"kind": "componentwise-decoupled-tanh", **componentwise}, 2),
    ]
    declared = [
        custom_drift(lambda p, x: 0.1 * np.tanh(x), 2, h_bound=0.3, reads_measure=True),
        custom_drift(lambda p, x: 0.1 * np.tanh(x), 2, h_bound=0.3, reads_measure=False),
    ]
    fields = reading + ignoring + declared
    assert [v.reads_measure for v in fields] == [True] * 2 + [False] * 5 + [True, False]
    grid = tensor_grid(4, 2)
    rho = ChaosDensity(enumerate_basis(2, 3), np.array([1.0, 0.3, -0.2, 0.1, 0.0, 0.05, 0, 0, 0, 0]))
    assert [v.read_measure(rho, grid) is None for v in fields] == [not v.reads_measure for v in fields]
    x = np.random.default_rng(0).standard_normal((25, 2))
    tilted, flat = as_measure(rho, grid), as_measure(ChaosDensity.constant(rho.basis), grid)
    assert [not np.array_equal(v.eval_v(tilted, x), v.eval_v(flat, x)) for v in reading + ignoring] == [True] * 2 + [False] * 5


@pytest.mark.parametrize(
    "v",
    [drift_from_block({"kind": "vlasov", "kernel": kernel}, 2) for kernel in VLASOV_KERNELS]
    + [
        drift_from_block({"kind": "componentwise-tanh", "scale": 0.5, "n_components": 2, "mean_shift": True}, 2),
        vlasov_drift(CoupledLobeKernel(1.0), 2),
        custom_drift(lambda p, x: 0.1 * np.tanh(x), 2, h_bound=0.3, reads_measure=True),
    ],
    ids=[f"vlasov-{kernel['kind']}" for kernel in VLASOV_KERNELS] + ["mean-shifted-tanh", "coupled-kernel", "custom"],
)
def test_fields_that_read_the_measure_refuse_none(v):
    """A field whose value depends on the measure has no value at None: eval_v
    and, for a SeparableField, eval_rules raise instead of reading it as no
    shift or no mass."""
    assert v.reads_measure
    with pytest.raises(TypeError, match="reads the measure"):
        v.eval_v(None, [[0.3, -0.2]])
    if isinstance(v, SeparableField):
        with pytest.raises(TypeError, match="reads the measure"):
            v.eval_rules(None, tensor_grid(4, 2))


def test_buggy_evaluator_is_not_registered():
    # the validation probe lets the evaluator's own error through
    with pytest.raises(AttributeError):
        custom_drift(lambda p, x: x.no_such_attribute, 1, h_bound=1.0, reads_measure=False)
    with pytest.raises(TypeError):
        custom_drift(lambda p, x: p + x, 1, h_bound=1.0, reads_measure=True)


def test_bound_violation_raises():
    with pytest.raises(BoundViolationError, match="declared"):
        custom_drift(lambda p, x: 2.0 * np.ones_like(x), 1, h_bound=1.0, reads_measure=False)


def test_eval_time_bound_check():
    # a field whose declared bound holds on the validation samples but is
    # violated at an extreme evaluation point
    def fn(p, x):
        return np.where(np.abs(x) > 50.0, 10.0, 0.1)

    v = custom_drift(fn, 1, h_bound=0.5, reads_measure=False)
    with pytest.raises(BoundViolationError):
        v.eval_v(None, np.array([[60.0]]))


@pytest.mark.parametrize("name", ["h_bound", "component_bound"], ids=["H", "componentwise"])
def test_nan_fails_the_bound_check(name):
    with pytest.raises(BoundViolationError, match="nan"):
        custom_drift(lambda p, x: np.full_like(x, np.nan), 1, reads_measure=False, **{name: 1.0})
    # NaN only far out: constructed, then refused where it is evaluated
    v = custom_drift(lambda p, x: np.where(np.abs(x) > 50.0, np.nan, 0.1), 1, reads_measure=False, **{name: 0.5})
    assert v.eval_v(None, np.array([[1.0]])).tolist() == [[0.1]]
    with pytest.raises(BoundViolationError, match="nan"):
        v.eval_v(None, np.array([[60.0]]))


def counting_tanh(entries):
    """tanh, counting in entries[i] the kernel entries evaluated on coordinate i."""

    def component(i, z):
        entries[i] += z.size
        return np.tanh(z)

    return ComponentwiseKernel(component, 1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_vlasov_validation_reads_the_kernel_once_per_sample(k):
    # the probe is a point mass, so construction costs one kernel entry per
    # sample and coordinate (a 64-point probe cloud cost 64 each)
    entries = [0] * k
    vlasov_drift(counting_tanh(entries), k)
    assert 0 < max(entries) <= VALIDATION_SAMPLES


# tanh declared bounded by 1, but 3 on |z| < 0.05
SPIKED_TANH = ComponentwiseKernel(lambda i, z: np.where(np.abs(z) < 0.05, 3.0, np.tanh(z)), 1.0)


@pytest.mark.parametrize("cap", [-0.5, -1e-300, math.nan])
def test_a_clipped_linear_kernel_refuses_a_negative_cap(cap):
    # np.clip(z, 0.5, -0.5) is -0.5 everywhere: a constant kernel, not a clip
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        clipped_linear_kernel(1.0, cap)
    assert np.array_equal(clipped_linear_kernel(1.0, 0.0)(np.array([[-2.0, 3.0]])), [[0.0, 0.0]])


@pytest.mark.parametrize("k", [1, 2])
def test_a_kernel_beyond_its_bound_near_zero_is_refused(k):
    # convolved with a spread probe the spike averages away; the point-mass
    # probe reads the kernel itself
    with pytest.raises(BoundViolationError):
        vlasov_drift(SPIKED_TANH, k)


def test_validation_samples_are_a_fixed_gaussian_design(tmp_path):
    """Finite, close to N(0, 1) in each coordinate, dense enough near 0 to
    meet a spike there (SPIKED_TANH), reaching |z| >= 3.5, and the same bits
    in a fresh interpreter."""
    path = tmp_path / "fresh.npz"
    code = ("import numpy as np\nfrom gfpk.drift import validation_samples\n"
            f"np.savez({str(path)!r}, *[validation_samples(k) for k in range(1, 9)])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(gfpk.__file__)))
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True)
    fresh = np.load(path)
    for k in range(1, 9):
        z = validation_samples(k)
        assert z.shape == (VALIDATION_SAMPLES, k) and np.isfinite(z).all()
        assert z.tobytes() == fresh[f"arr_{k - 1}"].tobytes()
        assert np.all(np.abs(z.mean(axis=0)) <= 0.02) and np.all(np.abs(z.std(axis=0) - 1.0) <= 0.02)
        assert np.all(np.sum(np.abs(z) < 0.05, axis=0) >= 100)
        assert np.max(np.abs(z)) >= 3.5
    assert all(np.isfinite(validation_samples(k)).all() for k in range(9, 65))


def test_separable_validation_covers_the_product_of_the_samples():
    samples = validation_samples(2)
    assert samples.shape == (VALIDATION_SAMPLES, 2)
    assert validation_samples(2) is samples and not samples.flags.writeable  # one draw per k
    # v_0 peaks at the first row's x_0 only, v_1 at the second row's x_1 only
    peaks = (samples[0, 0], samples[1, 1])
    axis = lambda measure, i, z: np.where(z == peaks[i], 1.0, 0.0)
    rows = np.column_stack([axis(None, i, samples[:, i]) for i in range(2)])
    assert np.max(np.linalg.norm(rows, axis=1)) == 1.0  # no row holds both peaks
    # a bound between the row maximum 1 and the product maximum sqrt(2) is refused
    with pytest.raises(BoundViolationError, match="1.41421"):
        SeparableField("peaks", 2, axis, h_bound=1.2, reads_measure=False)
    SeparableField("peaks", 2, axis, h_bound=math.sqrt(2.0), reads_measure=False)


def test_bound_check_gives_the_verdict_of_the_row_norms():
    fields = {k: custom_drift(lambda p, x: np.zeros_like(x), k, h_bound=0.0, reads_measure=False) for k in range(1, 9)}
    rng = np.random.default_rng(11)
    for _ in range(300):
        k, m = int(rng.integers(1, 9)), int(rng.integers(1, 200))
        low, high = np.sort(rng.uniform(-300.0, 300.0, 2))
        values = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(low, high, (m, 1))
        worst = float(np.max(h_norm(values, axis=1)))
        v = fields[k]
        for factor in (0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0):
            v.h_bound = worst * factor
            refused = not worst <= v.h_bound * (1.0 + BOUND_SLACK) + 1e-300
            try:
                v._check_bound(values)
                assert not refused
            except BoundViolationError:
                assert refused


def test_the_largest_rows_hold_the_largest_norm():
    """The H check reads h_norm on _largest_rows only; that maximum is the
    maximum over every row, bit for bit, from underflow to overflow."""
    rng = np.random.default_rng(12)
    for _ in range(300):
        k, m = int(rng.integers(1, 9)), int(rng.integers(1, 200))
        low, high = np.sort(rng.uniform(-320.0, 308.0, 2))
        values = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(low, high, (m, 1))
        assert np.max(h_norm(_largest_rows(values), axis=1)) == np.max(h_norm(values, axis=1))
    assert _largest_rows(np.zeros((5, 2))).shape == (5, 2)
    assert _largest_rows(np.array([[np.nan, 0.0], [1.0, 0.0]])).shape == (2, 2)


def test_rotational_drift_bound_and_structure():
    v = rotational_drift(0.3, 2)
    x = np.array([[1.0, 0.0]])
    out = v.eval_v(None, x)
    assert np.allclose(out, [[0.0, 0.15]])  # 0.3 * (0, 1) / 2
    assert v.h_bound == pytest.approx(0.15)
    assert v.kind == "rotational"
    with pytest.raises(ValueError, match="even"):
        rotational_drift(0.3, 3)


def test_rotational_offset_enters_bound():
    v = rotational_drift(0.3, 2, offset=[0.2, 0.0])
    assert v.h_bound == pytest.approx(0.35)


def test_kernel_bounds():
    assert tanh_kernel(0.7).component_bound == pytest.approx(0.7)
    assert gaussian_lobe_kernel(2.0).component_bound == pytest.approx(2.0 * math.exp(-0.5))
    assert clipped_linear_kernel(5.0, 0.4).component_bound == pytest.approx(0.4)
    assert vlasov_drift(gaussian_lobe_kernel(2.0), 4).h_bound == 2.0 * gaussian_lobe_kernel(2.0).component_bound
    assert vlasov_drift(constant_kernel((0.3, -0.4)), 2).h_bound == pytest.approx(0.5)  # |h|, not 0.4 sqrt(2)
    assert vlasov_drift(constant_kernel((0.3, -0.4)), 2).component_bound == 0.4
    assert vlasov_drift(CoupledLobeKernel(2.0), 3).component_bound is None
    z = np.linspace(-10, 10, 1001)
    assert np.max(np.abs(gaussian_lobe_kernel(2.0)(z))) <= 2.0 * math.exp(-0.5) + 1e-12
    assert np.max(np.abs(clipped_linear_kernel(5.0, 0.4)(z))) <= 0.4


@pytest.mark.parametrize("scale", [4.9e-162, -1.1648016382560584e-170, 3e-200, 5e-310])
def test_tiny_fields_keep_their_bounds(scale):
    # unscaled squares underflow here: |v| read 4.97e-162 against the tanh
    # kernel's bound 4.9e-162, and the constant kernel's bound read 0
    for kernel, k in ((tanh_kernel(scale), 1), (constant_kernel((scale,)), 1), (constant_kernel((scale, scale / 3)), 2)):
        v = vlasov_drift(kernel, k)
        assert v.h_bound > 0.0
    assert constant_drift([scale, scale]).h_bound == pytest.approx(abs(scale) * math.sqrt(2), rel=1e-15)
    assert rotational_drift(0.0, 2, offset=[scale, 0.0]).h_bound == abs(scale)


def test_h_norm_is_linalg_norm_in_range():
    from gfpk.drift import h_norm

    rng = np.random.default_rng(5)
    for shape in [(7,), (50, 3), (9, 1)]:
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100)
        axis = None if len(shape) == 1 else 1
        assert np.array_equal(h_norm(values, axis=axis), np.linalg.norm(values, axis=axis))
    assert h_norm(np.zeros((4, 2)), axis=1).tolist() == [0.0] * 4
    assert h_norm([3e200, 4e200]) == pytest.approx(5e200, rel=1e-15)
    assert constant_kernel((0.3, -0.4)).h_bound == math.sqrt(0.3 * 0.3 + 0.4 * 0.4)
