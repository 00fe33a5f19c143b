"""Drift fields b(p, x) = -x + v(p, x) with certified bounds.

A DriftField owns the measure-dependent part v only; callers add the
linear -x part.  Every field declares a bound, either on the Euclidean
(Cameron-Martin) norm |v|_H or componentwise (|v_n| <= C).  The bound is
validated at construction on Gaussian samples with the measure a unit point
mass at the origin, which reads a Vlasov kernel itself, v(delta_0, x) = b0(x):
by Jensen sup |b0|_H bounds |v(p, x)|_H for every probability p.  eval_v
re-checks the bound at every point it evaluates.

The measure argument of v is a PointMeasure (the weak-topology form, a
ChaosDensity read once on the solve grid by `as_measure`) or None for
fields that ignore it.

A SeparableField is built from one function v_i(measure, x_i) per
coordinate; every built-in kind except `rotational` builds one.

The registry at the end (DRIFTS, KERNELS) is the one description of the
drift and kernel kinds a config can name: their parameters and
constructors.  Everything else about a drift (its bound, whether it reads
the measure) is stated by the DriftField its constructor builds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import QuadratureGrid
from .density import ChaosDensity, PointMeasure, as_measure
from .errors import BoundViolationError
from .schema import Kind, Param, read_kind

BOUND_SLACK = 1e-9
VALIDATION_SAMPLES = 10_000

H_BOUND = "H"
COMPONENTWISE_BOUND = "componentwise"


def h_norm(values, axis=None) -> np.ndarray:
    """Euclidean norm of `values` along `axis` (all entries when None).

    The entries are scaled by a power of two before they are squared, so
    small vectors do not lose their norm to underflow (|v| = 4.9e-162 read
    as 4.97e-162 unscaled) and large ones do not overflow; in between the
    result is bitwise np.linalg.norm, since the scaling is exact.
    """
    values = np.asarray(values, dtype=float)
    top = np.max(np.abs(values), axis=axis, keepdims=True, initial=0.0)
    _, exponent = np.frexp(top)
    norm = np.linalg.norm(np.ldexp(values, -exponent), axis=axis)
    if axis is None:
        return np.ldexp(norm, int(exponent.flat[0]))
    return np.ldexp(norm, np.squeeze(exponent, axis=axis))


def _by_coordinate(component, k: int, z: np.ndarray) -> np.ndarray:
    """The (..., k) array whose i-th entry is component(i, z[..., i]): a
    function of each coordinate alone, tensorized over k coordinates."""
    out = np.empty(z.shape[:-1] + (k,))
    for i in range(k):
        out[..., i] = component(i, z[..., i])
    return out


# -- convolution kernels ---------------------------------------------------


class ComponentwiseKernel:
    """A kernel whose i-th output component depends on z_i only.

    Subclasses implement `component(i, z)` on a plain array of z_i values;
    `vlasov_drift` builds a SeparableField from an instance, convolved
    coordinate by coordinate against the 1-D marginals of the measure.  Any
    other kernel is convolved densely.
    """

    def component(self, i: int, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def h_bound_for(self, k: int) -> float:
        """Bound on |b0|_H in dimension k implied by the componentwise bound."""
        return self.component_bound * math.sqrt(k)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return _by_coordinate(self.component, z.shape[-1], z)


@dataclass(frozen=True)
class ConstantKernel(ComponentwiseKernel):
    """b0(z) = h, independent of z."""

    h: tuple[float, ...]

    @property
    def component_bound(self) -> float:
        return max(abs(c) for c in self.h)

    def h_bound_for(self, k: int) -> float:
        # scaled by a power of two before squaring, as in h_norm
        top = max(abs(c) for c in self.h)
        if top == 0.0:
            return 0.0
        _, exponent = math.frexp(top)
        return math.ldexp(math.sqrt(sum(math.ldexp(c, -exponent) ** 2 for c in self.h)), exponent)

    def component(self, i: int, z: np.ndarray) -> np.ndarray:
        return np.full(z.shape, float(self.h[i]))


@dataclass(frozen=True)
class TanhKernel(ComponentwiseKernel):
    """b0(z) = scale * tanh(z), componentwise; |b0_n| <= scale."""

    scale: float

    @property
    def component_bound(self) -> float:
        return abs(self.scale)

    def component(self, i: int, z: np.ndarray) -> np.ndarray:
        return self.scale * np.tanh(z)


@dataclass(frozen=True)
class GaussianLobeKernel(ComponentwiseKernel):
    """b0(z) = scale * z * exp(-z^2 / 2), componentwise; |b0_n| <= scale e^{-1/2}."""

    scale: float

    @property
    def component_bound(self) -> float:
        return abs(self.scale) * math.exp(-0.5)

    def component(self, i: int, z: np.ndarray) -> np.ndarray:
        return self.scale * z * np.exp(-0.5 * z * z)


@dataclass(frozen=True)
class ClippedLinearKernel(ComponentwiseKernel):
    """b0(z) = clip(scale * z, -cap, cap), componentwise."""

    scale: float
    cap: float

    @property
    def component_bound(self) -> float:
        return abs(self.cap)

    def component(self, i: int, z: np.ndarray) -> np.ndarray:
        return np.clip(self.scale * z, -self.cap, self.cap)


# -- drift field -----------------------------------------------------------


class DriftField:
    """Measure-dependent drift v with a declared, enforced bound.

    The evaluator maps (measure, x (m, k)) to (m, k), the measure being a
    PointMeasure or None.  kind is a label for messages.  bound_kind is
    H_BOUND (on |v|_H) or COMPONENTWISE_BOUND (on every |v_n|).
    reads_measure says whether v takes the measure as an argument: such a
    field is solved by the fixed point, any other by one linear solve.
    """

    def __init__(self, kind, k, evaluator, bound_kind, bound, reads_measure):
        if bound_kind not in (H_BOUND, COMPONENTWISE_BOUND):
            raise ValueError(f"bound kind must be {H_BOUND!r} or {COMPONENTWISE_BOUND!r}, got {bound_kind!r}")
        self.kind = kind
        self.k = k
        self._evaluator = evaluator
        self.bound_kind = bound_kind
        self.bound = float(bound)
        self.reads_measure = reads_measure
        self._validate_by_sampling()

    def _check_bound(self, values: np.ndarray):
        worst = float(np.max(np.abs(values), initial=0.0))
        if self.bound_kind == H_BOUND:  # one exact power-of-two scale; the largest row keeps its norm
            _, exponent = math.frexp(worst)
            scaled = np.ldexp(values, -exponent)
            worst = float(np.ldexp(np.sqrt(np.max(np.einsum("ij,ij->i", scaled, scaled), initial=0.0)), exponent))
        if not worst <= self.bound * (1.0 + BOUND_SLACK) + 1e-300:  # NaN fails too
            raise BoundViolationError(
                f"{self.kind} drift produced |v| = {worst:.6g} beyond its "
                f"declared {self.bound_kind} bound {self.bound:.6g}"
            )

    def _validate_by_sampling(self):
        """Check the bound at Gaussian samples against a unit point mass at the
        origin: a Vlasov field then reads b0 itself, which by Jensen bounds
        v(p, x) for every probability p; eval_v still re-checks every point."""
        points = np.random.default_rng(0).standard_normal((VALIDATION_SAMPLES, self.k))
        probe = PointMeasure(points=np.zeros((1, self.k)), masses=np.ones(1), clip_defect=0.0)
        self._check_bound(np.asarray(self._evaluator(probe, points)))

    def eval_v(self, measure: PointMeasure | None, x) -> np.ndarray:
        """v(measure, x) for x of shape (k,) or (m, k); bound-checked."""
        _check_measure(measure)
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        points = np.atleast_2d(x)
        if points.ndim != 2 or points.shape[1] != self.k:
            raise ValueError(f"a {self.k}-dimensional {self.kind} drift cannot read points of shape {x.shape}")
        values = np.asarray(self._evaluator(measure, points), dtype=float)
        self._check_bound(values)
        return values[0] if single else values

    @property
    def h_bound(self) -> float:
        """Bound on |v|_H implied by the declared bound (componentwise fields
        convert by sqrt(k))."""
        if self.bound_kind == H_BOUND:
            return self.bound
        return self.bound * math.sqrt(self.k)

    @property
    def c0(self) -> float:
        """Certified constant C0 = 2 pi ||v|_H||_inf driving the a-priori bounds."""
        return 2.0 * math.pi * self.h_bound

    @property
    def sigma_inf(self) -> float:
        """Tail-bound exponent (2 pi ||v|_H||_inf)^{-2}; inf for zero drift."""
        try:
            return self.c0**-2
        except (ZeroDivisionError, OverflowError):  # C0 = 0, or below about 1e-154
            return math.inf


def _check_measure(measure):
    if measure is not None and not isinstance(measure, PointMeasure):
        raise TypeError(
            f"a drift reads its measure as a PointMeasure or None, not a "
            f"{type(measure).__name__}; read a density with as_measure(p, grid)"
        )


class SeparableField(DriftField):
    """A drift whose i-th component reads x_i alone, besides the measure.

    It is built from one function axis(measure, i, z) -> v_i at the values z
    of x_i, so it cannot claim a separability it does not have.  Assembly
    reads it on the 1-D nodes of a product grid (eval_axes) instead of on
    all q^k nodes.
    """

    def __init__(self, kind, k, axis, bound_kind, bound, reads_measure):
        self.axis = axis
        super().__init__(kind, k, self._stacked, bound_kind, bound, reads_measure)

    def _stacked(self, measure, x):
        return _by_coordinate(lambda i, z: self.axis(measure, i, z), self.k, x)

    def eval_axes(self, measure: PointMeasure | None, x1: np.ndarray) -> np.ndarray:
        """(q, k) values v_i(x1_a) at the 1-D nodes x1 of every coordinate.

        The bound is checked on the row of maxima max_a |v_i(x1_a)|: for
        either bound kind that row is the worst point of the product grid
        of x1, so the check is that of eval_v on all q^k nodes.
        """
        _check_measure(measure)
        values = self._stacked(measure, np.broadcast_to(x1[:, None], (x1.size, self.k)))
        self._check_bound(np.max(np.abs(values), axis=0, keepdims=True))
        return values


def constant_drift(h) -> DriftField:
    """v = h, a fixed Cameron-Martin vector; ignores the measure and the point."""
    h = np.asarray(h, dtype=float).reshape(-1)
    return SeparableField(
        "constant", h.size, lambda measure, i, z: np.full(z.shape, h[i]), H_BOUND, float(h_norm(h)),
        reads_measure=False,
    )


def clipped_potential_drift(lam: float, k: int, width: float = 2.0) -> DriftField:
    """Built-in bounded gradient field v_i = lam * tanh(x_i / width).

    This is grad W for W(x) = lam * width * sum_i log cosh(x_i / width); the
    1-D stationary density has the closed form
    exp(-x^2/2) cosh(x / width)^(lam * width) / Z.  The saturation width
    controls smoothness: the nearest complex singularities sit at
    +-i pi width / 2, so larger widths give much faster chaos-coefficient
    decay at the same gradient bound |v_i| <= |lam|.
    """
    if width <= 0:
        raise ValueError("saturation width must be positive")
    return SeparableField(
        "gradient", k, lambda measure, i, z: lam * np.tanh(z / width), H_BOUND, abs(lam) * math.sqrt(k),
        reads_measure=False,
    )


# entries of the largest kernel matrix built at once by either convolution
CHUNK_ENTRIES = 2_000_000


def vlasov_eval(kernel, p, x, grid: QuadratureGrid | None) -> np.ndarray:
    """Convolution v(p, x) = integral b0(x - y) p(y) gamma(dy) by quadrature.

    p is a PointMeasure, or a ChaosDensity read on grid through as_measure
    (which clips negative node values and records the removed mass in the
    measure's clip_defect); the Vlasov drift passes a PointMeasure and no
    grid.  Componentwise kernels are convolved against the 1-D marginals of
    the measure (`marginal_convolution`), all other kernels over every pair
    of points (`vlasov_dense`); the two agree up to the order of
    floating-point additions.
    """
    if isinstance(p, ChaosDensity):
        if grid is None:
            raise TypeError("a quadrature grid is required to read a ChaosDensity as a measure")
        p = as_measure(p, grid)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(kernel, ComponentwiseKernel):
        return _by_coordinate(lambda i, z: marginal_convolution(kernel, p, i, z), x.shape[1], x)
    return vlasov_dense(kernel, p, x)


def vlasov_dense(kernel, measure: PointMeasure, x: np.ndarray) -> np.ndarray:
    """Sum of masses_j * b0(x - y_j) over every (x, y_j) pair: O(m M k)."""
    out = np.zeros_like(x)
    # chunk over evaluation points to bound the (m, M, k) intermediate
    chunk = max(1, int(CHUNK_ENTRIES / max(1, measure.points.shape[0] * x.shape[1])))
    for start in range(0, x.shape[0], chunk):
        xs = x[start : start + chunk]
        diffs = xs[:, None, :] - measure.points[None, :, :]
        out[start : start + chunk] = np.einsum(
            "j,ijd->id", measure.masses, kernel(diffs)
        )
    return out


def marginal_convolution(kernel, measure: PointMeasure, i: int, z: np.ndarray) -> np.ndarray:
    """v_i(z) = sum_j masses_j b0_i(z - y_ji) at the values z of x_i, for a
    componentwise kernel.

    v_i only sees the i-th marginal of the measure, so the masses are summed
    over points sharing a value of y_i and the 1-D kernel is evaluated once
    per distinct (z, y_i) pair.  On a Q^k tensor grid this is O(Q^2) instead
    of O(Q^{2k}).
    """
    ys, owner = np.unique(measure.points[:, i], return_inverse=True)
    weights = np.bincount(owner, weights=measure.masses, minlength=ys.size)
    xs, target = np.unique(z, return_inverse=True)
    values = np.empty(xs.size)
    chunk = max(1, CHUNK_ENTRIES // max(1, ys.size))
    for start in range(0, xs.size, chunk):
        diffs = xs[start : start + chunk, None] - ys[None, :]
        values[start : start + chunk] = kernel.component(i, diffs) @ weights
    return values[target]


def vlasov_drift(kernel, k: int) -> DriftField:
    """Drift obtained by convolving a bounded kernel with the solution measure.

    The kernel maps an array of differences z (..., k) to b0(z) (..., k).  A
    ComponentwiseKernel, whose `component(i, z)` is the i-th component of b0
    as a function of z_i alone (every built-in kernel: constant, tanh,
    gaussian-lobe, clipped-linear), gives a SeparableField convolved against
    the 1-D marginals of the measure; any other kernel, such as a general
    H-valued b0, is convolved over all pairs of points.

    Every kernel answers h_bound_for(k), its bound on |b0|_H in dimension k.
    The measure argument is a PointMeasure; None is a TypeError.
    """

    def required(measure):
        if measure is None:
            raise TypeError("vlasov drift requires a measure argument")
        return measure

    bound = kernel.h_bound_for(k)
    if isinstance(kernel, ComponentwiseKernel):
        return SeparableField(
            "vlasov", k, lambda measure, i, z: marginal_convolution(kernel, required(measure), i, z), H_BOUND,
            bound, reads_measure=True,
        )
    return DriftField(
        "vlasov", k, lambda measure, x: vlasov_eval(kernel, required(measure), x, None), H_BOUND, bound,
        reads_measure=True,
    )


def rotational_drift(scale: float, k: int = 2, offset=None) -> DriftField:
    """Bounded non-gradient field v(x) = scale * R x / (1 + |x|^2) + offset,
    with R the quarter rotation (-x_2, x_1, -x_4, x_3, ...).

    The pure rotation leaves the Gaussian reference invariant; a nonzero
    offset makes the stationary density genuinely non-trivial.
    |v|_H <= scale / 2 + |offset|.
    """
    if k % 2 != 0:
        raise ValueError("rotational drift needs an even dimension")
    shift = np.zeros(k) if offset is None else np.asarray(offset, dtype=float)

    def evaluator(measure, x):
        rotated = np.empty_like(x)
        rotated[:, 0::2] = -x[:, 1::2]
        rotated[:, 1::2] = x[:, 0::2]
        return scale * rotated / (1.0 + np.sum(x * x, axis=1))[:, None] + shift

    bound = abs(scale) / 2.0 + float(h_norm(shift))
    return DriftField("rotational", k, evaluator, H_BOUND, bound, reads_measure=False)


def custom_drift(fn, k, bound_kind, bound, *, reads_measure: bool) -> DriftField:
    """Register a user evaluator (measure, x) -> (m, k) under a declared
    bound (bound_kind "H" or "componentwise"); the measure is a PointMeasure
    or None, and `reads_measure` states whether fn reads it (a field that
    does not is solved by one linear solve).

    Sampling validation at registration is mandatory; a violating field never
    gets constructed.
    """
    return DriftField("custom", k, fn, bound_kind, bound, reads_measure=reads_measure)


# -- registry of config kinds ----------------------------------------------


def _kernel(cls, *params) -> Kind:
    return Kind(params, lambda q, k: cls(**q))


_SCALE = Param("scale", "number", -100.0, 100.0)
KERNELS = {
    "constant": _kernel(ConstantKernel, Param("h", "vector", -100.0, 100.0)),
    "tanh": _kernel(TanhKernel, _SCALE),
    "gaussian-lobe": _kernel(GaussianLobeKernel, _SCALE),
    "clipped-linear": _kernel(ClippedLinearKernel, _SCALE, Param("cap", "number", -100.0, 100.0)),
}


def _tanh_axis(q):
    """v_i = scale * tanh(x_i - shift_i), where shift_i is the measure's i-th
    coordinate mean when mean_shift is set (a genuinely measure-dependent
    family), else 0."""
    scale, mean_shift = q["scale"], q["mean_shift"]

    def axis(measure, i, z):
        shift = measure.mean()[i] if mean_shift and measure is not None else 0.0
        return scale * np.tanh(z - shift)

    return axis


def _decoupled_tanh_axis(q):
    """v_0 = scale * tanh(x_0) and every other component 0: the solution
    factorizes and every marginal beyond the first is Gaussian."""
    scale = q["scale"]
    return lambda measure, i, z: scale * np.tanh(z) if i == 0 else np.zeros(z.shape)


def _componentwise(axis, *params) -> Kind:
    """A separable kind bounded by |v_i| <= |scale|, whose v_i = axis(q)(measure,
    i, x_i); it counts as reading the measure, and n_components only bounds k."""
    return Kind(
        (_SCALE, Param("n_components", "integer", 1, 64)) + params,
        lambda q, k: SeparableField("componentwise", k, axis(q), COMPONENTWISE_BOUND, abs(q["scale"]),
                                    reads_measure=True),
        dims=lambda q, k: "" if k <= q["n_components"] else f"has fewer n_components than k={k}",
    )


DRIFTS = {
    "constant": Kind((Param("h", "vector", -100.0, 100.0),), lambda q, k: constant_drift(**q)),
    "clipped-potential": Kind(
        (Param("lam", "number", -10.0, 10.0), Param("width", "number", 1e-3, 100.0, 2.0)),
        lambda q, k: clipped_potential_drift(k=k, **q),
    ),
    "rotational": Kind(
        (Param("scale", "number", -10.0, 10.0), Param("offset", "vector", -10.0, 10.0, None)),
        lambda q, k: rotational_drift(k=k, **q),
        dims=lambda q, k: "" if k % 2 == 0 else f"needs an even dimension, got k={k}",
    ),
    "vlasov": Kind((Param("kernel", KERNELS),), lambda q, k: vlasov_drift(q["kernel"], k)),
    "componentwise-tanh": _componentwise(_tanh_axis, Param("mean_shift", "bool", default=False)),
    "componentwise-decoupled-tanh": _componentwise(_decoupled_tanh_axis),
}


def drift_from_block(block, k: int) -> DriftField:
    """The k-dimensional drift a config block describes; a ConfigError for
    any block or k the registry rejects."""
    entry, params = read_kind(block, DRIFTS, "drift", k)
    return entry.build(params, k)
