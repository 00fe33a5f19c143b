"""Drift fields b(p, x) = -x + v(p, x) with certified bounds.

A DriftField owns the measure-dependent part v only; callers add the
linear -x part.  Every field declares a bound, either on the Euclidean
(Cameron-Martin) norm |v|_H or componentwise (|v_n| <= C), and the bound is
validated by sampling at registration and re-checked at every evaluation.

The measure argument of v is a PointMeasure (the weak-topology form, a
ChaosDensity read once on the solve grid by `as_measure`) or None for
fields that ignore it.

The registry at the end (DRIFTS, KERNELS) is the one description of the
drift and kernel kinds a config can name: their parameters, constructors
and whether the drift reads the measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

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


# -- convolution kernels ---------------------------------------------------


class ComponentwiseKernel:
    """A kernel whose i-th output component depends on z_i only.

    Subclasses implement `component(i, z)` on a plain array of z_i values;
    `componentwise = True` is the declaration `vlasov_eval` relies on to
    convolve coordinate by coordinate against the 1-D marginals of the
    measure.  A kernel without the declaration is convolved densely.
    """

    componentwise: ClassVar[bool] = True

    def component(self, i: int, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def h_bound_for(self, k: int) -> float:
        """Bound on |b0|_H in dimension k implied by the componentwise bound."""
        return self.component_bound * math.sqrt(k)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        out = np.empty(z.shape)
        for i in range(z.shape[-1]):
            out[..., i] = self.component(i, z[..., i])
        return out


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
    PointMeasure or None.  kind is a label for messages.  restrict, when
    given, maps j to the field restricted to the first j coordinates (see
    truncate_to_k).
    """

    def __init__(self, kind, k, evaluator, bound_kind, bound, restrict=None):
        self.kind = kind
        self.k = k
        self._evaluator = evaluator
        self.bound_kind = bound_kind
        self.bound = float(bound)
        self.restrict = restrict
        self._validate_by_sampling()

    def _check_bound(self, values: np.ndarray):
        if self.bound_kind == H_BOUND:
            worst = float(np.max(h_norm(values, axis=1), initial=0.0))
        else:
            worst = float(np.max(np.abs(values), initial=0.0))
        if worst > self.bound * (1.0 + BOUND_SLACK) + 1e-300:
            raise BoundViolationError(
                f"{self.kind} drift produced |v| = {worst:.6g} beyond its "
                f"declared {self.bound_kind} bound {self.bound:.6g}"
            )

    def _validate_by_sampling(self):
        """Check the bound at Gaussian samples, the measure argument being
        the Gaussian reference as a point cloud."""
        rng = np.random.default_rng(0)
        points = rng.standard_normal((VALIDATION_SAMPLES, self.k))
        cloud = rng.standard_normal((64, self.k))
        probe = PointMeasure(points=cloud, masses=np.full(64, 1.0 / 64), clip_defect=0.0)
        self._check_bound(np.asarray(self._evaluator(probe, points)))

    def eval_v(self, measure: PointMeasure | None, x) -> np.ndarray:
        """v(measure, x) for x of shape (k,) or (m, k); bound-checked."""
        if measure is not None and not isinstance(measure, PointMeasure):
            raise TypeError(
                f"a drift reads its measure as a PointMeasure or None, not a "
                f"{type(measure).__name__}; read a density with as_measure(p, grid)"
            )
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        values = np.asarray(self._evaluator(measure, np.atleast_2d(x)), dtype=float)
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
        return math.inf if self.c0 == 0.0 else self.c0**-2


def constant_drift(h) -> DriftField:
    """v = h, a fixed Cameron-Martin vector; ignores the measure and the point."""
    h = np.asarray(h, dtype=float).reshape(-1)

    def evaluator(measure, x):
        return np.broadcast_to(h, x.shape).copy()

    return DriftField(
        "constant", h.size, evaluator, H_BOUND, float(h_norm(h)),
        restrict=lambda j: constant_drift(h[:j]),
    )


def gradient_drift(grad_fn, k, bound) -> DriftField:
    """v = grad W for a scalar potential W with bounded gradient; grad_fn
    maps (m, k) points to (m, k) gradients.  The solution is exp(W) / Z."""

    def evaluator(measure, x):
        return np.asarray(grad_fn(x), dtype=float)

    return DriftField("gradient", k, evaluator, H_BOUND, bound)


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

    def grad_fn(x):
        return lam * np.tanh(x / width)

    return gradient_drift(grad_fn, k, abs(lam) * math.sqrt(k))


# entries of the largest kernel matrix built at once by either convolution
CHUNK_ENTRIES = 2_000_000


def vlasov_eval(kernel, p, x, grid: QuadratureGrid | None) -> np.ndarray:
    """Convolution v(p, x) = integral b0(x - y) p(y) gamma(dy) by quadrature.

    p is a PointMeasure, or a ChaosDensity read on grid through as_measure
    (which clips negative node values and records the removed mass in the
    measure's clip_defect); the Vlasov drift passes a PointMeasure and no
    grid.  Componentwise kernels are convolved against the 1-D marginals of
    the measure (`vlasov_marginal`), all other kernels over every pair of
    points (`vlasov_dense`).
    """
    if isinstance(p, ChaosDensity):
        if grid is None:
            raise TypeError("a quadrature grid is required to read a ChaosDensity as a measure")
        p = as_measure(p, grid)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if getattr(kernel, "componentwise", False):
        return vlasov_marginal(kernel, p, x)
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


def vlasov_marginal(kernel, measure: PointMeasure, x: np.ndarray) -> np.ndarray:
    """The dense sum regrouped by coordinate, for a componentwise kernel.

    v_i(x) = sum_j masses_j b0_i(x_i - y_ji) only sees the i-th marginal of
    the measure, so the masses are summed over points sharing a value of
    y_i and the 1-D kernel is evaluated once per distinct (x_i, y_i) pair.
    On a Q^k tensor grid this is O(k Q^2) instead of O(k Q^{2k}); the result
    equals the dense sum up to the order of floating-point additions.  When
    x is the measure's own point set (as in assembly), its distinct values
    are those of y and are not sorted again.
    """
    out = np.empty_like(x)
    own_points = x is measure.points
    for i in range(x.shape[1]):
        ys, owner = np.unique(measure.points[:, i], return_inverse=True)
        weights = np.bincount(owner, weights=measure.masses, minlength=ys.size)
        xs, target = (ys, owner) if own_points else np.unique(x[:, i], return_inverse=True)
        values = np.empty(xs.size)
        chunk = max(1, CHUNK_ENTRIES // max(1, ys.size))
        for start in range(0, xs.size, chunk):
            diffs = xs[start : start + chunk, None] - ys[None, :]
            values[start : start + chunk] = kernel.component(i, diffs) @ weights
        out[:, i] = values[target]
    return out


def vlasov_drift(kernel, k: int) -> DriftField:
    """Drift obtained by convolving a bounded kernel with the solution measure.

    The kernel maps an array of differences z (..., k) to b0(z) (..., k).  A
    kernel that sets `componentwise = True` and provides `component(i, z)`,
    the i-th component of b0 as a function of z_i alone (every built-in
    kernel: constant, tanh, gaussian-lobe, clipped-linear; see
    ComponentwiseKernel), is convolved against the 1-D marginals of the
    measure; any other kernel, such as a general H-valued b0, is convolved
    over all pairs of points.

    Every kernel answers h_bound_for(k), its bound on |b0|_H in dimension k.
    The measure argument is a PointMeasure; None is a TypeError.
    """

    def evaluator(measure, x):
        if measure is None:
            raise TypeError("vlasov drift requires a measure argument")
        return vlasov_eval(kernel, measure, x, None)

    return DriftField("vlasov", k, evaluator, H_BOUND, kernel.h_bound_for(k))


def componentwise_drift(components, k: int | None = None, bound: float = 0.0) -> DriftField:
    """Drift with uniformly bounded components v_n(measure, x), n < len(components).

    Each component maps (PointMeasure-or-None, points (m, a)) to (m,) values,
    where a = len(components) is the ambient dimension; active points are
    zero-padded into the ambient space.  Bound is per component.
    """
    ambient = len(components)
    k = ambient if k is None else k
    if k > ambient:
        raise ValueError(f"cannot truncate to {k} dimensions: only {ambient} components")

    def evaluator(measure, x):
        padded = x
        if x.shape[1] < ambient:
            padded = np.zeros((x.shape[0], ambient))
            padded[:, : x.shape[1]] = x
        out = np.empty((x.shape[0], k))
        for i in range(k):
            out[:, i] = np.asarray(components[i](measure, padded), dtype=float)
        return out

    return DriftField(
        "componentwise", k, evaluator, COMPONENTWISE_BOUND, bound,
        restrict=lambda j: componentwise_drift(components, k=j, bound=bound),
    )


def truncate_to_k(v: DriftField, k: int) -> DriftField:
    """Restriction of a componentwise (or constant) field to its first k
    coordinates, with points read through the zero-padding embedding."""
    if v.restrict is None:
        raise ValueError(f"truncate_to_k is not defined for a {v.kind} drift")
    return v.restrict(k)


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
    return DriftField("rotational", k, evaluator, H_BOUND, bound)


def tanh_components(scale: float, n_components: int, mean_shift: bool = False):
    """Component functions v_n(measure, x) = scale * tanh(x_n - shift_n),
    where shift_n is the measure's n-th coordinate mean when mean_shift is
    set (a genuinely measure-dependent family); bound |v_n| <= scale."""
    components = []
    for n in range(n_components):

        def component(measure, x, n=n):
            shift = 0.0
            if mean_shift and measure is not None:
                mean = measure.mean()
                if n < mean.shape[0]:
                    shift = mean[n]
            return scale * np.tanh(x[:, n] - shift)

        components.append(component)
    return components


def decoupled_tanh_components(scale: float, n_components: int):
    """First component scale * tanh(x_1), all others identically zero; the
    solution then factorizes and every marginal beyond the first is Gaussian."""

    def first(measure, x):
        return scale * np.tanh(x[:, 0])

    def zero(measure, x):
        return np.zeros(x.shape[0])

    return [first] + [zero] * (n_components - 1)


def custom_drift(fn, k, bound_kind, bound) -> DriftField:
    """Register a user evaluator (measure, x) -> (m, k) under a declared
    bound; the measure is a PointMeasure or None.

    Sampling validation at registration is mandatory; a violating field never
    gets constructed.
    """
    return DriftField("custom", k, fn, bound_kind, bound)


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


def _componentwise(components, *params) -> Kind:
    """The componentwise fields take the measure as an argument, so they
    count as reading it; only mean_shift makes tanh components use it."""
    return Kind(
        (_SCALE, Param("n_components", "integer", 1, 64)) + params,
        lambda q, k: componentwise_drift(components(**q), k, abs(q["scale"])),
        reads_measure=True,
        bound=COMPONENTWISE_BOUND,
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
    "vlasov": Kind(
        (Param("kernel", KERNELS),),
        lambda q, k: vlasov_drift(q["kernel"], k),
        reads_measure=True,
    ),
    "componentwise-tanh": _componentwise(tanh_components, Param("mean_shift", "bool", default=False)),
    "componentwise-decoupled-tanh": _componentwise(decoupled_tanh_components),
}


def drift_from_block(block, k: int) -> tuple[DriftField, bool]:
    """The k-dimensional drift a config block describes and whether it reads
    the measure; a ConfigError for any block or k the registry rejects."""
    entry, params = read_kind(block, DRIFTS, "drift", k)
    return entry.build(params, k), entry.reads_measure
