"""Drift fields b(p, x) = -x + v(p, x) with certified bounds.

A DriftField owns the measure-dependent part v only; the linear -x part is
added by `eval_b`.  Every field declares a bound, either on the Euclidean
(Cameron-Martin) norm |v|_H or componentwise (|v_n| <= C), and the bound is
validated by sampling at registration and re-checked at every evaluation.

The measure argument of v may be a ChaosDensity (read through its chaos
coefficients / quadrature measure) or a PointMeasure (the weak-topology
form used by componentwise fields).  Fields that ignore the measure accept
None.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .basis import QuadratureGrid
from .density import ChaosDensity, PointMeasure, as_measure
from .errors import BoundViolationError

BOUND_SLACK = 1e-9
VALIDATION_SAMPLES = 10_000

H_BOUND = "H"
COMPONENTWISE_BOUND = "componentwise"


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

    @property
    def h_bound(self) -> float:
        return math.sqrt(sum(c * c for c in self.h))

    def component(self, i: int, z: np.ndarray) -> np.ndarray:
        return np.full(z.shape, float(self.h[i]))


@dataclass(frozen=True)
class TanhKernel(ComponentwiseKernel):
    """b0(z) = scale * tanh(z), componentwise; |b0_n| <= scale."""

    scale: float

    @property
    def component_bound(self) -> float:
        return abs(self.scale)

    def h_bound_for(self, k: int) -> float:
        return abs(self.scale) * math.sqrt(k)

    def component(self, i: int, z: np.ndarray) -> np.ndarray:
        return self.scale * np.tanh(z)


@dataclass(frozen=True)
class GaussianLobeKernel(ComponentwiseKernel):
    """b0(z) = scale * z * exp(-z^2 / 2), componentwise; |b0_n| <= scale e^{-1/2}."""

    scale: float

    @property
    def component_bound(self) -> float:
        return abs(self.scale) * math.exp(-0.5)

    def h_bound_for(self, k: int) -> float:
        return self.component_bound * math.sqrt(k)

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

    def h_bound_for(self, k: int) -> float:
        return abs(self.cap) * math.sqrt(k)

    def component(self, i: int, z: np.ndarray) -> np.ndarray:
        return np.clip(self.scale * z, -self.cap, self.cap)


# -- drift field -----------------------------------------------------------


class DriftField:
    """Measure-dependent drift v with a declared, enforced bound."""

    def __init__(self, kind, k, evaluator, bound_kind, bound, validate=True, seed=0):
        self.kind = kind
        self.k = k
        self._evaluator = evaluator
        self.bound_kind = bound_kind
        self.bound = float(bound)
        if validate:
            self._validate_by_sampling(seed)

    # evaluator signature: (p, x (m, k), grid or None) -> (m, k)

    def _check_bound(self, values: np.ndarray):
        if self.bound_kind == H_BOUND:
            worst = float(np.max(np.linalg.norm(values, axis=1), initial=0.0))
        else:
            worst = float(np.max(np.abs(values), initial=0.0))
        if worst > self.bound * (1.0 + BOUND_SLACK) + 1e-300:
            raise BoundViolationError(
                f"{self.kind} drift produced |v| = {worst:.6g} beyond its "
                f"declared {self.bound_kind} bound {self.bound:.6g}"
            )

    def _validate_by_sampling(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((VALIDATION_SAMPLES, self.k))
        # probe with no measure and with the Gaussian reference as a point cloud
        probes = [None]
        cloud = rng.standard_normal((64, self.k))
        probes.append(
            PointMeasure(points=cloud, masses=np.full(64, 1.0 / 64), clip_defect=0.0)
        )
        for p in probes:
            try:
                values = self._evaluator(p, points, None)
            except (TypeError, AttributeError):
                continue  # evaluator requires a measure kind this probe is not
            self._check_bound(np.asarray(values))

    def eval_v(self, p, x, grid: QuadratureGrid | None = None) -> np.ndarray:
        """v(p, x) for x of shape (k,) or (m, k); bound-checked."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        values = np.asarray(self._evaluator(p, np.atleast_2d(x), grid), dtype=float)
        self._check_bound(values)
        return values[0] if single else values

    def eval_b(self, p, x, grid: QuadratureGrid | None = None) -> np.ndarray:
        """Full drift b(p, x) = -x + v(p, x)."""
        x = np.asarray(x, dtype=float)
        return self.eval_v(p, x, grid) - x

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


def _as_point_measure(p, grid):
    if p is None or isinstance(p, PointMeasure):
        return p
    if isinstance(p, ChaosDensity):
        if grid is None:
            raise TypeError("a quadrature grid is required to read a ChaosDensity as a measure")
        return as_measure(p, grid)
    raise TypeError(f"unsupported measure argument of type {type(p).__name__}")


def constant_drift(h) -> DriftField:
    """v = h, a fixed Cameron-Martin vector; ignores the measure and the point."""
    h = np.asarray(h, dtype=float).reshape(-1)

    def evaluator(p, x, grid):
        return np.broadcast_to(h, x.shape).copy()

    return DriftField(
        "constant", h.size, evaluator, H_BOUND, float(np.linalg.norm(h))
    )


def gradient_drift(grad_fn, k, bound, potential=None) -> DriftField:
    """v = grad W for a scalar potential with bounded gradient.

    grad_fn maps (m, k) points to (m, k) gradients; the optional potential
    callable is kept for oracles that want the closed-form solution.
    """

    def evaluator(p, x, grid):
        return np.asarray(grad_fn(x), dtype=float)

    field = DriftField("gradient", k, evaluator, H_BOUND, bound)
    field.potential = potential
    return field


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

    def potential(x):
        x = np.atleast_2d(x)
        return lam * width * np.sum(np.log(np.cosh(x / width)), axis=1)

    return gradient_drift(grad_fn, k, abs(lam) * math.sqrt(k), potential=potential)


# entries of the largest kernel matrix built at once by either convolution
CHUNK_ENTRIES = 2_000_000


def vlasov_eval(kernel, p, x, grid: QuadratureGrid) -> np.ndarray:
    """Convolution v(p, x) = integral b0(x - y) p(y) gamma(dy) by quadrature.

    p may be a ChaosDensity (read on the grid through as_measure, which
    clips negative node values and records the removed mass in the
    measure's clip_defect) or a PointMeasure.  Componentwise kernels are
    convolved against the 1-D marginals of the measure (`vlasov_marginal`),
    all other kernels over every pair of points (`vlasov_dense`).
    """
    measure = _as_point_measure(p, grid)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if getattr(kernel, "componentwise", False):
        return vlasov_marginal(kernel, measure, x)
    return vlasov_dense(kernel, measure, x)


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
    equals the dense sum up to the order of floating-point additions.
    """
    out = np.empty_like(x)
    for i in range(x.shape[1]):
        ys, owner = np.unique(measure.points[:, i], return_inverse=True)
        weights = np.bincount(owner, weights=measure.masses, minlength=ys.size)
        xs, target = np.unique(x[:, i], return_inverse=True)
        values = np.empty(xs.size)
        chunk = max(1, CHUNK_ENTRIES // max(1, ys.size))
        for start in range(0, xs.size, chunk):
            diffs = xs[start : start + chunk, None] - ys[None, :]
            values[start : start + chunk] = kernel.component(i, diffs) @ weights
        out[:, i] = values[target]
    return out


def vlasov_drift(kernel, k: int, grid: QuadratureGrid) -> DriftField:
    """Drift obtained by convolving a bounded kernel with the solution measure.

    The kernel maps an array of differences z (..., k) to b0(z) (..., k).  A
    kernel that sets `componentwise = True` and provides `component(i, z)`,
    the i-th component of b0 as a function of z_i alone (every built-in
    kernel: constant, tanh, gaussian-lobe, clipped-linear; see
    ComponentwiseKernel), is convolved against the 1-D marginals of the
    measure; any other kernel, such as a general H-valued b0, is convolved
    over all pairs of points.

    The grid supplied here is the default rule used to read a ChaosDensity
    measure argument; explicit grids passed at evaluation time win.
    """
    if hasattr(kernel, "h_bound"):
        bound = kernel.h_bound
    else:
        bound = kernel.h_bound_for(k)

    def evaluator(p, x, grid_arg):
        if p is None:
            raise TypeError("vlasov drift requires a measure argument")
        return vlasov_eval(kernel, p, x, grid_arg if grid_arg is not None else grid)

    field = DriftField("vlasov", k, evaluator, H_BOUND, bound)
    field.kernel = kernel
    return field


def componentwise_drift(components, k: int | None = None, bound: float = 0.0) -> DriftField:
    """Drift with uniformly bounded components v_n(measure, x), n < len(components).

    Each component maps (PointMeasure-or-None, points (m, a)) to (m,) values,
    where a = len(components) is the ambient dimension; active points are
    zero-padded into the ambient space.  Bound is per component.
    """
    ambient = len(components)
    k = ambient if k is None else k
    if k > ambient:
        raise ValueError(f"requested dimension {k} exceeds available components {ambient}")

    def evaluator(p, x, grid):
        measure = _as_point_measure(p, grid)
        padded = np.zeros((x.shape[0], ambient))
        padded[:, : x.shape[1]] = x
        out = np.empty((x.shape[0], k))
        for i in range(k):
            out[:, i] = np.asarray(components[i](measure, padded), dtype=float)
        return out

    field = DriftField("componentwise", k, evaluator, COMPONENTWISE_BOUND, bound)
    field.components = tuple(components)
    return field


def truncate_to_k(v: DriftField, k: int) -> DriftField:
    """Restriction of a componentwise (or constant) field to its first k
    coordinates, with points read through the zero-padding embedding."""
    if v.kind == "componentwise":
        if k > len(v.components):
            raise ValueError(
                f"cannot truncate to {k} dimensions: only {len(v.components)} components"
            )
        return componentwise_drift(v.components, k=k, bound=v.bound)
    if v.kind == "constant":
        h = v.eval_v(None, np.zeros(v.k))[:k]
        return constant_drift(h)
    raise ValueError(f"truncate_to_k is not defined for drift kind {v.kind!r}")


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

    def evaluator(p, x, grid):
        rotated = np.empty_like(x)
        rotated[:, 0::2] = -x[:, 1::2]
        rotated[:, 1::2] = x[:, 0::2]
        return scale * rotated / (1.0 + np.sum(x * x, axis=1))[:, None] + shift

    bound = abs(scale) / 2.0 + float(np.linalg.norm(shift))
    return DriftField("custom", k, evaluator, H_BOUND, bound)


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


def custom_drift(fn, k, bound_kind, bound, seed=0) -> DriftField:
    """Register a user evaluator (p, x, grid) -> (m, k) under a declared bound.

    Sampling validation at registration is mandatory; a violating field never
    gets constructed.
    """
    return DriftField("custom", k, fn, bound_kind, bound, validate=True, seed=seed)
