"""Drift fields b(p, x) = -x + v(p, x) with certified bounds.

A DriftField owns the measure-dependent part v only; callers add the
linear -x part.  Every field declares its bounds as numbers: h_bound on the
Euclidean (Cameron-Martin) norm |v|_H, and component_bound on every |v_n|
where it has one.  The bounds are validated at construction on Gaussian
samples with the measure a unit point mass at the origin, which reads a
Vlasov kernel itself, v(delta_0, x) = b0(x): by Jensen sup |b0| bounds
|v(p, x)| for every probability p.  eval_v re-checks them at every point it
evaluates.

`v.read_measure(p, grid)` is the one place a ChaosDensity p becomes the
measure v reads, in weak-topology form: None for a field whose value does
not depend on it (reads_measure false), else a PointMeasure on every grid
node, or for a SeparableField a MarginalMeasure, its k marginals on the
grid's 1-D rules.

A SeparableField is built from one function v_i(measure, x_i) per
coordinate; every built-in kind except `rotational` builds one.

The registry at the end (DRIFTS, KERNELS) is the one description of the
drift and kernel kinds a config can name: their parameters and
constructors.  Everything else about a drift (its bounds, whether it reads
the measure) is stated by the DriftField its constructor builds.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .basis import QuadratureGrid, _read_only
from .density import ChaosDensity, MarginalMeasure, PointMeasure, as_measure, marginal_measure
from .errors import BoundViolationError
from .schema import Kind, Param, read_kind

BOUND_SLACK = 1e-9
VALIDATION_SAMPLES = 10_000


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


@functools.lru_cache(maxsize=16)
def validation_samples(k: int) -> np.ndarray:
    """The read-only (VALIDATION_SAMPLES, k) Gaussian design every
    k-dimensional field is validated on, built once per k.

    Row j holds d = 2 ceil(k/2) uniforms u = frac(1/2 + j alpha), j >= 1, of
    the R_d sequence: alpha_i = phi^-i with phi > 1 the root of
    x^(d+1) = x + 1.  Each pair (u_2i-1, u_2i) becomes two normals by
    Box-Muller, sqrt(-2 ln u_2i-1) (cos, sin)(2 pi u_2i); the first k are kept.
    Deterministic and numpy-only, so a run loads no random generator.
    """
    d = 2 * ((k + 1) // 2)
    phi = 2.0
    for _ in range(64):  # the fixed point of x -> (1 + x)^(1/(d+1)), a contraction
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = phi ** -np.arange(1.0, d + 1)
    u = (0.5 + np.arange(1.0, VALIDATION_SAMPLES + 1)[:, None] * alpha) % 1.0
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    z = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=2).reshape(VALIDATION_SAMPLES, d)
    return _read_only(np.ascontiguousarray(z[:, :k]))


def _by_coordinate(component, k: int, z: np.ndarray) -> np.ndarray:
    """The (..., k) array whose i-th entry is component(i, z[..., i]): a
    function of each coordinate alone, tensorized over k coordinates."""
    out = np.empty(z.shape[:-1] + (k,))
    for i in range(k):
        out[..., i] = component(i, z[..., i])
    return out


def _largest_rows(values: np.ndarray) -> np.ndarray:
    """The rows of values (m, k) among which the largest norm lies: those whose
    plain sum of squares is within rounding of the largest, or every row where
    a square may have under- or overflowed (or is NaN).  The bound check
    takes h_norm of these rows only."""
    squares = np.einsum("ij,ij->i", values, values)
    top = np.max(squares, initial=0.0)
    if not 2.0**-1000 <= top < math.inf:
        return values
    return values[squares >= top * (1.0 - 1e-12)]


# -- convolution kernels ---------------------------------------------------


@dataclass(frozen=True)
class ComponentwiseKernel:
    """A kernel whose i-th output component depends on z_i only: b0(z)_i =
    component(i, z_i), read on a plain array of z_i values, and bounded by
    component_bound; h_bound, where set, bounds |b0|_H in every dimension
    (else the drift takes component_bound * sqrt(k)).

    `vlasov_drift` builds a SeparableField from an instance, convolved
    coordinate by coordinate against the 1-D marginals of the measure.
    """

    component: Callable[[int, np.ndarray], np.ndarray]
    component_bound: float
    h_bound: float | None = None

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return _by_coordinate(self.component, z.shape[-1], z)


def constant_kernel(h) -> ComponentwiseKernel:
    """b0(z) = h, independent of z; |b0|_H = |h|."""
    return ComponentwiseKernel(lambda i, z: np.full(z.shape, float(h[i])), max(abs(c) for c in h), float(h_norm(h)))


def tanh_kernel(scale: float) -> ComponentwiseKernel:
    """b0(z) = scale * tanh(z), componentwise; |b0_n| <= scale."""
    return ComponentwiseKernel(lambda i, z: scale * np.tanh(z), abs(scale))


def gaussian_lobe_kernel(scale: float) -> ComponentwiseKernel:
    """b0(z) = scale * z * exp(-z^2 / 2), componentwise; |b0_n| <= scale e^{-1/2}."""
    return ComponentwiseKernel(lambda i, z: scale * z * np.exp(-0.5 * z * z), abs(scale) * math.exp(-0.5))


def clipped_linear_kernel(scale: float, cap: float) -> ComponentwiseKernel:
    """b0(z) = clip(scale * z, -cap, cap), componentwise."""
    if not cap >= 0.0:  # np.clip(x, -cap, cap) with cap < 0 is the constant cap, not a clip
        raise ValueError(f"cap must be nonnegative, got {cap!r}")
    return ComponentwiseKernel(lambda i, z: np.clip(scale * z, -cap, cap), abs(cap))


# -- drift field -----------------------------------------------------------


class DriftField:
    """Measure-dependent drift v with declared, enforced bounds.

    The evaluator maps (measure, x (m, k)) to (m, k), the measure being one
    of measure_types, or None for a field that does not read it.  kind is a
    label for messages.  h_bound bounds |v|_H, and component_bound every
    |v_n| (None where the field has no such bound); a field declares at
    least one, each a finite number >= 0, and h_bound defaults to
    component_bound * sqrt(k).  reads_measure says whether the value of v
    depends on the measure: such a field is solved by the fixed point and
    refuses None (_check_measure), any other by one linear solve, and reads
    None (read_measure).
    """

    measure_types = (PointMeasure,)  # what eval_v reads besides None

    def __init__(self, kind, k, evaluator, *, reads_measure, h_bound=None, component_bound=None):
        for name, bound in (("h_bound", h_bound), ("component_bound", component_bound)):
            if bound is not None and not 0.0 <= bound < math.inf:  # NaN fails too
                raise ValueError(f"a {kind} drift's {name} must be a finite number >= 0, got {bound!r}")
        if h_bound is None and component_bound is None:
            raise ValueError(f"a {kind} drift must declare h_bound, component_bound or both")
        self.kind = kind
        self.k = k
        self._evaluator = evaluator
        self.component_bound = None if component_bound is None else float(component_bound)
        # a derived h_bound follows from the componentwise check, so only a declared one is checked
        self._checks_h = h_bound is not None
        self.h_bound = float(h_bound) if self._checks_h else self.component_bound * math.sqrt(k)
        self.reads_measure = reads_measure
        self._validate_by_sampling()

    def _check_bound(self, values: np.ndarray):
        if self.component_bound is not None:
            self._refuse_beyond("|v_n|", float(np.max(np.abs(values), initial=0.0)), self.component_bound)
        if self._checks_h:
            self._refuse_beyond("|v|_H", float(np.max(h_norm(_largest_rows(values), axis=1), initial=0.0)), self.h_bound)

    def _refuse_beyond(self, norm: str, worst: float, bound: float):
        if not worst <= bound * (1.0 + BOUND_SLACK) + 1e-300:  # NaN fails too
            raise BoundViolationError(f"{self.kind} drift produced {norm} = {worst:.6g} beyond its declared bound {bound:.6g}")

    def _validate_by_sampling(self):
        """Check the bounds at Gaussian samples against a unit point mass at the
        origin: a Vlasov field then reads b0 itself, which by Jensen bounds
        v(p, x) for every probability p; eval_v still re-checks every point."""
        probe = PointMeasure(points=np.zeros((1, self.k)), masses=np.ones(1), clip_defect=0.0)
        self._check_bound(np.asarray(self._evaluator(probe, validation_samples(self.k))))

    def read_measure(self, p: ChaosDensity, grid: QuadratureGrid) -> PointMeasure | None:
        """The measure v reads at the density p, on grid (as_measure); None
        when v does not read the measure."""
        return as_measure(p, grid) if self.reads_measure else None

    def _check_measure(self, measure):
        if measure is None and self.reads_measure:
            raise TypeError(f"a {self.kind} drift reads the measure; None is no measure (v.read_measure(p, grid))")
        if measure is not None and not isinstance(measure, self.measure_types):
            raise TypeError(f"a {self.kind} drift cannot read a {type(measure).__name__} as its measure; read "
                            "a density with v.read_measure(p, grid) (as_measure or marginal_measure)")

    def eval_v(self, measure: PointMeasure | MarginalMeasure | None, x) -> np.ndarray:
        """v(measure, x) for x of shape (k,) or (m, k); bound-checked."""
        self._check_measure(measure)
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        points = np.atleast_2d(x)
        if points.ndim != 2 or points.shape[1] != self.k:
            raise ValueError(f"a {self.k}-dimensional {self.kind} drift cannot read points of shape {x.shape}")
        values = np.asarray(self._evaluator(measure, points), dtype=float)
        self._check_bound(values)
        return values[0] if single else values

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


class SeparableField(DriftField):
    """A drift whose i-th component reads x_i alone, besides the measure.

    It is built from one function axis(measure, i, z) -> v_i at the values z
    of x_i, so it cannot claim a separability it does not have.  Assembly
    reads it on the 1-D rules of a product grid (eval_rules) instead of on
    all of its nodes, and a density as its k marginals (marginal_measure).
    """

    measure_types = (PointMeasure, MarginalMeasure)

    def __init__(self, kind, k, axis, *, reads_measure, h_bound=None, component_bound=None):
        self.axis = axis
        super().__init__(kind, k, self._stacked, reads_measure=reads_measure, h_bound=h_bound,
                         component_bound=component_bound)

    def _stacked(self, measure, x):
        return _by_coordinate(lambda i, z: self.axis(measure, i, z), self.k, x)

    def _check_axes(self, values):
        """Check the bounds on the row of maxima max_a |v_i(x_ai)| over each coordinate's
        values: for either bound that row is the worst point of their product."""
        self._check_bound(np.array([[np.max(np.abs(v_i)) for v_i in values]]))
        return values

    def _validate_by_sampling(self):
        """DriftField's check on the product of the samples (_check_axes),
        the probe a unit mass at 0 on each coordinate."""
        probe = MarginalMeasure((np.zeros(1),) * self.k, (np.ones(1),) * self.k, 0.0)
        self._check_axes(self._stacked(probe, validation_samples(self.k)).T)

    def read_measure(self, p: ChaosDensity, grid: QuadratureGrid) -> MarginalMeasure | None:
        return marginal_measure(p, grid) if self.reads_measure else None

    def eval_rules(self, measure: PointMeasure | MarginalMeasure | None, grid: QuadratureGrid) -> list[np.ndarray]:
        """v_i at the nodes of grid.rules[i], one array per coordinate i,
        checked as on all nodes of their product (_check_axes)."""
        self._check_measure(measure)
        return self._check_axes([np.asarray(self.axis(measure, i, x), dtype=float) for i, (x, _) in enumerate(grid.rules)])


def constant_drift(h) -> DriftField:
    """v = h, a fixed Cameron-Martin vector; ignores the measure and the point."""
    h = np.asarray(h, dtype=float).reshape(-1)
    return SeparableField(
        "constant", h.size, lambda measure, i, z: np.full(z.shape, h[i]), reads_measure=False,
        h_bound=float(h_norm(h)), component_bound=float(np.max(np.abs(h), initial=0.0)),
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
        "gradient", k, lambda measure, i, z: lam * np.tanh(z / width), reads_measure=False, component_bound=abs(lam)
    )


# entries of the largest kernel matrix built at once by either convolution
CHUNK_ENTRIES = 2_000_000


def vlasov_eval(kernel, p, x, grid: QuadratureGrid | None) -> np.ndarray:
    """Convolution v(p, x) = integral b0(x - y) p(dy) as the sum of
    masses_j * b0(x - y_j) over every pair (x, y_j): O(m M k).

    p is a PointMeasure, or a ChaosDensity read on grid through as_measure
    (which clips negative node values and records the removed mass in the
    measure's clip_defect); the Vlasov drift passes a PointMeasure and no
    grid.
    """
    if isinstance(p, ChaosDensity):
        if grid is None:
            raise TypeError("a quadrature grid is required to read a ChaosDensity as a measure")
        p = as_measure(p, grid)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    # chunk over evaluation points to bound the (m, M, k) intermediate
    chunk = max(1, int(CHUNK_ENTRIES / max(1, p.points.shape[0] * x.shape[1])))
    for start in range(0, x.shape[0], chunk):
        diffs = x[start : start + chunk, None, :] - p.points[None, :, :]
        out[start : start + chunk] = np.einsum("j,ijd->id", p.masses, kernel(diffs))
    return out


def marginal_convolution(kernel, measure, i: int, z: np.ndarray) -> np.ndarray:
    """v_i(z) = sum_a masses_a b0_i(z - y_a) at the values z of x_i, for a
    componentwise kernel and the i-th marginal (y, masses) = measure.marginal(i).

    That is O(len(z) q) for a marginal on q nodes, not O(len(z) Q^k) on Q^k
    points.  z longer than a marginal of more than one node, such as x_i at
    all nodes of a product grid, repeats values: it is read once per
    distinct value.  The rules of eval_rules and samples against a one-node
    probe are read as they are, where a sort could not pay.
    """
    y, masses = measure.marginal(i)
    xs, target = np.unique(z, return_inverse=True) if z.size > y.size > 1 else (z, slice(None))
    values = np.empty(xs.size)
    chunk = max(1, CHUNK_ENTRIES // max(1, y.size))
    for start in range(0, xs.size, chunk):
        values[start : start + chunk] = kernel.component(i, xs[start : start + chunk, None] - y[None, :]) @ masses
    return values[target]


def vlasov_drift(kernel, k: int) -> DriftField:
    """Drift obtained by convolving a bounded kernel with the solution measure.

    The kernel maps an array of differences z (..., k) to b0(z) (..., k).  A
    ComponentwiseKernel, whose `component(i, z)` is the i-th component of b0
    as a function of z_i alone (every built-in kernel: constant, tanh,
    gaussian-lobe, clipped-linear), gives a SeparableField convolved against
    the 1-D marginals of the measure; any other kernel, such as a general
    H-valued b0, is convolved over all pairs of points.

    Every kernel states h_bound, its bound on |b0|_H, and component_bound,
    its bound on every |b0_n|, either None where it has none; the drift
    declares both.  The measure argument is required; None is a TypeError.
    """
    bounds = {"h_bound": kernel.h_bound, "component_bound": kernel.component_bound}
    if isinstance(kernel, ComponentwiseKernel):
        return SeparableField(
            "vlasov", k, lambda measure, i, z: marginal_convolution(kernel, measure, i, z), reads_measure=True,
            **bounds,
        )
    return DriftField("vlasov", k, lambda measure, x: vlasov_eval(kernel, measure, x, None), reads_measure=True,
                      **bounds)


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

    return DriftField("rotational", k, evaluator, reads_measure=False, h_bound=abs(scale) / 2.0 + float(h_norm(shift)))


def custom_drift(fn, k, *, reads_measure: bool, h_bound=None, component_bound=None) -> DriftField:
    """Register a user evaluator (measure, x) -> (m, k) under its declared
    bounds, h_bound on |v|_H and component_bound on every |v_n| (one at
    least); the measure is a PointMeasure or None, and `reads_measure`
    states whether fn reads it (a field that does not is handed None and
    solved by one linear solve).

    Sampling validation at registration is mandatory; a violating field never
    gets constructed.
    """
    return DriftField("custom", k, fn, reads_measure=reads_measure, h_bound=h_bound, component_bound=component_bound)


# -- registry of config kinds ----------------------------------------------


def _kernel(build, *params) -> Kind:
    return Kind(params, lambda q, k: build(**q))


_SCALE = Param("scale", "number", -100.0, 100.0)
KERNELS = {
    "constant": _kernel(constant_kernel, Param("h", "vector", -100.0, 100.0)),
    "tanh": _kernel(tanh_kernel, _SCALE),
    "gaussian-lobe": _kernel(gaussian_lobe_kernel, _SCALE),
    "clipped-linear": _kernel(clipped_linear_kernel, _SCALE, Param("cap", "number", 0.0, 100.0)),
}


def _tanh_axis(q):
    """v_i = scale * tanh(x_i - shift_i), where shift_i is the measure's i-th
    coordinate mean when mean_shift is set (a genuinely measure-dependent
    family), else 0."""
    scale, mean_shift = q["scale"], q["mean_shift"]

    def axis(measure, i, z):
        shift = measure.mean()[i] if mean_shift else 0.0
        return scale * np.tanh(z - shift)

    return axis


def _decoupled_tanh_axis(q):
    """v_0 = scale * tanh(x_0) and every other component 0: the solution
    factorizes and every marginal beyond the first is Gaussian."""
    scale = q["scale"]
    return lambda measure, i, z: scale * np.tanh(z) if i == 0 else np.zeros(z.shape)


def _componentwise(axis, reads_measure, *params) -> Kind:
    """A separable kind bounded by |v_i| <= |scale|, whose v_i = axis(q)(measure,
    i, x_i) depends on the measure when reads_measure(q); n_components only
    bounds k."""
    return Kind(
        (_SCALE, Param("n_components", "integer", 1, 64)) + params,
        lambda q, k: SeparableField("componentwise", k, axis(q), reads_measure=reads_measure(q),
                                    component_bound=abs(q["scale"])),
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
    "componentwise-tanh": _componentwise(_tanh_axis, lambda q: q["mean_shift"], Param("mean_shift", "bool", default=False)),
    "componentwise-decoupled-tanh": _componentwise(_decoupled_tanh_axis, lambda q: False),
}


def drift_from_block(block, k: int) -> DriftField:
    """The k-dimensional drift a config block describes; a ConfigError for
    any block or k the registry rejects."""
    entry, params = read_kind(block, DRIFTS, "drift", k)
    return entry.build(params, k)
