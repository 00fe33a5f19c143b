"""Independent ground-truth generators for cross-validation: 1-D closed-form
stationary densities, an exponentially fitted 2-D finite-difference solver
and a Monte Carlo sampler of the underlying diffusion.

None of these share numerical machinery with the spectral solver beyond
scalar special functions, so agreement is genuine evidence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InstabilityError, NumericError

BOUNDARY_DENSITY_LIMIT = 1e-12
BLOWUP_LIMIT = 1e6
# odd, so that x = 0 is a node of the 1-D grids and anchors the potential integral
ORACLE_1D_POINTS = 20001
SELFCONSISTENT_TOL = 1e-12  # sup distance of successive 1-D iterates
SELFCONSISTENT_MAX_ITERATIONS = 200
SDE_BATCHES = 50  # particle groups of oracle_sde
SDE_BURN_IN = 0.2  # share of the steps of oracle_sde left out of the averages


@dataclass(frozen=True)
class GridDensity1D:
    """Lebesgue density on a uniform symmetric grid, normalized to mass 1."""

    x: np.ndarray
    pdf: np.ndarray
    z: float  # normalization constant of the unnormalized density

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def gamma_density(self) -> np.ndarray:
        """Values of the density relative to the standard Gaussian."""
        phi = np.exp(-0.5 * self.x**2) / math.sqrt(2.0 * math.pi)
        return self.pdf / phi

    def mean(self) -> float:
        return float(np.trapezoid(self.x * self.pdf, self.x))

    def second_moment(self) -> float:
        return float(np.trapezoid(self.x**2 * self.pdf, self.x))


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x from x[0], summed in the order
    of scipy.integrate.cumulative_trapezoid(y, x, initial=0)."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _convolve_valid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.convolve(a, b, mode="valid") for len(a) >= len(b), by real FFTs of
    a power-of-two length that holds the full convolution."""
    size = 1 << (a.size + b.size - 2).bit_length()
    full = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)
    return full[b.size - 1 : a.size]


def _normalize_1d(x, unnormalized) -> GridDensity1D:
    peak = float(np.max(unnormalized))
    if unnormalized[0] > BOUNDARY_DENSITY_LIMIT * peak or unnormalized[-1] > BOUNDARY_DENSITY_LIMIT * peak:
        raise DomainError(
            "density does not vanish at the domain boundary; enlarge the box"
        )
    z = float(np.trapezoid(unnormalized, x))
    return GridDensity1D(x=x, pdf=unnormalized / z, z=z)


def oracle_1d(v, span: float = 10.0) -> GridDensity1D:
    """Closed-form 1-D stationary density for the drift b(x) = -x + v(x):
    Lebesgue density proportional to exp(-x^2/2 + int_0^x v(s) ds)."""
    x = np.linspace(-span, span, ORACLE_1D_POINTS)
    vvals = np.asarray(v(x), dtype=float)
    potential = _cumulative_trapezoid(vvals, x)
    potential -= potential[ORACLE_1D_POINTS // 2]
    log_density = -0.5 * x**2 + potential
    return _normalize_1d(x, np.exp(log_density - log_density.max()))


def oracle_1d_selfconsistent(kernel, span: float = 10.0) -> GridDensity1D:
    """Fixed point of the 1-D convolution drift v(x) = int b0(x - y) f(y) dy.

    Iterates f -> normalize(exp(-x^2/2 + int_0^x v(f, s) ds)) on a fine grid;
    the convolution is evaluated by FFT on the uniform grid.  Stops when the
    sup distance of successive densities falls below SELFCONSISTENT_TOL.
    """
    x = np.linspace(-span, span, ORACLE_1D_POINTS)
    h = x[1] - x[0]
    diffs = np.linspace(-2.0 * span, 2.0 * span, 2 * ORACLE_1D_POINTS - 1)
    kernel_samples = np.asarray(kernel(diffs), dtype=float)
    density = np.exp(-0.5 * x**2)
    density /= np.trapezoid(density, x)
    for _ in range(SELFCONSISTENT_MAX_ITERATIONS):
        v = h * _convolve_valid(kernel_samples, density)
        potential = _cumulative_trapezoid(v, x)
        potential -= potential[ORACLE_1D_POINTS // 2]
        log_density = -0.5 * x**2 + potential
        new = np.exp(log_density - log_density.max())
        new /= np.trapezoid(new, x)
        if float(np.max(np.abs(new - density))) < SELFCONSISTENT_TOL:
            return _normalize_1d(x, new)
        density = new
    raise NumericError(
        f"self-consistent 1-D oracle did not converge in {SELFCONSISTENT_MAX_ITERATIONS} iterations"
    )


def l2_gamma_distance(rho, oracle: GridDensity1D) -> float:
    """L^2(gamma) distance between a 1-D chaos density and a grid oracle."""
    gamma_vals = oracle.gamma_density()
    spectral = rho.evaluate(oracle.x[:, None])
    phi = np.exp(-0.5 * oracle.x**2) / math.sqrt(2.0 * math.pi)
    return math.sqrt(float(np.trapezoid((spectral - gamma_vals) ** 2 * phi, oracle.x)))


@dataclass(frozen=True)
class SdeMoments:
    """Time-and-ensemble averaged moments with batch-means standard errors."""

    mean: np.ndarray
    mean_se: np.ndarray
    second: np.ndarray  # E[x_i x_j]
    second_se: np.ndarray


def oracle_sde(
    v,
    p_frozen,
    k: int,
    dt: float = 1e-3,
    n_steps: int = 2000,
    n_particles: int = 500,
    seed: int = 0,
) -> SdeMoments:
    """Euler-Maruyama sampling of dX = (-X + v(p, X)) dt + sqrt(2) dW.

    The drift is frozen at p_frozen, a PointMeasure read once from the
    solved density (None for a drift that ignores the measure); the
    stationary law of this diffusion is exactly what the linear equation
    characterizes.  Standard errors come from batch means over SDE_BATCHES
    disjoint particle groups, which are genuinely independent replicates
    (time batches would understate the error whenever a batch is shorter
    than the autocorrelation time).  The first SDE_BURN_IN share of the
    steps is not averaged.  Identical seeds give bitwise identical estimates.
    """
    if dt > 0.01:
        raise ValueError("dt must be <= 0.01 for a trustworthy invariant law")
    if n_particles % SDE_BATCHES != 0:
        raise ValueError(f"n_particles must be divisible by {SDE_BATCHES}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_particles, k))
    skip = int(SDE_BURN_IN * n_steps)
    kept = n_steps - skip
    group = n_particles // SDE_BATCHES
    mean_batches = np.zeros((SDE_BATCHES, k))
    second_batches = np.zeros((SDE_BATCHES, k, k))
    sqrt_2dt = math.sqrt(2.0 * dt)
    for step in range(n_steps):
        drift = v.eval_v(p_frozen, x) - x
        x = x + dt * drift + sqrt_2dt * rng.standard_normal((n_particles, k))
        if float(np.max(np.abs(x))) > BLOWUP_LIMIT:
            raise InstabilityError("particle blow-up detected; reduce dt")
        if step < skip:
            continue
        xr = x.reshape(SDE_BATCHES, group, k)
        mean_batches += xr.mean(axis=1)
        second_batches += np.einsum("bgi,bgj->bij", xr, xr) / group
    mean_batches /= kept
    second_batches /= kept
    sqrt_nb = math.sqrt(SDE_BATCHES)
    return SdeMoments(
        mean=mean_batches.mean(axis=0),
        mean_se=mean_batches.std(axis=0, ddof=1) / sqrt_nb,
        second=second_batches.mean(axis=0),
        second_se=second_batches.std(axis=0, ddof=1) / sqrt_nb,
    )


@dataclass(frozen=True)
class GridDensity2D:
    """Cell-centered Lebesgue density on a square box, mass 1."""

    x: np.ndarray  # (n,) cell centers, shared by both axes
    values: np.ndarray  # (n, n), first index x-coordinate

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def marginal(self, axis: int) -> np.ndarray:
        """Lebesgue marginal density on the kept axis (0 keeps x_1)."""
        return self.values.sum(axis=1 - axis) * self.h


def _bernoulli(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (e^z - 1), series near 0 for stability."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    out[small] = 1.0 - z[small] / 2.0 + z[small] ** 2 / 12.0
    zb = z[~small]
    out[~small] = zb / np.expm1(zb)
    return out


def _fd_matrix(v, x: np.ndarray, h: float):
    """Flux-balance matrix of the exponentially fitted scheme, cell (i, j) at
    row i * n + j, as CSC.  The flux equation of the cell c nearest the
    origin becomes a_cc u_c = a_cc; its other entries stay as stored zeros."""
    import scipy.sparse as sp  # deferred: only the FD oracle needs scipy.sparse

    n = x.size
    mid = 0.5 * (x[:-1] + x[1:])
    cells = np.arange(n * n).reshape(n, n)
    rows, cols, data = [], [], []
    # faces between adjacent cells along each axis: (lower cell, upper cell)
    for axis, face_pts, lo, step in (
        (0, np.stack([np.repeat(mid, n), np.tile(x, n - 1)], axis=1), cells[:-1].ravel(), n),
        (1, np.stack([np.repeat(x, n - 1), np.tile(mid, n)], axis=1), cells[:, :-1].ravel(), 1),
    ):
        b_face = np.asarray(v(face_pts), dtype=float) - face_pts
        w = b_face[:, axis] * h
        b_minus = _bernoulli(-w) / h**2  # multiplies the lower cell
        b_plus = _bernoulli(w) / h**2  # multiplies the upper cell
        hi = lo + step
        # flux F = B(-w) u_lo - B(w) u_hi leaves lo and enters hi
        rows.append(np.stack([lo, lo, hi, hi], axis=1).ravel())
        cols.append(np.stack([lo, hi, lo, hi], axis=1).ravel())
        data.append(np.stack([b_minus, -b_plus, -b_minus, b_plus], axis=1).ravel())
    rows, cols, data = (np.concatenate(part) for part in (rows, cols, data))
    data[(rows == cells[n // 2, n // 2]) & (cols != rows)] = 0.0
    return sp.csc_matrix((data, (rows, cols)), shape=(n * n, n * n))


def _pinned_solve(matrix, pin: int) -> np.ndarray:
    """u with matrix u = matrix[pin, pin] e_pin, for _fd_matrix's irreducibly
    column-diagonally-dominant M-matrix: SuperLU, minimum degree on A^T + A,
    no pivoting.  A NumericError for an exactly singular factor or a
    non-finite u (a density whose ratio to the pinned cell overflows)."""
    import scipy.sparse.linalg as spla

    rhs = np.zeros(matrix.shape[0])
    rhs[pin] = matrix[pin, pin]
    try:
        u = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0).solve(rhs)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise NumericError(f"finite-difference steady state solve failed: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise NumericError("finite-difference steady state solve failed")
    return u


def oracle_fd_2d(v, span: float = 6.0, n: int = 161) -> GridDensity2D:
    """Steady state of div(grad u - b u) = 0 on a box with zero-flux walls.

    Exponentially fitted (flux-upwinded) finite volumes keep the discrete
    density positive; the singular conservation system is closed by pinning
    the cell nearest the origin, then scaled to unit mass.  v maps (m, 2)
    points to (m, 2) values; the full drift -x + v is formed internally.
    """
    h = 2.0 * span / n
    x = -span + h * (np.arange(n) + 0.5)
    u = _pinned_solve(_fd_matrix(v, x, h), (n // 2) * n + n // 2)
    total = float(u.sum() * h * h)
    return GridDensity2D(x=x, values=(u / total).reshape(n, n))
