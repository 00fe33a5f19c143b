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
FD_KRYLOV_STEPS = 60  # restart length of the FD oracle's GMRES: its Arnoldi basis holds at most 60 n^2 values
# GMRES stops when its Arnoldi residual is below this share of (largest face
# coefficient) * (peak of the start, 1) * n.  At 1e-16 a rotational solve on
# 161 cells (scale 0.8, offset (0.3, 0)) ended 2.7e-14 of the peak from the
# factored one, at the edge of what the tests allow; at 1e-18, 6.4e-15.
FD_KRYLOV_TOL = 1e-18
# GMRES restarts from its answer, on the true residual, until two cycles in a
# row converge: the preconditioner's round-off, large where the stationary
# density is far below its peak, left the first converged answer up to 9e-14 of
# the peak from the factored one on grids of 5 to 30 cells.  Past this many
# cycles the solve is a NumericError; the most measured was 3 (112 steps, a
# steep tanh drift on a coarse grid).
FD_KRYLOV_MAX_CYCLES = 20


@dataclass(frozen=True)
class GridDensity1D:
    """Lebesgue density on a uniform symmetric grid, normalized to mass 1."""

    x: np.ndarray
    pdf: np.ndarray
    z: float  # normalization constant of the unnormalized density

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
    return _normalize_1d(x, _gibbs(x, np.asarray(v(x), dtype=float)))


def _gibbs(x: np.ndarray, vvals: np.ndarray) -> np.ndarray:
    """exp(-x^2/2 + int_0^x v) on the oracle grid x, scaled to peak 1."""
    potential = _cumulative_trapezoid(vvals, x)
    potential -= potential[ORACLE_1D_POINTS // 2]
    log_density = -0.5 * x**2 + potential
    return np.exp(log_density - log_density.max())


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
        new = _gibbs(x, h * _convolve_valid(kernel_samples, density))
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


def oracle_sde(v, p_frozen, dt: float = 1e-3, n_steps: int = 2000, n_particles: int = 500,
               seed: int = 0) -> SdeMoments:
    """Euler-Maruyama sampling of dX = (-X + v(p, X)) dt + sqrt(2) dW in
    the dimension k = v.k of the drift.

    The drift is frozen at p_frozen, the measure v.read_measure gives once
    for the solved density (None for a drift that ignores it); the
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
    k = v.k
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
    """B(z) = z / (e^z - 1), series near 0 for stability; past z = 709.8
    e^z overflows to inf, which gives the limit 0."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    out[small] = 1.0 - z[small] / 2.0 + z[small] ** 2 / 12.0
    zb = z[~small]
    with np.errstate(over="ignore"):
        out[~small] = zb / np.expm1(zb)
    return out


def _face_coefficients(v, x: np.ndarray, h: float):
    """Per axis, the face Peclet numbers w = b h of the drift b = -x + v and
    the exponentially fitted flux coefficients B(-w) / h^2 and B(w) / h^2:
    (n - 1, n) arrays by lower cell along axis 0, (n, n - 1) along axis 1.
    v is read once, at the faces of both axes; a coefficient that is not
    finite (v not finite, or so large that the flux overflows) is a
    NumericError before any solve."""
    n = x.size
    mid = 0.5 * (x[:-1] + x[1:])
    pts = np.concatenate(
        [
            np.stack([np.repeat(mid, n), np.tile(x, n - 1)], axis=1),
            np.stack([np.repeat(x, n - 1), np.tile(mid, n)], axis=1),
        ]
    )
    values = np.asarray(v(pts), dtype=float)
    faces = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite coefficient is refused below
        b = (values - pts) * h
        for w in (b[: (n - 1) * n, 0].reshape(n - 1, n), b[(n - 1) * n :, 1].reshape(n, n - 1)):
            faces.append((w, _bernoulli(-w) / h**2, _bernoulli(w) / h**2))
    if not all(np.isfinite(c).all() for _, lo, hi in faces for c in (lo, hi)):
        bad = sum(np.count_nonzero(~(np.isfinite(lo) & np.isfinite(hi))) for _, lo, hi in faces)
        raise NumericError(f"finite-difference oracle: the drift b = -x + v is not finite at {bad} of "
                           f"{len(b)} cell faces, or overflows their flux coefficients; v must be finite "
                           "on the whole box and far inside the float range")
    return faces


def _flux_divergence(faces, u: np.ndarray) -> np.ndarray:
    """A u for the unpinned flux matrix A of the faces, u an (n, n) cell array."""
    (_, m0, p0), (_, m1, p1) = faces
    out = np.zeros_like(u)
    for flux, lo, hi in (
        (m0 * u[:-1, :] - p0 * u[1:, :], np.s_[:-1, :], np.s_[1:, :]),
        (m1 * u[:, :-1] - p1 * u[:, 1:], np.s_[:, :-1], np.s_[:, 1:]),
    ):
        out[lo] += flux
        out[hi] -= flux
    return out


def _flux_operator_1d(w: np.ndarray, h: float):
    """The 1-D flux operator T of face Peclet numbers w, diagonalized.

    Detailed balance B(-w) pi_lo = B(w) pi_hi gives its stationary vector pi
    (peak 1), and Pi^(-1/2) T Pi^(1/2) is a symmetric tridiagonal matrix with
    off-diagonal -sqrt(B(-w) B(w)) / h^2, so one eigh gives T = V diag(lam)
    V^-1.  Returns pi, lam (ascending, lam[0] = 0 the zero mode), V and V^-T.
    Where pi underflows, below the smallest normal double, the similarity
    scaling stops at that floor, so V^-T stays finite on wide boxes.
    """
    m, p = _bernoulli(-w) / h**2, _bernoulli(w) / h**2
    rise = w  # log pi_{i+1} - log pi_i = log(B(-w) / B(w)), exactly
    peak = int(np.argmax(np.concatenate(([0.0], np.cumsum(rise)))))
    # summed outward from the peak, so each cell's rounding is relative to its own distance from it
    log_pi = np.concatenate((-np.cumsum(rise[:peak][::-1])[::-1], [0.0], np.cumsum(rise[peak:])))
    off = -np.sqrt(m * p)
    lam, q = np.linalg.eigh(np.diag(np.append(m, 0.0) + np.insert(p, 0, 0.0)) + np.diag(off, 1) + np.diag(off, -1))
    lam[0] = 0.0  # T is singular with a one-dimensional kernel; eigh returns it to round-off
    root = np.exp(0.5 * np.maximum(log_pi, math.log(np.finfo(float).tiny)))[:, None]
    return np.exp(log_pi), lam, root * q, q / root


def _gmres(operator, preconditioner, rhs: np.ndarray, tol: float, budget: int):
    """(x, steps, converged): one cycle of GMRES for operator(x) = rhs from
    x = 0, right preconditioned, its Arnoldi basis kept orthogonal by
    classical Gram-Schmidt applied twice.  It stops when the Arnoldi residual
    is at most tol (converged) or after budget steps, and x minimizes the
    residual over the Krylov space built so far."""
    beta = float(np.linalg.norm(rhs))
    if beta <= tol:
        return np.zeros_like(rhs), 0, True
    basis = np.empty((budget, rhs.size))
    hessenberg = np.zeros((budget + 1, budget))
    rotations = np.zeros((budget, 2))
    g = np.zeros(budget + 1)
    basis[0], g[0] = rhs.ravel() / beta, beta
    for j in range(budget):
        w = operator(preconditioner(basis[j].reshape(rhs.shape))).ravel()
        for _ in range(2):
            coefficients = basis[: j + 1] @ w
            w -= coefficients @ basis[: j + 1]
            hessenberg[: j + 1, j] += coefficients
        hessenberg[j + 1, j] = norm = np.linalg.norm(w)
        for i, (c, s) in enumerate(rotations[:j]):
            a, b = hessenberg[i : i + 2, j]
            hessenberg[i : i + 2, j] = c * a + s * b, c * b - s * a
        r = math.hypot(hessenberg[j, j], hessenberg[j + 1, j])
        rotations[j] = c, s = hessenberg[j, j] / r, hessenberg[j + 1, j] / r
        hessenberg[j, j], hessenberg[j + 1, j] = r, 0.0
        g[j : j + 2] = c * g[j], -s * g[j]
        converged = abs(g[j + 1]) <= tol
        if converged or j + 1 == budget:
            y = np.linalg.solve(np.triu(hessenberg[: j + 1, : j + 1]), g[: j + 1])
            return preconditioner((y @ basis[: j + 1]).reshape(rhs.shape)), j + 1, converged
        basis[j + 1] = w / norm


def _krylov_steady_state(faces, x: np.ndarray, h: float):
    """(u, steps): the null vector u of the flux matrix of the faces and the
    Krylov steps taken.

    The preconditioner is the inverse on its range of T_1 (+) T_2, the
    Kronecker sum of the 1-D flux operators of the face Peclet numbers
    averaged across the faces' axis with weights exp(-x^2/2); it is applied
    by fast diagonalization.  GMRES starts from its null vector, the outer
    product of the two 1-D stationary vectors, and solves for the correction,
    which keeps the start's mass: the preconditioner's range has zero sum.
    For a separable drift the preconditioner is the operator and the start is
    the answer.  Otherwise GMRES restarts every FD_KRYLOV_STEPS steps from
    its answer, on the true residual, and the solve ends after two converged
    cycles in a row; a NumericError after FD_KRYLOV_MAX_CYCLES cycles without.
    """
    (w0, _, _), (w1, _, _) = faces
    c = x.size // 2
    weights = np.exp(-0.5 * x**2)
    weights /= weights.sum()
    # the mean as a correction to the central cell's value, so a face row that does not vary is its own mean
    mean0 = w0[:, c] + (w0 - w0[:, c : c + 1]) @ weights
    mean1 = w1[c] + weights @ (w1 - w1[c])
    pi0, lam0, v0, inv0 = _flux_operator_1d(mean0, h)
    pi1, lam1, v1, inv1 = _flux_operator_1d(mean1, h)
    start = np.outer(pi0, pi1)
    if not ((w0 - mean0[:, None]).any() or (w1 - mean1).any()):
        return start, 0
    eigenvalues = lam0[:, None] + lam1
    eigenvalues[0, 0] = np.inf  # drops the zero mode
    inverse = 1.0 / eigenvalues
    scale = max(float(f.max()) for _, *pair in faces for f in pair) * x.size
    u, steps, in_a_row = start, 0, 0
    for _ in range(FD_KRYLOV_MAX_CYCLES):
        correction, cycle_steps, converged = _gmres(
            lambda y: _flux_divergence(faces, y),
            lambda r: v0 @ ((inv0.T @ r @ inv1) * inverse) @ v1.T,
            -_flux_divergence(faces, u),
            FD_KRYLOV_TOL * scale,
            FD_KRYLOV_STEPS,
        )
        u, steps, in_a_row = u + correction, steps + cycle_steps, in_a_row + 1 if converged else 0
        if in_a_row == 2:
            return u, steps
    raise NumericError(
        f"finite-difference steady state: GMRES did not converge in {FD_KRYLOV_MAX_CYCLES} cycles of {FD_KRYLOV_STEPS} steps"
    )


def oracle_fd_2d(v, span: float = 6.0, n: int = 161) -> GridDensity2D:
    """Steady state of div(grad u - b u) = 0 on a box with zero-flux walls.

    Exponentially fitted (flux-upwinded) finite volumes keep the discrete
    density positive.  The singular conservation system is solved by
    restarted GMRES preconditioned with its separable part
    (_krylov_steady_state), and the solution is scaled to unit mass.  A solve
    that stalls, overflows or meets a singular matrix is a NumericError.  v
    maps (m, 2) points to (m, 2) values; the full drift -x + v is formed
    internally.
    """
    h = 2.0 * span / n
    x = -span + h * (np.arange(n) + 0.5)
    faces = _face_coefficients(v, x, h)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            u, _ = _krylov_steady_state(faces, x, h)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NumericError(f"finite-difference steady state solve failed: {exc}") from exc
    total = float(u.sum() * h * h)
    return GridDensity2D(x=x, values=u / total)
