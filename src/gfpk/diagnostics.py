"""Quantitative certificates over solved densities: the a-priori L^2 ball
radius, Gaussian-measure tail bounds, the logarithmic moment functional and
the Fisher information functional.

Asserted bounds (ball radius, tails) come with explicit tolerances; the
logarithmic moment and Fisher functionals are monitored only, because their
comparison constants are not pinned down.  A caller that already read rho
(and v) on the grid's nodes passes those values as vals (and vvals).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import QuadratureGrid
from .density import ChaosDensity
from .errors import NumericError

FISHER_FLOOR = 1e-12
FISHER_MASS_REQUIRED = 1.0 - 1e-6
TAIL_TOLERANCE = 1e-8  # absolute slack of each tail comparison
# half-width and point count of the sign-change scan of superlevel_mass_1d
LEVELSET_SPAN = 12.0
LEVELSET_SCAN = 4001


@dataclass(frozen=True)
class BoundReport:
    name: str
    left: float
    right: float
    passed: bool | None  # None for monitored-only functionals
    tolerance: float
    inputs: dict = field(default_factory=dict)


def b1_bound(c0: float) -> float:
    """A-priori radius B(C0) = 1 + 2 e^2 int_1^inf t exp(-(ln t)^2 / C0^2) dt.

    Completing the square after the substitution u = ln t gives the closed
    form 1 + e^2 sqrt(pi) C0 e^{C0^2} (1 + erf(C0)); B(0) = 1 (zero drift
    forces the density to be identically 1).  A NumericError where the
    radius exceeds the float range (C0 above about 26.6).
    """
    if c0 < 0:
        raise ValueError("C0 must be nonnegative")
    if c0 == 0.0:
        return 1.0
    try:
        value = 1.0 + math.e**2 * math.sqrt(math.pi) * c0 * math.exp(c0**2) * (1.0 + math.erf(c0))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NumericError(f"ball radius is not a finite float for C0={c0}")
    return value


def superlevel_mass_1d(rho: ChaosDensity, t: float) -> float:
    """gamma(rho >= t) for a 1-D density by explicit level-set resolution.

    Scans [-LEVELSET_SPAN, LEVELSET_SPAN] for sign changes of rho - t,
    refines each crossing by bisection and sums the exact Gaussian mass of
    the super-level intervals.  Accurate to root-finding precision, unlike
    node counting.
    """
    from scipy.optimize import brentq  # deferred: scipy.optimize is slow to import

    if rho.k != 1:
        raise ValueError("level-set mass is implemented for 1-D densities only")
    span = LEVELSET_SPAN
    xs = np.linspace(-span, span, LEVELSET_SCAN)
    sign = rho.evaluate(xs[:, None]) >= t
    f = lambda s: rho.evaluate(np.array([s])) - t
    changes = np.flatnonzero(sign[:-1] != sign[1:])
    edges = [-span] + [brentq(f, xs[j], xs[j + 1], xtol=1e-14) for j in changes] + [span]
    mass = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        if rho.evaluate(np.array([mid])) >= t:
            mass += _gaussian_cdf(b) - _gaussian_cdf(a)
    return mass


def _gaussian_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def tail_check(rho: ChaosDensity, sigma_inf: float, t_grid, grid: QuadratureGrid, vals=None) -> BoundReport:
    """Verify gamma(rho >= t) <= e^2 exp(-sigma_inf (ln t)^2) for each t > 1,
    the left side being the quadrature super-level mass on grid."""
    rows = []
    vals = rho.evaluate(grid) if vals is None else vals
    for t in t_grid:
        if t <= 1.0:
            raise ValueError("tail levels must exceed 1")
        left = float(np.sum(grid.weights[vals >= t]))
        # zero drift: density is 1, super-level mass above t > 1 must vanish
        right = math.e**2 * math.exp(-sigma_inf * math.log(t) ** 2) if np.isfinite(sigma_inf) else 0.0
        rows.append({"t": t, "left": left, "right": right, "passed": left <= right + TAIL_TOLERANCE})
    worst = max(rows, key=lambda r: r["left"] - r["right"])
    return BoundReport(
        name="tail",
        left=worst["left"],
        right=worst["right"],
        passed=all(r["passed"] for r in rows),
        tolerance=TAIL_TOLERANCE,
        inputs={"sigma_inf": sigma_inf, "t_grid": list(t_grid), "rows": rows},
    )


def log_moment(rho: ChaosDensity, alpha: float, grid: QuadratureGrid, vals=None) -> float:
    """Monitored functional integral f (log(f + 1))^alpha dgamma with
    f = max(rho, 0) at the nodes (clipping policy shared with as_measure)."""
    if not 0.0 < alpha < 0.25:
        raise ValueError("alpha must lie in (0, 1/4)")
    f = np.clip(rho.evaluate(grid) if vals is None else vals, 0.0, None)
    return float(np.sum(grid.weights * f * np.log1p(f) ** alpha))


def log_moment_bracket(rho: ChaosDensity, v, p_frozen, alpha: float, grid: QuadratureGrid, vvals=None, vals=None) -> float:
    """The drift bracket 1 + ||v||_{L^1(mu)} (log(1 + ||v||_{L^1(mu)}))^alpha
    reported alongside the monitored functional."""
    vvals = v.eval_v(p_frozen, grid.nodes) if vvals is None else vvals
    f = np.clip(rho.evaluate(grid) if vals is None else vals, 0.0, None)
    l1 = float(np.sum(grid.weights * np.linalg.norm(vvals, axis=1) * f))
    return 1.0 + l1 * math.log1p(l1) ** alpha


@dataclass(frozen=True)
class FisherReport:
    fisher: float | None
    drift_energy_gamma: float | None
    drift_energy_mu: float | None
    skipped: bool = False
    reason: str = ""


def fisher_energy(rho: ChaosDensity, v, p_frozen, grid: QuadratureGrid, vvals=None, vals=None) -> FisherReport:
    """Monitored relative Fisher information |grad rho|^2 / rho against the
    drift energies |b|^2 integrated under gamma and under mu = rho * gamma.

    Both candidate right-hand sides are reported; neither is asserted.
    Skipped (with reason) when the positive part carries too little mass.
    """
    vals = rho.evaluate(grid) if vals is None else vals
    positive_mass = float(np.sum(grid.weights[vals > 0.0]))
    if positive_mass < FISHER_MASS_REQUIRED:
        return FisherReport(
            None,
            None,
            None,
            skipped=True,
            reason=f"positive-part mass {positive_mass:.8f} below {FISHER_MASS_REQUIRED}",
        )
    grads = rho.gradient(grid)
    mask = vals > FISHER_FLOOR
    fisher = float(
        np.sum(grid.weights[mask] * np.sum(grads[mask] ** 2, axis=1) / vals[mask])
    )
    b = (v.eval_v(p_frozen, grid.nodes) if vvals is None else vvals) - grid.nodes
    b_sq = np.sum(b * b, axis=1)
    energy_gamma = float(np.sum(grid.weights * b_sq))
    energy_mu = float(np.sum(grid.weights * b_sq * np.clip(vals, 0.0, None)))
    return FisherReport(fisher, energy_gamma, energy_mu)
