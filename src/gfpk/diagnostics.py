"""Quantitative certificates over solved densities: the a-priori L^2 ball
radius, Gaussian-measure tail bounds, the logarithmic moment functional and
the Fisher information functional.

Asserted bounds (ball radius, tails) come with explicit tolerances; the
logarithmic moment and Fisher functionals are monitored only, because their
comparison constants are not pinned down.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf, ndtr

from .basis import QuadratureGrid
from .density import ChaosDensity
from .errors import NumericError

FISHER_FLOOR = 1e-12
FISHER_MASS_REQUIRED = 1.0 - 1e-6


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

    Computed by adaptive quadrature after the substitution u = ln t; B(0) = 1
    (zero drift forces the density to be identically 1).
    """
    if c0 < 0:
        raise ValueError("C0 must be nonnegative")
    if c0 == 0.0:
        return 1.0
    integrand = lambda u: math.exp(2.0 * u - (u / c0) ** 2)
    value, err = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-10, limit=200)
    if not np.isfinite(value) or err > 1e-8 * max(1.0, value):
        raise NumericError(f"ball-radius quadrature did not converge for C0={c0}")
    return 1.0 + 2.0 * math.e**2 * value


def b1_bound_closed_form(c0: float) -> float:
    """Closed form 1 + e^2 sqrt(pi) C0 e^{C0^2} (1 + erf(C0)), by completing
    the square in the u-substituted integral; used as the independent oracle."""
    if c0 == 0.0:
        return 1.0
    return 1.0 + math.e**2 * math.sqrt(math.pi) * c0 * math.exp(c0**2) * (1.0 + erf(c0))


def superlevel_mass_nodes(rho: ChaosDensity, t: float, grid: QuadratureGrid) -> float:
    """gamma(rho >= t) estimated as the quadrature mass of the super-level nodes."""
    vals = rho.evaluate(grid.nodes)
    return float(np.sum(grid.weights[vals >= t]))


def superlevel_mass_1d(rho: ChaosDensity, t: float, span: float = 12.0, scan: int = 4001) -> float:
    """gamma(rho >= t) for a 1-D density by explicit level-set resolution.

    Scans [-span, span] for sign changes of rho - t, refines each crossing
    by bisection and sums the exact Gaussian mass of the super-level
    intervals.  Accurate to root-finding precision, unlike node counting.
    """
    if rho.k != 1:
        raise ValueError("level-set mass is implemented for 1-D densities only")
    xs = np.linspace(-span, span, scan)
    vals = rho.evaluate(xs[:, None]) - t
    crossings = []
    sign = vals >= 0
    for j in range(scan - 1):
        if sign[j] != sign[j + 1]:
            f = lambda s: rho.evaluate(np.array([s])) - t
            crossings.append(brentq(f, xs[j], xs[j + 1], xtol=1e-14))
    edges = [-span] + crossings + [span]
    mass = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        if rho.evaluate(np.array([mid])) >= t:
            mass += float(ndtr(b) - ndtr(a))
    return mass


def tail_check(
    rho: ChaosDensity,
    sigma_inf: float,
    t_grid,
    grid: QuadratureGrid,
    tolerance: float = 1e-8,
    method: str = "nodes",
) -> BoundReport:
    """Verify gamma(rho >= t) <= e^2 exp(-sigma_inf (ln t)^2) for each t > 1.

    method "nodes" uses the quadrature super-level mass; "levelset1d" resolves
    the level set exactly (1-D only) and is the right choice when the left
    side itself is under test.
    """
    rows = []
    passed = True
    for t in t_grid:
        if t <= 1.0:
            raise ValueError("tail levels must exceed 1")
        if method == "levelset1d":
            left = superlevel_mass_1d(rho, t)
        else:
            left = superlevel_mass_nodes(rho, t, grid)
        # zero drift: density is 1, super-level mass above t > 1 must vanish
        right = math.e**2 * math.exp(-sigma_inf * math.log(t) ** 2) if np.isfinite(sigma_inf) else 0.0
        ok = left <= right + tolerance
        passed = passed and ok
        rows.append({"t": t, "left": left, "right": right, "passed": ok})
    worst = max(rows, key=lambda r: r["left"] - r["right"])
    return BoundReport(
        name="tail",
        left=worst["left"],
        right=worst["right"],
        passed=passed,
        tolerance=tolerance,
        inputs={"sigma_inf": sigma_inf, "t_grid": list(t_grid), "rows": rows, "method": method},
    )


def log_moment(rho: ChaosDensity, alpha: float, grid: QuadratureGrid) -> float:
    """Monitored functional integral f (log(f + 1))^alpha dgamma with
    f = max(rho, 0) at the nodes (clipping policy shared with as_measure)."""
    if not 0.0 < alpha < 0.25:
        raise ValueError("alpha must lie in (0, 1/4)")
    f = np.clip(rho.evaluate(grid.nodes), 0.0, None)
    return float(np.sum(grid.weights * f * np.log1p(f) ** alpha))


def log_moment_bracket(rho: ChaosDensity, v, p_frozen, alpha: float, grid: QuadratureGrid) -> float:
    """The drift bracket 1 + ||v||_{L^1(mu)} (log(1 + ||v||_{L^1(mu)}))^alpha
    reported alongside the monitored functional."""
    vvals = v.eval_v(p_frozen, grid.nodes, grid)
    f = np.clip(rho.evaluate(grid.nodes), 0.0, None)
    l1 = float(np.sum(grid.weights * np.linalg.norm(vvals, axis=1) * f))
    return 1.0 + l1 * math.log1p(l1) ** alpha


@dataclass(frozen=True)
class FisherReport:
    fisher: float | None
    drift_energy_gamma: float | None
    drift_energy_mu: float | None
    skipped: bool = False
    reason: str = ""


def fisher_energy(rho: ChaosDensity, v, p_frozen, grid: QuadratureGrid) -> FisherReport:
    """Monitored relative Fisher information |grad rho|^2 / rho against the
    drift energies |b|^2 integrated under gamma and under mu = rho * gamma.

    Both candidate right-hand sides are reported; neither is asserted.
    Skipped (with reason) when the positive part carries too little mass.
    """
    vals = rho.evaluate(grid.nodes)
    positive_mass = float(np.sum(grid.weights[vals > 0.0]))
    if positive_mass < FISHER_MASS_REQUIRED:
        return FisherReport(
            None,
            None,
            None,
            skipped=True,
            reason=f"positive-part mass {positive_mass:.8f} below {FISHER_MASS_REQUIRED}",
        )
    grads = rho.gradient(grid.nodes)
    mask = vals > FISHER_FLOOR
    fisher = float(
        np.sum(grid.weights[mask] * np.sum(grads[mask] ** 2, axis=1) / vals[mask])
    )
    b = v.eval_v(p_frozen, grid.nodes, grid) - grid.nodes
    b_sq = np.sum(b * b, axis=1)
    energy_gamma = float(np.sum(grid.weights * b_sq))
    energy_mu = float(np.sum(grid.weights * b_sq * np.clip(vals, 0.0, None)))
    return FisherReport(fisher, energy_gamma, energy_mu)
