"""Dimension ladder: solve the k-dimensional nonlinear problems for
k = 1..K with a componentwise-bounded drift, certify the weighted
second-moment (Lyapunov) bound at every level and quantify how the
marginals stabilize as the dimension grows.

The weighted norm |x|^2 = sum_n alpha_n x_n^2 with summable weights gives
the moment certificate m_k <= (2 + C^2) T, where C is the componentwise
drift bound and T the full weight sum.  Chebyshev then turns the uniform
moments into tail-mass control, the computable shadow of tightness.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import enumerate_basis, tensor_grid
from .density import BumpTest, ChaosDensity, HermiteTest, as_measure
from .drift import COMPONENTWISE_BOUND
from .errors import NonConvergenceError
from .nonlinear import FixedPointOptions, fixed_point_solve

MAX_WEIGHT_RATIO = 0.9  # enforced geometric decay of the weights


@dataclass(frozen=True)
class LadderConfig:
    """Weights, drift bound, truncation schedule and test battery."""

    weights: tuple[float, ...]  # alpha_1 .. alpha_{n_max}, geometric decay
    component_bound: float  # C
    levels: tuple[int, ...]  # dimensions k, increasing
    degrees: tuple[int, ...]  # basis degree per level
    quad_orders: tuple[int, ...]  # quadrature order per level
    tail_levels: tuple[float, ...] = (1.0, 2.0, 4.0)
    fixed_point: FixedPointOptions = FixedPointOptions()

    def __post_init__(self):
        if len(self.levels) != len(self.degrees) or len(self.levels) != len(self.quad_orders):
            raise ValueError("levels, degrees and quad_orders must have equal length")
        if list(self.levels) != sorted(self.levels) or len(set(self.levels)) != len(self.levels):
            raise ValueError("levels must be strictly increasing")
        if self.levels[-1] > len(self.weights):
            raise ValueError("need one weight per coordinate up to the deepest level")
        if len(self.weights) < 2:
            raise ValueError("need two weights at least: their ratio bounds the weight tail")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        for a, b in zip(self.weights[:-1], self.weights[1:]):
            if b / a > MAX_WEIGHT_RATIO:
                raise ValueError(
                    f"weight ratio {b / a:.3f} exceeds {MAX_WEIGHT_RATIO}; "
                    "weights must decay geometrically"
                )
        if self.component_bound < 0:
            raise ValueError("component bound must be nonnegative")

    @property
    def weight_total(self) -> float:
        """T: configured weight sum plus a geometric bound on the tail."""
        ratio = max(b / a for a, b in zip(self.weights[:-1], self.weights[1:]))
        tail = self.weights[-1] * ratio / (1.0 - ratio)
        return float(sum(self.weights) + tail)

    @property
    def moment_threshold(self) -> float:
        return (2.0 + self.component_bound**2) * self.weight_total

    def check_drift(self, v):
        """Raise ValueError unless v is componentwise bounded by at most
        component_bound, the C the moment threshold is computed from."""
        if v.bound_kind != COMPONENTWISE_BOUND:
            raise ValueError(f"the moment threshold needs a componentwise-bounded drift, not a {v.kind} drift")
        if v.bound > self.component_bound:
            raise ValueError(f"component_bound={self.component_bound!r} is below the drift's bound {v.bound!r}")


def default_battery(k: int) -> list:
    """Coordinates, squared coordinates and three bumps per coordinate."""
    battery = []
    for i in range(k):
        beta = [0] * k
        beta[i] = 1
        battery.append(HermiteTest(tuple(beta)))
        beta2 = [0] * k
        beta2[i] = 2
        battery.append(HermiteTest(tuple(beta2)))
        for center in (-1.0, 0.0, 1.0):
            battery.append(BumpTest(active=(i,), center=(center,), radius=2.0))
    return battery


def lyapunov_moment(rho: ChaosDensity, weights) -> float:
    """Weighted second moment sum_n alpha_n E_mu[x_n^2], exactly from the
    chaos coefficients via x^2 = sqrt(2) h_2(x) + 1."""
    if rho.basis.degree < 2:
        raise ValueError("basis degree must be at least 2 for second moments")
    total = 0.0
    for n in range(rho.k):
        idx = [0] * rho.k
        idx[n] = 2
        c2 = rho.coefficients[rho.basis.position(tuple(idx))]
        total += weights[n] * (1.0 + math.sqrt(2.0) * c2)
    return float(total)


def _battery_integrals(rho: ChaosDensity, grid, battery) -> list:
    """integral phi d(mu) for each phi of the battery; rho is evaluated on
    the grid once for the whole battery.  A test reading a coordinate the
    density does not have is a ValueError."""
    for phi in battery:
        if (len(phi.beta) if isinstance(phi, HermiteTest) else max(phi.active) + 1) > rho.k:
            raise ValueError(f"battery test {phi} reads a coordinate beyond the density's k={rho.k}")
    rvals = rho.evaluate(grid)
    return [float(np.sum(grid.weights * phi.value(grid.nodes) * rvals)) for phi in battery]


def marginal_distance(rho_a, grid_a, rho_b, grid_b, battery) -> float:
    """Max over the battery of |int phi d(mu_a) - int phi d(mu_b)|.  Every
    test reads only coordinates both densities have, so a higher-dimensional
    measure enters through its marginal on them."""
    if not battery:
        raise ValueError("battery must be non-empty")
    a = _battery_integrals(rho_a, grid_a, battery)
    b = _battery_integrals(rho_b, grid_b, battery)
    return max(abs(da - db) for da, db in zip(a, b))


@dataclass
class LevelReport:
    k: int
    degree: int
    quad_order: int
    solution: ChaosDensity
    moment: float
    threshold: float
    quad_error: float
    passed: bool
    tail_masses: dict
    distance_to_next: float | None = None
    iterations: int = 0


@dataclass
class LadderReport:
    config: LadderConfig
    levels: list = field(default_factory=list)
    completed: bool = True
    failure: str = ""

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        tails = sorted(self.levels[0].tail_masses) if self.levels else []
        writer.writerow(
            ["k", "moment", "threshold", "pass", "d_next"] + [f"tail@{r}" for r in tails]
        )
        for lv in self.levels:
            writer.writerow(
                [
                    lv.k,
                    repr(lv.moment),
                    repr(lv.threshold),
                    lv.passed,
                    "" if lv.distance_to_next is None else repr(lv.distance_to_next),
                ]
                + [repr(lv.tail_masses[r]) for r in tails]
            )
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "weight_total": self.config.weight_total,
            "component_bound": self.config.component_bound,
            "completed": self.completed,
            "failure": self.failure,
            "levels": [
                {
                    "k": lv.k,
                    "degree": lv.degree,
                    "quad_order": lv.quad_order,
                    "moment": lv.moment,
                    "threshold": lv.threshold,
                    "quad_error": lv.quad_error,
                    "pass": lv.passed,
                    "tail_masses": {str(r): m for r, m in lv.tail_masses.items()},
                    "distance_to_next": lv.distance_to_next,
                    "iterations": lv.iterations,
                    "solution": lv.solution.to_json_dict(),
                }
                for lv in self.levels
            ],
        }


def run_ladder(drift, cfg: LadderConfig) -> LadderReport:
    """Solve the nonlinear problem level by level, seeding each dimension
    with the zero-padded solution of the previous one.  drift maps k to the
    k-dimensional drift, which cfg.check_drift must accept.  Adjacent levels
    are compared on the default battery of the lower one.

    A non-convergent level aborts the ladder and returns the partial report
    with the failure message recorded.
    """
    report = LadderReport(config=cfg)
    previous = None  # (rho, grid)
    for k, degree, q in zip(cfg.levels, cfg.degrees, cfg.quad_orders):
        basis = enumerate_basis(k, degree)
        grid = tensor_grid(q, k)
        v_k = drift(k)
        cfg.check_drift(v_k)
        seed = None
        if previous is not None:
            seed = _zero_pad(previous[0], basis)
        try:
            rho, trace = fixed_point_solve(v_k, basis, grid, replace(cfg.fixed_point, initial=seed))
        except NonConvergenceError as exc:
            report.completed = False
            report.failure = f"level k={k}: {exc}"
            break
        moment = lyapunov_moment(rho, cfg.weights)
        quad_error = max(cfg.fixed_point.tolerance, trace.psi_residuals[-1]) * sum(
            cfg.weights[:k]
        )
        tail_masses = _tail_masses(rho, grid, cfg.weights[:k], cfg.tail_levels)
        level = LevelReport(
            k=k,
            degree=degree,
            quad_order=q,
            solution=rho,
            moment=moment,
            threshold=cfg.moment_threshold,
            quad_error=quad_error,
            passed=moment <= cfg.moment_threshold + quad_error,
            tail_masses=tail_masses,
            iterations=trace.iterations,
        )
        if previous is not None:
            report.levels[-1].distance_to_next = marginal_distance(
                previous[0], previous[1], rho, grid, default_battery(previous[0].k)
            )
        report.levels.append(level)
        previous = (rho, grid)
    return report


def _zero_pad(rho: ChaosDensity, basis) -> ChaosDensity:
    """Embed a lower-dimensional solution into a larger basis by treating the
    new coordinates as independent standard Gaussians (zero exponents)."""
    target = basis.embed(rho.basis, range(rho.k))
    held = target >= 0
    coeffs = np.zeros(basis.size)
    coeffs[target[held]] = rho.coefficients[held]
    coeffs[0] = 1.0
    return ChaosDensity(basis, coeffs)


def _tail_masses(rho, grid, weights, levels) -> dict:
    """mu(V > R) under the clipped quadrature measure, V the weighted norm."""
    measure = as_measure(rho, grid)
    vvals = measure.points**2 @ np.asarray(weights)
    return {float(r): float(np.sum(measure.masses[vvals > r])) for r in levels}
