"""Nonlinear stationary solver: Anderson-mixed fixed-point iteration on the
map p -> rho_p, whose trace flags each iterate's membership in the a-priori
L^2 ball.

With x_m the coefficients of p_m and f_m = rho_{p_m} - x_m, a damped step is
x_{m+1} = (1 - theta) x_m + theta rho_{p_m}.  An Anderson (type-II) step
keeps the last `memory` differences dX, dF of the iterates and residuals,
takes gamma = argmin |dF gamma - f_m| and steps to
x_m + theta f_m - (dX + theta dF) gamma (Walker & Ni 2011).  The first step
is damped, and so is every step after the residual |f| grows: the history
is cleared and rebuilt.  memory = 0 is damped Picard throughout.  Every
iterate has c_0 = 1 exactly, so unit mass holds.  Convergence is measured in
the strong L^2(gamma) norm (Parseval on the coefficients), which is stronger
than the weak closeness the existence argument needs.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .basis import ChaosBasis, QuadratureGrid
from .density import ChaosDensity
from .diagnostics import b1_bound
from .errors import NonConvergenceError, NumericError
from .linear import assemble, solve_linear, solve_system


@dataclass(frozen=True)
class FixedPointOptions:
    damping: float = 0.5
    tolerance: float = 1e-10
    max_iterations: int = 100
    memory: int = 5  # Anderson history pairs; 0 is damped Picard
    initial: ChaosDensity | None = None  # default: the constant density

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.memory < 0:
            raise ValueError("memory must be >= 0")


@dataclass
class FixedPointTrace:
    """Per-iteration convergence records."""

    deltas: list = field(default_factory=list)  # ||p_{m+1} - p_m||
    psi_residuals: list = field(default_factory=list)  # ||rho_{p_m} - p_m||
    l2_norms_sq: list = field(default_factory=list)  # ||p_m||^2
    in_ball: list = field(default_factory=list)  # membership flag, or None
    depths: list = field(default_factory=list)  # history pairs a step mixed; 0: damped
    iterations: int = 0
    converged: bool = False

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["iteration", "delta", "psi_residual", "l2sq", "in_schauder_set", "depth"])
        for m in range(len(self.psi_residuals)):
            stepped = m < len(self.deltas)  # the last iterate took no step
            writer.writerow([m, self.deltas[m] if stepped else None, self.psi_residuals[m], self.l2_norms_sq[m],
                             self.in_ball[m], self.depths[m] if stepped else None])
        return buf.getvalue()


def l2_distance(a: ChaosDensity, b: ChaosDensity) -> float:
    """Strong L^2(gamma) distance via Parseval (same basis required)."""
    if a.basis is not b.basis and a.basis != b.basis:
        raise ValueError("densities live on different bases")
    return float(np.linalg.norm(a.coefficients - b.coefficients))


def fixed_point_solve(
    v,
    basis: ChaosBasis,
    grid: QuadratureGrid,
    opts: FixedPointOptions = FixedPointOptions(),
) -> tuple[ChaosDensity, FixedPointTrace]:
    """Iterate the mixed map until ||rho_p - p|| falls below the tolerance.

    Each iterate is read as the drift's measure (v.read_measure).  Returns
    the last linear solve's output (so the result is itself a solution of the
    linear equation frozen at the final iterate) together with the full
    trace.  Raises NonConvergenceError, carrying the trace, when the
    iteration budget runs out.
    """
    p = opts.initial if opts.initial is not None else ChaosDensity.constant(basis)
    theta = opts.damping
    try:
        ball_radius_sq = b1_bound(v.c0)
    except NumericError:  # no finite radius: the monitored flags stay None
        ball_radius_sq = None
    trace = FixedPointTrace()
    dx, df = [], []  # the last `memory` differences of iterates and residuals
    for _ in range(opts.max_iterations + 1):
        measure = v.read_measure(p, grid)
        rho = solve_system(basis, assemble(v, measure, basis, grid))
        psi_res = l2_distance(rho, p)
        trace.psi_residuals.append(psi_res)
        trace.l2_norms_sq.append(p.l2_norm_sq())
        trace.in_ball.append(
            None if ball_radius_sq is None else bool(p.l2_norm_sq() <= ball_radius_sq)
        )
        if psi_res <= opts.tolerance:
            trace.converged = True
            return rho, trace
        if trace.iterations >= opts.max_iterations:
            break
        x, f = p.coefficients, rho.coefficients - p.coefficients
        if trace.iterations and opts.memory:
            if psi_res > trace.psi_residuals[-2]:  # restart: a damped step
                dx, df = [], []
            else:
                dx = (dx + [x - x_prev])[-opts.memory :]
                df = (df + [f - f_prev])[-opts.memory :]
        if dx:
            d_x, d_f = np.column_stack(dx), np.column_stack(df)
            gamma = np.linalg.lstsq(d_f, f, rcond=None)[0]
            new_coeffs = x + theta * f - (d_x + theta * d_f) @ gamma
            new_coeffs[0] = 1.0
        else:
            new_coeffs = (1.0 - theta) * x + theta * rho.coefficients
        x_prev, f_prev = x, f
        p_next = ChaosDensity(basis, new_coeffs)
        trace.deltas.append(l2_distance(p_next, p))
        trace.depths.append(len(dx))
        trace.iterations += 1
        p = p_next
    raise NonConvergenceError(
        f"fixed point not reached within {opts.max_iterations} iterations "
        f"(last residual {trace.psi_residuals[-1]:.3e}, tolerance {opts.tolerance:.1e}); "
        f"each step mixes up to memory={opts.memory} earlier steps (Anderson) and falls "
        "back to a damped step after the residual grows; consider a smaller damping "
        "factor or memory 0 (damped Picard)",
        trace=trace,
    )


def solve_stationary(v, basis, grid, opts: FixedPointOptions) -> tuple[ChaosDensity, FixedPointTrace | None]:
    """(rho, trace) of the fixed point for a drift that reads the measure;
    (rho, None) of one linear solve for any other."""
    if not v.reads_measure:
        return solve_linear(v, None, basis, grid), None
    return fixed_point_solve(v, basis, grid, opts)

