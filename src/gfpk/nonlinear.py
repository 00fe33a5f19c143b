"""Nonlinear stationary solver: damped fixed-point iteration on the map
p -> rho_p, plus membership certification for the a-priori L^2 ball.

The update is p_{m+1} = (1 - theta) p_m + theta rho_{p_m}; the affine
combination preserves unit mass at every iterate.  Convergence is measured
in the strong L^2(gamma) norm (Parseval on the coefficients), which is
stronger than the weak closeness the existence argument needs.
"""
from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field

import numpy as np

from .basis import ChaosBasis, QuadratureGrid
from .density import ChaosDensity, as_measure
from .diagnostics import b1_bound
from .errors import NonConvergenceError
from .linear import assemble, solve_linear, solve_system


@dataclass(frozen=True)
class FixedPointOptions:
    damping: float = 0.5
    tolerance: float = 1e-10
    max_iterations: int = 100
    initial: ChaosDensity | None = None  # default: the constant density

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class FixedPointTrace:
    """Per-iteration convergence records."""

    deltas: list = field(default_factory=list)  # ||p_{m+1} - p_m||
    psi_residuals: list = field(default_factory=list)  # ||rho_{p_m} - p_m||
    l2_norms_sq: list = field(default_factory=list)  # ||p_m||^2
    in_ball: list = field(default_factory=list)  # membership flag, or None
    iterations: int = 0
    converged: bool = False

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["iteration", "delta", "psi_residual", "l2sq", "in_schauder_set"])
        for m in range(len(self.psi_residuals)):
            writer.writerow(
                [
                    m,
                    repr(self.deltas[m]) if m < len(self.deltas) else "",
                    repr(self.psi_residuals[m]),
                    repr(self.l2_norms_sq[m]),
                    self.in_ball[m],
                ]
            )
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
    """Iterate the damped map until ||rho_p - p|| falls below the tolerance.

    Returns the last linear solve's output (so the result is itself a
    solution of the linear equation frozen at the final iterate) together
    with the full trace.  Raises NonConvergenceError, carrying the trace,
    when the iteration budget runs out.
    """
    p = opts.initial if opts.initial is not None else ChaosDensity.constant(basis)
    theta = opts.damping
    ball_radius_sq = b1_bound(v.c0) if np.isfinite(v.c0) else None
    trace = FixedPointTrace()
    # the dense assembly's P x M table is built at most once per solve, and
    # only if the separable path declines
    dense_table = functools.cache(lambda: basis.eval_matrix(grid.nodes))
    for _ in range(opts.max_iterations + 1):
        measure = as_measure(p, grid)
        rho = solve_system(assemble(v, measure, basis, grid, dense_table))
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
        new_coeffs = (1.0 - theta) * p.coefficients + theta * rho.coefficients
        p_next = ChaosDensity(basis, new_coeffs)
        trace.deltas.append(l2_distance(p_next, p))
        trace.iterations += 1
        p = p_next
    raise NonConvergenceError(
        f"fixed point not reached within {opts.max_iterations} iterations "
        f"(last residual {trace.psi_residuals[-1]:.3e}, tolerance {opts.tolerance:.1e}); "
        "consider a smaller damping factor",
        trace=trace,
    )


def solve_stationary(v, basis, grid, opts: FixedPointOptions) -> tuple[ChaosDensity, FixedPointTrace | None]:
    """(rho, trace) of the fixed point for a drift that reads the measure;
    (rho, None) of one linear solve for any other."""
    if not v.reads_measure:
        return solve_linear(v, None, basis, grid), None
    return fixed_point_solve(v, basis, grid, opts)


def schauder_membership(rho: ChaosDensity, c0: float) -> tuple[bool, float]:
    """Check membership in the a-priori ball: sum c^2 <= B(C0).

    Returns (flag, margin) with margin = B(C0) - ||rho||^2.
    """
    radius_sq = b1_bound(c0)
    margin = radius_sq - rho.l2_norm_sq()
    return margin >= 0.0, margin
