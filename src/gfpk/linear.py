"""Linear stationary solver: for a frozen measure argument p, assemble and
solve the Galerkin truncation of L*_{b(p,.)}(rho * gamma) = 0.

Testing the weak identity with phi = h_beta and using
(Laplacian - x.grad) h_beta = -|beta| h_beta and
d/dx_i h_beta = sqrt(beta_i) h_{beta - e_i} gives, per index beta != 0,

    -|beta| c_beta + sum_alpha A[beta, alpha] c_alpha = 0,
    A[beta, alpha] = sum_i sqrt(beta_i) <v_i(p, .) h_{beta - e_i}, h_alpha>_gamma,

with c_0 = 1 pinned by unit mass.  This is the map p -> rho_p whose fixed
points solve the nonlinear problem.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ChaosBasis, QuadratureGrid
from .density import BumpTest, ChaosDensity, HermiteTest
from .errors import SolverError

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class GalerkinSystem:
    """Assembled truncation: OU diagonal, interaction matrix, basis handle."""

    basis: ChaosBasis
    ou_diagonal: np.ndarray  # (P,), entry |beta|
    interaction: np.ndarray  # (P, P), the only drift- and p-dependent block

    @property
    def matrix(self) -> np.ndarray:
        """System matrix (D - A) restricted to the non-constant block."""
        return np.diag(self.ou_diagonal[1:]) - self.interaction[1:, 1:]

    @property
    def rhs(self) -> np.ndarray:
        """Right-hand side contributed by the pinned constant coefficient."""
        return self.interaction[1:, 0]

    def norm(self) -> float:
        return float(np.linalg.norm(np.diag(self.ou_diagonal) - self.interaction, 1))


def assemble(
    v,
    p,
    basis: ChaosBasis,
    grid: QuadratureGrid,
    h: np.ndarray | None = None,
    lowering: np.ndarray | None = None,
) -> GalerkinSystem:
    """Quadrature assembly of the Galerkin system for drift v frozen at p.

    h = basis.eval_matrix(grid.nodes) and lowering = basis.lowering_table()
    do not depend on p; callers that assemble repeatedly on one grid pass
    them in instead of having them rebuilt.
    """
    if grid.q < basis.degree + 1:
        raise ValueError(
            f"quadrature order {grid.q} too small for basis degree {basis.degree}"
        )
    if v.k != basis.k:
        raise ValueError(f"drift dimension {v.k} != basis dimension {basis.k}")
    if h is None:
        h = basis.eval_matrix(grid.nodes)  # (P, M)
    if lowering is None:
        lowering = basis.lowering_table()
    vvals = v.eval_v(p, grid.nodes, grid)  # (M, k)
    exponents = np.array(basis.indices, dtype=float)
    interaction = np.zeros((basis.size, basis.size))
    for i in range(basis.k):
        weighted = h * (grid.weights * vvals[:, i])  # (P, M)
        gram = weighted @ h.T  # gram[mu, alpha] = <v_i h_mu, h_alpha>
        rows = lowering[:, i]
        mask = rows >= 0
        interaction[mask] += np.sqrt(exponents[mask, i])[:, None] * gram[rows[mask]]
    return GalerkinSystem(
        basis=basis, ou_diagonal=basis.degrees(), interaction=interaction
    )


def solve_system(system: GalerkinSystem) -> ChaosDensity:
    """Solve the assembled truncation for the density coefficients."""
    mat = system.matrix
    cond = np.linalg.cond(mat, 1)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SolverError(
            f"Galerkin matrix condition estimate {cond:.3g} exceeds "
            f"{CONDITION_LIMIT:.0e}; increase the basis degree or reduce the drift"
        )
    coeffs = np.empty(system.basis.size)
    coeffs[0] = 1.0
    coeffs[1:] = np.linalg.solve(mat, system.rhs)
    return ChaosDensity(system.basis, coeffs)


def solve_linear(v, p, basis: ChaosBasis, grid: QuadratureGrid) -> ChaosDensity:
    """The map p -> rho_p: unique truncated density solving the linear
    equation with the drift frozen at p."""
    return solve_system(assemble(v, p, basis, grid))


def residual(rho: ChaosDensity, v, p_frozen, phi, grid: QuadratureGrid) -> float:
    """Weak-identity defect integral [Lap(phi) - x.grad(phi) + v.grad(phi)] rho dgamma.

    Vanishes (up to solver tolerance) for Galerkin solutions tested with
    Hermite polynomials of degree <= N; for bump tests the magnitude is
    limited by quadrature and truncation error.
    """
    x = grid.nodes
    vvals = v.eval_v(p_frozen, x, grid)
    if isinstance(phi, HermiteTest):
        # OU part exactly: (Lap - x.grad) h_beta = -|beta| h_beta
        ou = -float(sum(phi.beta)) * phi.value(x)
        integrand = ou + np.sum(vvals * phi.gradient(x), axis=1)
    elif isinstance(phi, BumpTest):
        drift_full = vvals - x
        integrand = phi.laplacian(x) + np.sum(drift_full * phi.gradient(x), axis=1)
    else:
        raise TypeError(f"unsupported test function type {type(phi).__name__}")
    rvals = rho.evaluate(x)
    return float(np.sum(grid.weights * integrand * rvals))


def residual_suite(rho, v, p_frozen, grid, bump_tests=()):
    """Residuals for every Hermite test of degree <= N plus optional bumps.

    Returns (hermite_max, system_norm, bump_values); callers compare
    hermite_max against tol * (1 + system_norm).
    """
    system = assemble(v, p_frozen, rho.basis, grid)
    coeffs = rho.coefficients
    full = system.interaction @ coeffs - system.ou_diagonal * coeffs
    hermite_max = float(np.max(np.abs(full[1:]))) if rho.basis.size > 1 else 0.0
    bump_values = [residual(rho, v, p_frozen, phi, grid) for phi in bump_tests]
    return hermite_max, system.norm(), bump_values
