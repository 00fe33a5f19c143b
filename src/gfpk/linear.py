"""Linear stationary solver: for a frozen measure argument p (a PointMeasure,
or None for a drift that ignores it), assemble and solve the Galerkin
truncation of L*_{b(p,.)}(rho * gamma) = 0.

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
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

from .basis import ChaosBasis, QuadratureGrid
from .density import BumpTest, ChaosDensity, HermiteTest
from .drift import SeparableField
from .errors import SolverError

CONDITION_LIMIT = 1e12
# Largest deviation of H1 diag(w1) H1^T from the identity for which a 1-D
# rule counts as orthonormal up to the basis degree (separable_interaction).
ORTHONORMAL_TOL = 1e-13


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


def assemble(v, p, basis: ChaosBasis, grid: QuadratureGrid, dense_table=None) -> GalerkinSystem:
    """Quadrature assembly of the Galerkin system for drift v frozen at p.

    The interaction comes from 1-D Gram matrices when the drift is a
    SeparableField and the grid allows it (separable_interaction) and from
    the dense quadrature sum otherwise.  dense_table, a callable returning
    basis.eval_matrix(grid.nodes), lets callers that assemble repeatedly on
    one grid build that P x M table once, and only if the dense path runs.
    """
    _check_sizes(v, basis, grid)
    interaction = separable_interaction(basis, grid, v, p)
    if interaction is None:
        h = None if dense_table is None else dense_table()
        interaction = dense_interaction(basis, grid, v.eval_v(p, grid.nodes), h)
    return GalerkinSystem(basis=basis, ou_diagonal=basis.degrees(), interaction=interaction)


def _check_sizes(v, basis: ChaosBasis, grid: QuadratureGrid):
    if grid.q < basis.degree + 1:
        raise ValueError(
            f"quadrature order {grid.q} too small for basis degree {basis.degree}"
        )
    if v.k != basis.k:
        raise ValueError(f"drift dimension {v.k} != basis dimension {basis.k}")


def dense_interaction(
    basis: ChaosBasis, grid: QuadratureGrid, vvals: np.ndarray, h: np.ndarray | None = None
) -> np.ndarray:
    """A[beta, alpha] from k dense P x M x P quadrature Gram products; valid
    for any drift and any grid, and the reference for the separable path."""
    if h is None:
        h = basis.eval_matrix(grid.nodes)  # (P, M)
    lowering = basis.lowering_table()
    interaction = np.zeros((basis.size, basis.size))
    for i in range(basis.k):
        weighted = h * (grid.weights * vvals[:, i])  # (P, M)
        gram = weighted @ h.T  # gram[mu, alpha] = <v_i h_mu, h_alpha>
        rows = lowering[:, i]
        mask = rows >= 0
        interaction[mask] += np.sqrt(basis.exponents[mask, i])[:, None] * gram[rows[mask]]
    return interaction


def separable_interaction(basis: ChaosBasis, grid: QuadratureGrid, v, p) -> np.ndarray | None:
    """The dense quadrature sum regrouped into k 1-D Gram matrices, or None
    when the regrouping does not hold.

    It holds when v is a SeparableField and the grid is the product of a
    1-D rule (x1, w1) that is orthonormal up to the basis degree (to
    ORTHONORMAL_TOL).  Then, with u_i = w1 * v_i(p, x1), G_i = H1 diag(u_i)
    H1^T and basis.gram_pattern scatters sqrt(beta_i) G_i[beta_i - 1,
    alpha_i] into the P x P interaction.  v is read at the q nodes of x1
    only.
    """
    if not isinstance(v, SeparableField) or grid.axis_rule is None:
        return None
    x1, w1 = grid.axis_rule
    h1 = grid.hermite_tables(basis.degree)[0]  # (N+1, q), the table of x1
    if np.max(np.abs((h1 * w1) @ h1.T - np.eye(basis.degree + 1))) > ORTHONORMAL_TOL:
        return None
    u = w1 * v.eval_axes(p, x1).T  # (k, q)
    grams = np.einsum("na,ia,ma->inm", h1, u, h1)  # (k, N+1, N+1)
    target, source, scale = basis.gram_pattern
    size = basis.size
    flat = np.bincount(target, weights=scale * grams.ravel()[source], minlength=size * size)
    return flat.reshape(size, size)


def solve_system(system: GalerkinSystem) -> ChaosDensity:
    """Solve the assembled truncation for the density coefficients.

    One LU factorization (LAPACK dgetrf) serves the solve and the 1-norm
    condition estimate (dgecon), which must stay below CONDITION_LIMIT.
    """
    mat = system.matrix
    coeffs = np.empty(system.basis.size)
    coeffs[0] = 1.0
    if mat.size:
        lu, piv, _ = dgetrf(mat)
        rcond, _ = dgecon(lu, np.linalg.norm(mat, 1), norm="1")
        cond = 1.0 / rcond if rcond > 0.0 else np.inf
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise SolverError(
                f"Galerkin matrix condition estimate {cond:.3g} exceeds "
                f"{CONDITION_LIMIT:.0e}; increase the basis degree or reduce the drift"
            )
        coeffs[1:], _ = dgetrs(lu, piv, system.rhs)
    return ChaosDensity(system.basis, coeffs)


def solve_linear(v, p, basis: ChaosBasis, grid: QuadratureGrid) -> ChaosDensity:
    """The map p -> rho_p: unique truncated density solving the linear
    equation with the drift frozen at p."""
    return solve_system(assemble(v, p, basis, grid))


def residual(rho: ChaosDensity, v, p_frozen, phi, grid: QuadratureGrid) -> float:
    """Weak-identity defect integral [Lap(phi) - x.grad(phi) + v.grad(phi)] rho dgamma.

    Vanishes (up to solver tolerance) for Galerkin solutions tested with
    Hermite polynomials of degree <= N; for bump tests the magnitude is
    limited by quadrature and truncation error.  Bumps take residual_suite's
    path (_bump_defects): phi is evaluated only at the distinct values of x_A.
    """
    vvals = v.eval_v(p_frozen, grid.nodes)
    rvals = rho.evaluate(grid)
    if isinstance(phi, BumpTest):
        return _bump_defects([phi], grid.nodes, grid.weights * rvals, vvals)[0]
    if not isinstance(phi, HermiteTest):
        raise TypeError(f"unsupported test function type {type(phi).__name__}")
    x = grid.nodes
    # OU part exactly: (Lap - x.grad) h_beta = -|beta| h_beta
    ou = -float(sum(phi.beta)) * phi.value(x)
    integrand = ou + np.sum(vvals * phi.gradient(x), axis=1)
    return float(np.sum(grid.weights * integrand * rvals))


def _bump_defects(bumps, x: np.ndarray, weighted: np.ndarray, vvals: np.ndarray) -> list[float]:
    """sum_m weighted_m [Lap(phi) + (v - x).grad(phi)](x_m) per bump phi, regrouped
    exactly over the distinct values of x_A, all phi reads (A = phi.active): 1-D
    np.unique and bincount at O(M log M) per active set, then O(q^|A|) per bump."""
    grouped, out = {}, []
    for phi in bumps:
        if phi.active not in grouped:
            group = np.zeros(x.shape[0], dtype=np.intp)
            for i in phi.active:  # one unique per axis, one to merge it in
                values, inverse = np.unique(x[:, i], return_inverse=True)
                first, group = np.unique(group * values.size + inverse, return_index=True, return_inverse=True)[1:]
            flux = [np.bincount(group, weighted * (vvals[:, i] - x[:, i]), first.size) for i in phi.active]
            grouped[phi.active] = x[first], np.bincount(group, weighted, first.size), np.stack(flux, axis=1)
        points, mass, flux = grouped[phi.active]
        grad_flux = np.sum(phi.gradient(points)[:, phi.active] * flux, axis=1)
        out.append(float(np.sum(phi.laplacian(points) * mass + grad_flux)))
    return out


def residual_suite(rho, v, p_frozen, grid, bump_tests=(), bump_grid=None):
    """Residuals for every Hermite test of degree <= N plus optional bumps.

    The residuals use the dense assembly whatever path the solve took, so
    they cross-check the separable assembly.  The bump residuals are taken
    on bump_grid (default: grid), where the drift and the density are
    evaluated once for all bumps and each bump only at the distinct values
    of its active coordinates (_bump_defects).  Returns (hermite_max,
    system_norm, bump_values); callers compare hermite_max against
    tol * (1 + system_norm).
    """
    basis = rho.basis
    _check_sizes(v, basis, grid)
    vvals = v.eval_v(p_frozen, grid.nodes)
    system = GalerkinSystem(basis, basis.degrees(), dense_interaction(basis, grid, vvals))
    coeffs = rho.coefficients
    full = system.interaction @ coeffs - system.ou_diagonal * coeffs
    hermite_max = float(np.max(np.abs(full[1:]))) if rho.basis.size > 1 else 0.0
    bump_values = []
    if bump_tests:
        bgrid = grid if bump_grid is None else bump_grid
        bvals = v.eval_v(p_frozen, bgrid.nodes)
        bump_values = _bump_defects(bump_tests, bgrid.nodes, bgrid.weights * rho.evaluate(bgrid), bvals)
    return hermite_max, system.norm(), bump_values
