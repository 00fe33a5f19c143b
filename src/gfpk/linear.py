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

from .basis import ChaosBasis, QuadratureGrid, hermite_table, product_grid, uniform_gaussian_grid
from .density import BumpTest, ChaosDensity, HermiteTest, marginal
from .drift import SeparableField
from .errors import SolverError

CONDITION_LIMIT = 1e12
# Largest deviation of H1 diag(w1) H1^T from I (of H1 w1 from e_0) for which a
# 1-D rule counts as orthonormal (exact) up to the basis degree.
ORTHONORMAL_TOL = 1e-13
# (span, nodes) of the uniform rule for a bump's active coordinates; the
# default bumps live in [-4, 4] (residual_suite)
BUMP_RULE = (6.0, 401)
BLOCK_NODES = 1_000_000  # most nodes per drift and density read of _bump_defects


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
    """A[beta, alpha] from k dense P x M x P quadrature Gram products, for
    any drift and grid: the non-separable assembly, and the reference."""
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


def hermite_defects(rho: ChaosDensity, v, p_frozen, grid: QuadratureGrid, vvals=None, vals=None) -> np.ndarray:
    """(A c - D c)_beta = -|beta| c_beta + sum_i sqrt(beta_i) <v_i rho,
    h_{beta - e_i}> for every beta of rho's basis, from the projections of
    v_i rho read on every node of grid (vvals, vals when given): no code
    shared with either assembly and no P x M array (ChaosBasis.project)."""
    basis = rho.basis
    _check_sizes(v, basis, grid)
    vvals = v.eval_v(p_frozen, grid.nodes) if vvals is None else vvals
    vals = rho.evaluate(grid) if vals is None else vals
    projections = basis.project(vvals.T * vals, grid)  # (k, P)
    # (P, k); the -1 entries of the lowering table meet sqrt(beta_i) = 0
    lowered = projections.T[basis.lowering_table(), np.arange(basis.k)]
    return np.sum(np.sqrt(basis.exponents) * lowered, axis=1) - basis.degrees() * rho.coefficients


def residual(rho: ChaosDensity, v, p_frozen, phi, grid: QuadratureGrid) -> float:
    """Weak-identity defect integral [Lap(phi) - x.grad(phi) + v.grad(phi)] rho dgamma.

    Entry beta of hermite_defects for h_beta, beta in rho's basis: zero up to
    solver tolerance for a Galerkin solution.  A bump takes residual_suite's
    path (_bump_defects) on grid; quadrature and truncation limit it.
    """
    if isinstance(phi, BumpTest):
        return _bump_defects([phi], rho, v, p_frozen, lambda axes: grid)[0]
    if not isinstance(phi, HermiteTest):
        raise TypeError(f"unsupported test function type {type(phi).__name__}")
    if tuple(phi.beta) not in rho.basis.index_map:
        raise ValueError(f"Hermite test {tuple(phi.beta)} is not in the density's basis")
    return float(hermite_defects(rho, v, p_frozen, grid)[rho.basis.position(phi.beta)])


def _integrates_exactly(rule, degree: int) -> bool:
    """Whether the 1-D rule (x, w) integrates h_0..h_degree exactly (to ORTHONORMAL_TOL)."""
    return np.max(np.abs(hermite_table(degree, rule[0]) @ rule[1] - np.eye(degree + 1)[0])) <= ORTHONORMAL_TOL


def _bump_defects(bumps, rho, v, p_frozen, grid_for) -> list[float]:
    """sum_m w_m rho_m [Lap(phi) + (v - x).grad(phi)](x_m) per bump phi over
    the grid grid_for(A), A = sorted(phi.active).  Per active set, w rho and
    w rho (v_i - x_i), i in A, are summed over the nodes that share x_A
    (grid.axis_sums), reading the grid in blocks of at most BLOCK_NODES
    nodes; each bump is then evaluated at the q^|A| values of x_A only.
    For A = {i}, a SeparableField and other rules exact to degree N (a
    Gauss-Hermite rule of q >= (N + 1) / 2 nodes), those sums are w_z rho_i(z)
    and w_z rho_i(z) (v_i(z) - z) on the rule of x_i, rho_i = marginal(rho, [i])."""
    grouped, out = {}, []
    for phi in bumps:
        axes = sorted(phi.active)
        if tuple(axes) not in grouped:
            grid = grid_for(axes)
            if len(axes) == 1 and isinstance(v, SeparableField) and all(
                _integrates_exactly(r, rho.basis.degree) for a, r in enumerate(grid.rules) if a not in axes
            ):
                line = product_grid([grid.rules[axes[0]]], grid.q)
                z, weighted = line.nodes[:, 0], line.weights * marginal(rho, axes).evaluate(line)
                sums = np.column_stack([weighted, weighted * (v.eval_axes(p_frozen, z)[:, axes[0]] - z)])
            else:
                sums = np.zeros(tuple(grid.shape[a] for a in axes) + (1 + len(axes),))
                for block, place in grid.blocks(BLOCK_NODES):
                    x = block.nodes
                    weighted = block.weights * rho.evaluate(block)
                    terms = np.column_stack([weighted, weighted[:, None] * (v.eval_v(p_frozen, x)[:, axes] - x[:, axes])])
                    sums[tuple(place[a] for a in axes)] += block.axis_sums(terms, axes)
            grouped[tuple(axes)] = grid.axis_points(axes), sums.reshape(-1, 1 + len(axes))
        points, sums = grouped[tuple(axes)]
        grad_flux = np.sum(phi.gradient(points)[:, axes] * sums[:, 1:], axis=1)
        out.append(float(np.sum(phi.laplacian(points) * sums[:, 0] + grad_flux)))
    return out


def residual_suite(rho, v, p_frozen, grid, bump_tests=(), vvals=None, vals=None):
    """Residuals for every Hermite test of degree <= N plus optional bumps.

    The Hermite residuals (hermite_defects) are projected from node values,
    so they cross-check either assembly; system_norm = ||D - A||_1 comes
    from assemble, dense only where the solve is.  A bump reading x_A is
    integrated on grid's own rules with the rules of A replaced by the
    uniform BUMP_RULE, which resolves the compactly supported bumps where a
    Gauss-Hermite rule does not; bumps of one active set share that grid
    (_bump_defects).  vvals, vals: see hermite_defects.  Returns (hermite_max,
    system_norm, bump_values); callers compare hermite_max against tol * (1 + system_norm).
    """
    hermite_max = float(np.max(np.abs(hermite_defects(rho, v, p_frozen, grid, vvals, vals)[1:]), initial=0.0))
    rule = uniform_gaussian_grid(*BUMP_RULE).rules[0]
    swapped = lambda axes: product_grid([rule if i in axes else r for i, r in enumerate(grid.rules)], grid.q)
    return hermite_max, assemble(v, p_frozen, rho.basis, grid).norm(), _bump_defects(bump_tests, rho, v, p_frozen, swapped)
