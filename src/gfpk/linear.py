"""Linear stationary solver: for a frozen measure argument p (what
v.read_measure gives: a PointMeasure, a MarginalMeasure for a SeparableField,
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

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location

import numpy as np

from .basis import ChaosBasis, QuadratureGrid, product_grid, uniform_gaussian_grid
from .density import BumpTest, ChaosDensity, HermiteTest, marginal_values
from .drift import SeparableField
from .errors import SolverError


def _lapack_routines(directory, name="scipy.linalg._flapack"):
    # scipy.linalg's __init__ costs ~0.25 s (numpy.f2py, .testing, .ma, .random); LAPACK needs none of it
    for path in (os.path.join(directory, "_flapack" + suffix) for suffix in EXTENSION_SUFFIXES):
        if name not in sys.modules and os.path.isfile(path):
            sys.modules[name] = module_from_spec(spec := spec_from_file_location(name, path))
            spec.loader.exec_module(sys.modules[name])
    if name not in sys.modules:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {directory}")
    return sys.modules[name].dgecon, sys.modules[name].dgetrf, sys.modules[name].dgetrs


# found, not imported: scipy/__init__.py pulls in subprocess, sysconfig and a version parser (~10 ms)
dgecon, dgetrf, dgetrs = _lapack_routines(os.path.join(find_spec("scipy").submodule_search_locations[0], "linalg"))
CONDITION_LIMIT = 1e12
# Largest deviation of H diag(w) H^T from I (of its row 0 from e_0) for which a
# 1-D rule counts as orthonormal (exact) up to the basis degree (grid.rule_defects).
ORTHONORMAL_TOL = 1e-13
# (span, nodes) of the uniform rule for a bump's active coordinates; the
# default bumps live in [-4, 4] (residual_suite)
BUMP_RULE = (6.0, 401)
# most nodes per drift and density read of _bump_defects, and most P x m
# table values per node block of dense_interaction
BLOCK_NODES = 1_000_000
# residual_suite's passes: hermite_max <= HERMITE_RESIDUAL_TOL * (1 + system_norm),
# and |bump residual| <= BUMP_RESIDUAL_TOL for every bump
HERMITE_RESIDUAL_TOL = 1e-10
BUMP_RESIDUAL_TOL = 1e-3


def assemble(v, p, basis: ChaosBasis, grid: QuadratureGrid, vvals=None) -> np.ndarray:
    """Quadrature assembly of the P x P interaction A for drift v frozen at
    p, the only block of the Galerkin system D - A that the drift sets.

    A comes from 1-D Gram matrices when the drift is a SeparableField and
    the grid allows it (separable_interaction) and from the dense
    quadrature sum otherwise (dense_interaction); vvals, v(p, grid.nodes)
    if the caller holds it, spares the dense sum its read of v.
    """
    _check_sizes(v, basis, grid)
    interaction = separable_interaction(basis, grid, v, p)
    if interaction is None:
        interaction = dense_interaction(basis, grid, v.eval_v(p, grid.nodes) if vvals is None else vvals)
    return interaction


def _check_sizes(v, basis: ChaosBasis, grid: QuadratureGrid):
    if grid.q < basis.degree + 1:
        raise ValueError(
            f"quadrature order {grid.q} too small for basis degree {basis.degree}"
        )
    if v.k != basis.k:
        raise ValueError(f"drift dimension {v.k} != basis dimension {basis.k}")


def dense_interaction(basis: ChaosBasis, grid: QuadratureGrid, vvals: np.ndarray) -> np.ndarray:
    """A[beta, alpha] from k dense quadrature Gram products h diag(w v_i) h^T,
    for any drift and grid: the non-separable assembly, and the reference.

    The grid is read in node blocks (grid.blocks) whose P x m tables h
    hold at most BLOCK_NODES values; vvals = v(p, grid.nodes) is taken a
    block of rows at a time.
    """
    lowering = basis.lowering_table()
    interaction = np.zeros((basis.size, basis.size))
    vvals = vvals.reshape(grid.shape + (basis.k,))
    for block, place in grid.blocks(max(1, BLOCK_NODES // basis.size)):
        h = basis.eval_matrix(block.nodes)  # (P, m)
        values = vvals[tuple(place)].reshape(-1, basis.k)
        for i in range(basis.k):
            gram = (h * (block.weights * values[:, i])) @ h.T  # gram[mu, alpha] = <v_i h_mu, h_alpha>
            rows = lowering[:, i]
            mask = rows >= 0
            interaction[mask] += np.sqrt(basis.exponents[mask, i])[:, None] * gram[rows[mask]]
    return interaction


def separable_interaction(basis: ChaosBasis, grid: QuadratureGrid, v, p) -> np.ndarray | None:
    """The dense quadrature sum regrouped into k 1-D Gram matrices, or None
    when the regrouping does not hold.

    It holds when v is a SeparableField and every 1-D rule (x_i, w_i) of the
    grid is orthonormal up to the basis degree (grid.rule_defects).  Then G_i =
    H_i diag(w_i v_i(p, x_i)) H_i^T and basis.gram_pattern scatters
    sqrt(beta_i) G_i[beta_i - 1, alpha_i] into the P x P interaction.  v is
    read on the 1-D rules only (eval_rules).
    """
    if not isinstance(v, SeparableField) or max(np.max(d) for d in grid.rule_defects(basis.degree)) > ORTHONORMAL_TOL:
        return None
    grams = np.stack([np.einsum("na,a,ma->nm", h, w * v_i, h)  # (k, N+1, N+1)
                      for h, (_, w), v_i in zip(grid.hermite_tables(basis.degree), grid.rules, v.eval_rules(p, grid))])
    target, source, scale = basis.gram_pattern
    size = basis.size
    flat = np.bincount(target, weights=scale * grams.ravel()[source], minlength=size * size)
    return flat.reshape(size, size).astype(float, copy=False)  # bincount of no entries (N = 0) is int


def solve_system(basis: ChaosBasis, interaction: np.ndarray) -> ChaosDensity:
    """Solve D - A, D = diag(|beta|), for the density coefficients: c_0 = 1
    is pinned, so column 0 of A is the right-hand side of the rest.

    One LU factorization (LAPACK dgetrf) serves the solve and the 1-norm
    condition estimate (dgecon), which must stay below CONDITION_LIMIT.
    D - A[1:, 1:] is formed as (0 - A) + D, bitwise the same, in the one
    Fortran-ordered array that dgetrf factors in place.
    """
    mat = np.subtract(0.0, interaction[1:, 1:], out=np.empty((basis.size - 1,) * 2, order="F"))
    mat.ravel(order="F")[:: basis.size] += basis.degrees()[1:]  # a view; the diagonal is every P-th entry
    coeffs = np.empty(basis.size)
    coeffs[0] = 1.0
    if mat.size:
        norm = np.linalg.norm(mat, 1)
        lu, piv, _ = dgetrf(mat, overwrite_a=1)
        rcond, _ = dgecon(lu, norm, norm="1")
        cond = 1.0 / rcond if rcond > 0.0 else np.inf
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise SolverError(
                f"Galerkin matrix condition estimate {cond:.3g} exceeds "
                f"{CONDITION_LIMIT:.0e}; increase the basis degree or reduce the drift"
            )
        coeffs[1:], _ = dgetrs(lu, piv, interaction[1:, 0])
    return ChaosDensity(basis, coeffs)


def solve_linear(v, p, basis: ChaosBasis, grid: QuadratureGrid) -> ChaosDensity:
    """The map p -> rho_p: unique truncated density solving the linear
    equation with the drift frozen at p."""
    return solve_system(basis, assemble(v, p, basis, grid))


def hermite_defects(rho: ChaosDensity, grid: QuadratureGrid, vals: np.ndarray, vvals: np.ndarray) -> np.ndarray:
    """(A c - D c)_beta = -|beta| c_beta + sum_i sqrt(beta_i) <v_i rho,
    h_{beta - e_i}> for every beta of rho's basis, from the projections of
    v_i rho read on every node of grid (vals = rho.evaluate(grid), vvals =
    v(p, grid.nodes)): no code shared with either assembly and no P x M
    array (ChaosBasis.project)."""
    basis = rho.basis
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
    _check_sizes(v, rho.basis, grid)
    defects = hermite_defects(rho, grid, rho.evaluate(grid), v.eval_v(p_frozen, grid.nodes))
    return float(defects[rho.basis.position(phi.beta)])


def _bump_defects(bumps, rho, v, p_frozen, grid_for) -> list[float]:
    """sum_m w_m rho_m [Lap(phi) + (v - x).grad(phi)](x_m) per bump phi over
    the grid grid_for(A), A = sorted(phi.active), one active set at a time.
    Per set, w rho and w rho (v_i - x_i), i in A, are summed over the nodes
    that share x_A (grid.axis_sums), reading the grid in blocks of at most
    BLOCK_NODES nodes; its bumps are then evaluated together at the q^|A|
    values of x_A only (BumpTest.profiles, in batches of at most BLOCK_NODES
    values), and each bump's sum is one row of a row-sum.
    For A = {i}, a SeparableField and other rules exact to degree N (a
    Gauss-Hermite rule of q >= (N + 1) / 2 nodes; grid.rule_defects), those sums
    are w_z rho_i(z) and w_z rho_i(z) (v_i(z) - z) on the rule (z, w_z) of
    x_i (marginal_values, eval_rules)."""
    groups, out = {}, np.empty(len(bumps))
    for j, phi in enumerate(bumps):
        groups.setdefault(tuple(sorted(phi.active)), []).append(j)
    for axes, members in groups.items():
        grid, cols = grid_for(axes), list(axes)
        if len(axes) == 1 and isinstance(v, SeparableField) and all(
            np.max(d[0]) <= ORTHONORMAL_TOL for a, d in enumerate(grid.rule_defects(rho.basis.degree)) if a != axes[0]
        ):
            (z, w), i = grid.rules[axes[0]], axes[0]
            weighted = w * marginal_values(rho, grid, i)
            sums = np.column_stack([weighted, weighted * (v.eval_rules(p_frozen, grid)[i] - z)])
        else:
            sums = np.zeros(tuple(grid.shape[a] for a in axes) + (1 + len(axes),))
            for block, place in grid.blocks(BLOCK_NODES):
                x = block.nodes
                weighted = block.weights * rho.evaluate(block)
                terms = np.column_stack([weighted, weighted[:, None] * (v.eval_v(p_frozen, x)[:, cols] - x[:, cols])])
                sums[tuple(place[a] for a in axes)] += block.axis_sums(terms, axes)
        points, sums = grid.axis_points(axes), sums.reshape(-1, 1 + len(axes))
        step = max(1, BLOCK_NODES // len(points))
        for start in range(0, len(members), step):
            batch = members[start : start + step]
            _, grad, lap = BumpTest.profiles([bumps[j] for j in batch], points, derivatives=True)
            out[batch] = np.sum(lap * sums[:, 0] + np.sum(grad * sums[:, 1:], axis=2), axis=1)
    return out.tolist()


def residual_suite(rho, v, p_frozen, grid, vals, vvals, bump_tests=()) -> dict:
    """The "residuals" entry of report.json: every Hermite test of degree
    <= N plus optional bumps, with their tolerances and passes.

    The Hermite residuals (hermite_defects, from the node values vals and
    vvals) are projected, so they cross-check either assembly; system_norm
    = ||D - A||_1 comes from assemble (dense only where the solve is, on the
    same vvals) and scales the Hermite tolerance.  A bump reading x_A is
    integrated on grid's own rules with the rules of A replaced by the
    uniform BUMP_RULE, which resolves the compactly supported bumps where a
    Gauss-Hermite rule does not; the bumps of one active set share that
    grid, its sums and one batched evaluation (_bump_defects).
    """
    _check_sizes(v, rho.basis, grid)
    hermite_max = float(np.max(np.abs(hermite_defects(rho, grid, vals, vvals)[1:]), initial=0.0))
    system = assemble(v, p_frozen, rho.basis, grid, vvals=vvals)
    np.subtract(0.0, system, out=system)  # D - A, formed in A
    system.ravel()[:: rho.basis.size + 1] += rho.basis.degrees()
    system_norm = float(np.linalg.norm(system, 1))
    rule = uniform_gaussian_grid(*BUMP_RULE).rules[0]
    swapped = lambda axes: product_grid([rule if i in axes else r for i, r in enumerate(grid.rules)])
    bumps = _bump_defects(bump_tests, rho, v, p_frozen, swapped)
    tolerance = HERMITE_RESIDUAL_TOL * (1.0 + system_norm)
    return {"hermite_max": hermite_max, "system_norm": system_norm, "hermite_tolerance": tolerance,
            "hermite_pass": hermite_max <= tolerance, "bumps": bumps, "bump_tolerance": BUMP_RESIDUAL_TOL,
            "bump_pass": all(abs(b) <= BUMP_RESIDUAL_TOL for b in bumps)}
