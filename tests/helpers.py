"""Shared construction helpers for the test suite."""
import copy
import math

import numpy as np

from gfpk import (
    ChaosDensity,
    FixedPointOptions,
    HermiteTest,
    NumericError,
    QuadratureGrid,
    as_measure,
    default_battery,
    enumerate_basis,
    fixed_point_solve,
    marginal_distance,
    tensor_grid,
)
from gfpk.density import marginal_values
from gfpk.drift import SeparableField, drift_from_block
from gfpk.oracles import _flux_divergence

H = [0.3, -0.2, 0.1, 0.25]
# a config block in dimension k <= 4 for every separable drift kind and kernel
SEPARABLE_BLOCKS = {
    "constant": lambda k: {"kind": "constant", "h": H[:k]},
    "clipped-potential": lambda k: {"kind": "clipped-potential", "lam": 0.5},
    "vlasov-constant": lambda k: {"kind": "vlasov", "kernel": {"kind": "constant", "h": H[:k]}},
    "vlasov-tanh": lambda k: {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.5}},
    "vlasov-gaussian-lobe": lambda k: {"kind": "vlasov", "kernel": {"kind": "gaussian-lobe", "scale": 0.8}},
    "vlasov-clipped-linear": lambda k: {"kind": "vlasov", "kernel": {"kind": "clipped-linear", "scale": 0.5, "cap": 0.4}},
    "componentwise-tanh": lambda k: {"kind": "componentwise-tanh", "scale": 0.5, "n_components": 4, "mean_shift": True},
    "componentwise-decoupled-tanh": lambda k: {"kind": "componentwise-decoupled-tanh", "scale": 0.5, "n_components": 4},
}


def hermite_eval(n: int, x):
    """Reference value of the normalized probabilists' Hermite polynomial
    h_n at x (scalar or ndarray, shape kept), by its own recurrence."""
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h = np.ones_like(x)
    for m in range(n):
        h, h_prev = (x * h - math.sqrt(m) * h_prev) / math.sqrt(m + 1), h
    return h if h.shape else float(h)


def hermite_value(beta, x):
    """Reference h_beta at the points x (m, k): the product of hermite_eval
    over the coordinates."""
    return math.prod(hermite_eval(b, x[:, i]) for i, b in enumerate(beta))


def hermite_gradient(beta, x):
    """Reference gradient (m, k) of h_beta at the points x (m, k), from
    d/dx_i h_beta = sqrt(beta_i) h_{beta - e_i}."""
    grad = np.zeros_like(x)
    for i, b in enumerate(beta):
        if b:
            grad[:, i] = math.sqrt(b) * hermite_value(beta[:i] + (b - 1,) + beta[i + 1 :], x)
    return grad


class CoupledLobeKernel:
    """b0(z) = scale * z * exp(-|z|^2 / 2): not componentwise, since every
    component reads |z|; |b0|_H <= |scale| e^(-1/2) in any dimension, and it
    states no componentwise bound."""

    component_bound = None

    def __init__(self, scale):
        self.scale = scale
        self.h_bound = abs(scale) * math.exp(-0.5)

    def __call__(self, z):
        return self.scale * z * np.exp(-0.5 * np.sum(z * z, axis=-1, keepdims=True))


def b1_bound_quadrature(c0: float) -> float:
    """Independent value of the a-priori radius B(C0) = 1 + 2 e^2 int_1^inf
    t exp(-(ln t)^2 / C0^2) dt: adaptive quadrature after u = ln t."""
    from scipy.integrate import quad

    if c0 == 0.0:
        return 1.0
    integrand = lambda u: math.exp(2.0 * u - (u / c0) ** 2)
    value, err = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-10, limit=200)
    assert np.isfinite(value) and err <= 1e-8 * max(1.0, value), f"quadrature failed at C0={c0}"
    return 1.0 + 2.0 * math.e**2 * value


# half-width and point count of the sign-change scan of superlevel_mass_1d
LEVELSET_SPAN = 12.0
LEVELSET_SCAN = 4001


def superlevel_mass_1d(rho: ChaosDensity, t: float) -> float:
    """Reference gamma(rho >= t) for a 1-D density by explicit level-set
    resolution, for the tail check's node mass to be checked against.

    Scans [-LEVELSET_SPAN, LEVELSET_SPAN] for sign changes of rho - t,
    refines each crossing by bisection and sums the exact Gaussian mass of
    the super-level intervals.  Accurate to root-finding precision, unlike
    node counting.
    """
    from scipy.optimize import brentq

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


def cameron_martin(c: float, degree: int) -> ChaosDensity:
    """1-D density exp(cx - c^2/2) relative to gamma: c_n = c^n / sqrt(n!)."""
    basis = enumerate_basis(1, degree)
    coeffs = np.array([c**n / math.sqrt(math.factorial(n)) for n in range(degree + 1)])
    return ChaosDensity(basis, coeffs)


def gram_pattern_by_compare(basis):
    """Reference (target, source, scale) of ChaosBasis.gram_pattern: for each
    coordinate i, every pair (beta, alpha) with beta_i > 0 that agrees off i,
    found by comparing all P x P pairs."""
    n1 = basis.degree + 1
    exps = basis.exponents
    parts = []
    for i in range(basis.k):
        rest = np.delete(exps, i, axis=1)
        same_rest = np.all(rest[:, None, :] == rest[None, :, :], axis=2)
        rows, cols = np.nonzero((exps[:, i] > 0)[:, None] & same_rest)
        b = exps[rows, i]
        parts.append((rows * basis.size + cols, (i * n1 + b - 1) * n1 + exps[cols, i], np.sqrt(b)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def cell_holds(cell: str, value) -> bool:
    """Whether a CSV cell holds value exactly: None an empty cell, a float
    the same bits through float(), anything else its str."""
    if value is None:
        return cell == ""
    if isinstance(value, float):
        return np.float64(float(cell)).tobytes() == np.float64(value).tobytes()
    return cell == str(value)


def node_values(rho, v, p, grid):
    """(rho, v) read on every node of grid: the (vals, vvals) the check layer takes."""
    return rho.evaluate(grid), v.eval_v(p, grid.nodes)


def bump_defect_per_node(phi, grid, vvals, rvals):
    """Reference weak defect sum_m w_m rho_m [Lap(phi) + (v - x).grad(phi)](x_m)
    of a bump test, with phi evaluated at every node, and the sum of the
    absolute values of its terms (the scale of its rounding error)."""
    x = grid.nodes
    weighted = (grid.weights * rvals)[:, None]
    _, gradient, laplacian = bump_per_test(phi, x)
    terms = np.concatenate([weighted * laplacian[:, None], weighted * (vvals - x) * gradient], axis=1)
    return float(terms.sum()), float(np.abs(terms).sum())


def bump_per_test(phi, x):
    """Reference (value, gradient (m, k), Laplacian) of the BumpTest phi at
    the points x (m, k), one bump at a time: g(u) = exp(-(1-u)^{-1} + 1) on
    u < 1 with g' and g'' from their own formulas."""
    d = x[:, list(phi.active)] - np.asarray(phi.center)
    u = np.sum(d * d, axis=1) / phi.radius**2
    inside = u < 1.0
    g, g1, g2 = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
    w = 1.0 - u[inside]
    f = -(w ** (-1)) + 1.0
    fp = -(w ** (-2))
    fpp = -2 * w ** (-3)
    gi = np.exp(f)
    g[inside] = gi
    g1[inside] = fp * gi
    g2[inside] = (fpp + fp**2) * gi
    grad = np.zeros_like(x)
    for col, i in enumerate(phi.active):
        grad[:, i] = g1 * 2.0 * d[:, col] / phi.radius**2
    return g, grad, g2 * 4.0 * u / phi.radius**2 + g1 * 2.0 * len(phi.active) / phi.radius**2


def phi_value(phi, x):
    """Reference value of the HermiteTest or BumpTest phi at the points x (m, k)."""
    return hermite_value(phi.beta, x) if isinstance(phi, HermiteTest) else bump_per_test(phi, x)[0]


def battery_integrals_per_test(rho, grid, battery):
    """Reference of ladder._battery_integrals, one test at a time: each
    test phi of coordinate i summed as phi w_z rho_i(z) over the rule of
    x_i, with the same refusals."""
    axes = []
    for phi in battery:
        if (len(phi.beta) if isinstance(phi, HermiteTest) else max(phi.active) + 1) > rho.k:
            raise ValueError(f"battery test {phi} reads a coordinate beyond the density's k={rho.k}")
        axes.append(tuple(np.flatnonzero(phi.beta)) if isinstance(phi, HermiteTest) else phi.active)
        if len(axes[-1]) != 1:
            raise ValueError(f"battery test {phi} reads {len(axes[-1])} coordinates, not one")
    out = []
    for phi, (i,) in zip(battery, axes):
        z, w = grid.rules[i]
        values = phi_value(phi, np.outer(z, np.eye(rho.k)[i]))
        out.append(float(np.sum(values * (w * marginal_values(rho, grid, i)))))
    return out


def bump_defects_per_test(bumps, rho, v, p_frozen, grid_for):
    """Reference of linear._bump_defects, one bump at a time on the sums of
    its active set A (shared by the bumps of A): each bump's Laplacian and
    gradient flux at the values of x_A, summed on their own."""
    import gfpk.linear

    grouped, out = {}, []
    for phi in bumps:
        axes = sorted(phi.active)
        if tuple(axes) not in grouped:
            grid = grid_for(axes)
            if len(axes) == 1 and isinstance(v, SeparableField) and all(
                np.max(d[0]) <= gfpk.linear.ORTHONORMAL_TOL
                for a, d in enumerate(grid.rule_defects(rho.basis.degree)) if a != axes[0]
            ):
                (z, w), i = grid.rules[axes[0]], axes[0]
                weighted = w * marginal_values(rho, grid, i)
                sums = np.column_stack([weighted, weighted * (v.eval_rules(p_frozen, grid)[i] - z)])
            else:
                sums = np.zeros(tuple(grid.shape[a] for a in axes) + (1 + len(axes),))
                for block, place in grid.blocks(gfpk.linear.BLOCK_NODES):
                    x = block.nodes
                    weighted = block.weights * rho.evaluate(block)
                    terms = np.column_stack([weighted, weighted[:, None] * (v.eval_v(p_frozen, x)[:, axes] - x[:, axes])])
                    sums[tuple(place[a] for a in axes)] += block.axis_sums(terms, axes)
            grouped[tuple(axes)] = grid.axis_points(axes), sums.reshape(-1, 1 + len(axes))
        points, sums = grouped[tuple(axes)]
        _, gradient, laplacian = bump_per_test(phi, points)
        grad_flux = np.sum(gradient[:, axes] * sums[:, 1:], axis=1)
        out.append(float(np.sum(laplacian * sums[:, 0] + grad_flux)))
    return out


class NodelessGrid(QuadratureGrid):
    """A product grid whose product nodes and weights may not be read."""

    @property
    def nodes(self):
        raise AssertionError("the product grid was read")

    @property
    def weights(self):
        raise AssertionError("the product grid was read")


def joint_measure_drift(v):
    """A copy of v that reads every density as the joint PointMeasure on all
    nodes of the grid (as_measure), as every drift did before a
    SeparableField read its marginals: the reference for that path."""
    joint = copy.copy(v)
    joint.read_measure = as_measure
    return joint


def joint_fixed_point(v, basis, grid, opts=FixedPointOptions()):
    """fixed_point_solve with every iterate read as the joint PointMeasure."""
    return fixed_point_solve(joint_measure_drift(v), basis, grid, opts)


def registry_drift(kind: str, **params):
    """A ladder's drift builder k -> the drift of the config block
    {"kind": kind, **params} in dimension k."""
    return lambda k: drift_from_block({"kind": kind, **params}, k)


def mass_row_fd_2d(v, span: float, n: int) -> np.ndarray:
    """Reference (n, n) values of oracle_fd_2d from the closing it replaced:
    the flux-balance system with its last equation swapped for the dense
    unit-mass row sum_c h^2 u_c = 1, solved by spsolve (SuperLU with partial
    pivoting)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from gfpk.oracles import _bernoulli

    h = 2.0 * span / n
    x = -span + h * (np.arange(n) + 0.5)
    mid = 0.5 * (x[:-1] + x[1:])
    cells = np.arange(n * n).reshape(n, n)
    rows, cols, data = [], [], []
    for axis, face_pts, lo, step in (
        (0, np.stack([np.repeat(mid, n), np.tile(x, n - 1)], axis=1), cells[:-1].ravel(), n),
        (1, np.stack([np.repeat(x, n - 1), np.tile(mid, n)], axis=1), cells[:, :-1].ravel(), 1),
    ):
        w = (np.asarray(v(face_pts), dtype=float) - face_pts)[:, axis] * h
        b_minus, b_plus = _bernoulli(-w) / h**2, _bernoulli(w) / h**2
        hi = lo + step
        rows.append(np.stack([lo, lo, hi, hi], axis=1).ravel())
        cols.append(np.stack([lo, hi, lo, hi], axis=1).ravel())
        data.append(np.stack([b_minus, -b_plus, -b_minus, b_plus], axis=1).ravel())
    rows, cols, data = (np.concatenate(part) for part in (rows, cols, data))
    last = n * n - 1
    keep = rows != last
    rows = np.concatenate([rows[keep], np.full(n * n, last)])
    cols = np.concatenate([cols[keep], np.arange(n * n)])
    data = np.concatenate([data[keep], np.full(n * n, h * h)])
    rhs = np.zeros(n * n)
    rhs[last] = 1.0
    u = spla.spsolve(sp.csr_matrix((data, (rows, cols)), shape=(n * n, n * n)), rhs)
    return (u / float(u.sum() * h * h)).reshape(n, n)


def fd_matrix(faces):
    """Flux-balance matrix of the exponentially fitted scheme on the faces of
    oracles._face_coefficients, cell (i, j) at row i * n + j, written straight
    into CSC arrays: column c holds the rows c - n, c - 1, c, c + 1, c + n
    that exist.  The flux equation of the cell c nearest the origin becomes
    a_cc u_c = a_cc; its other entries stay as stored zeros."""
    import scipy.sparse as sp

    (_, m0, p0), (_, m1, p1) = faces
    n = m0.shape[1]
    # the flux B(-w) u_lo - B(w) u_hi leaves the lower cell and enters the upper one
    entries = np.zeros((n, n, 5))
    present = np.ones((n, n, 5), dtype=bool)
    present[0, :, 0] = present[:, 0, 1] = present[:, -1, 3] = present[-1, :, 4] = False
    entries[1:, :, 0], entries[:, 1:, 1] = -p0, -p1
    entries[:, :-1, 3], entries[:-1, :, 4] = -m1, -m0
    # in face order, so the diagonal is bit for bit the face-by-face sum
    for face, cells in ((p0, np.s_[1:, :]), (m0, np.s_[:-1, :]), (p1, np.s_[:, 1:]), (m1, np.s_[:, :-1])):
        entries[cells + (2,)] += face
    offsets = np.array([-n, -1, 0, 1, n], dtype=np.intc)
    rows = np.arange(n * n, dtype=np.intc)[:, None] + offsets
    pin = (n // 2) * n + n // 2
    entries.reshape(n * n, 5)[(rows == pin) & (offsets != 0)] = 0.0
    indptr = np.concatenate(([0], np.cumsum(present.sum(axis=2).ravel()))).astype(np.intc)
    return sp.csc_matrix((entries[present], rows[present.reshape(n * n, 5)], indptr), shape=(n * n, n * n))


def pinned_factor(matrix):
    """SuperLU factor of fd_matrix's irreducibly column-diagonally-dominant
    M-matrix: minimum degree on A^T + A, no pivoting, small supernodes and
    narrow panels for the sparse fronts of a 5-point stencil.  A NumericError
    for an exactly singular factor."""
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, panel_size=2)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise NumericError(f"finite-difference steady state solve failed: {exc}") from exc


def pinned_solve(matrix, pin: int) -> np.ndarray:
    """u with matrix u = matrix[pin, pin] e_pin, by pinned_factor.  A
    NumericError for a non-finite u (a density whose ratio to the pinned cell
    overflows).  The assembled diagonal (face coefficients summed in double)
    rounds unlike the flux operator: at 321 cells and zero drift u lies
    1.7e-13 of the peak from the exact null vector (mass_row_fd_2d 2.3e-13),
    and on a steep 27-cell drift 1.3e-13 (refined_fd_values has neither
    error)."""
    rhs = np.zeros(matrix.shape[0])
    rhs[pin] = matrix[pin, pin]
    u = pinned_factor(matrix).solve(rhs)
    if not np.all(np.isfinite(u)):
        raise NumericError("finite-difference steady state solve failed")
    return u


def refined_fd_values(faces, h: float, sweeps: int = 3) -> np.ndarray:
    """Reference (n, n) values of oracle_fd_2d: the null vector of the flux
    operator of the faces, at unit mass, by iterative refinement in long
    double.  From u = e_pin, each sweep subtracts the pinned factor's
    solution for the long-double residual of oracles._flux_divergence with
    the pinned cell's entry zeroed.  The first sweep gives pinned_solve's
    answer; the assembled diagonal's rounding then only slows the later
    sweeps and leaves the answer."""
    n = faces[0][0].shape[1]
    pin = (n // 2) * n + n // 2
    lu = pinned_factor(fd_matrix(faces))
    u = np.zeros(n * n, dtype=np.longdouble)
    u[pin] = 1.0
    wide = [tuple(np.asarray(f, dtype=np.longdouble) for f in face) for face in faces]
    for _ in range(sweeps):
        residual = _flux_divergence(wide, u.reshape(n, n)).ravel()
        residual[pin] = 0.0
        u -= lu.solve(residual.astype(float))
    return (u / (u.sum() * h * h)).astype(float).reshape(n, n)


def two_call_pair_distances(report):
    """report with the distance_to_next of each level recomputed the way
    run_ladder did before it kept each level's battery integrals: by
    marginal_distance, which integrates the lower level's battery on both
    levels of the pair, so every inner level is integrated twice."""
    for lower, upper in zip(report.levels, report.levels[1:]):
        lower["distance_to_next"] = marginal_distance(
            lower["solution"],
            tensor_grid(lower["quad_order"], lower["k"]),
            upper["solution"],
            tensor_grid(upper["quad_order"], upper["k"]),
            default_battery(lower["k"]),
        )
    return report
