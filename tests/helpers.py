"""Shared construction helpers for the test suite."""
import math

import numpy as np

from gfpk import ChaosDensity, enumerate_basis
from gfpk.drift import drift_from_block


def hermite_eval(n: int, x):
    """Reference value of the normalized probabilists' Hermite polynomial
    h_n at x (scalar or ndarray, shape kept), by its own recurrence."""
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h = np.ones_like(x)
    for m in range(n):
        h, h_prev = (x * h - math.sqrt(m) * h_prev) / math.sqrt(m + 1), h
    return h if h.shape else float(h)


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


def bump_defect_per_node(phi, grid, vvals, rvals):
    """Reference weak defect sum_m w_m rho_m [Lap(phi) + (v - x).grad(phi)](x_m)
    of a bump test, with phi evaluated at every node, and the sum of the
    absolute values of its terms (the scale of its rounding error)."""
    x = grid.nodes
    weighted = (grid.weights * rvals)[:, None]
    terms = np.concatenate(
        [weighted * phi.laplacian(x)[:, None], weighted * (vvals - x) * phi.gradient(x)], axis=1
    )
    return float(terms.sum()), float(np.abs(terms).sum())


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
