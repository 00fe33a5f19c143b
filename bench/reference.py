"""Reference solutions computed apart from gfpk, with numpy alone.

Every output check of the benchmark compares a gfpk artifact with a value
from this module.  Nothing here imports gfpk: the Hermite recurrence, the
multi-index order, the quadrature rules and the fixed-point iteration are
written out again, so a fault in the solver cannot hide in its own
reference.

Densities are taken relative to the standard Gaussian measure gamma and
expanded in the orthonormal probabilists' Hermite polynomials h_n, as in
the chaos-coefficient file format (`"ordering": "grlex"`).
"""
from __future__ import annotations

import math

import numpy as np

# Uniform trapezoid grid for 1-D references.  The integrands are analytic
# and decay like a Gaussian, so the trapezoid rule is spectrally accurate;
# span 12 keeps the mass cut off below 1e-12 for the widest density used
# (Vlasov tanh scale 1.5).
GRID_SPAN = 12.0
GRID_POINTS = 961
# Degree up to which reference chaos coefficients are kept; the tails that
# set the tolerances are summed up to this degree.
COEFF_DEGREE = 40
FIXED_POINT_DAMPING = 0.5
FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAX_ITER = 1000


def gaussian_grid(span: float = GRID_SPAN, n: int = GRID_POINTS):
    """Nodes x and weights w * gamma(x) of the trapezoid rule on [-span, span]."""
    x = np.linspace(-span, span, n)
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def hermite_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """T[n, j] = h_n(x[j]) for the orthonormal probabilists' Hermite polynomials."""
    x = np.asarray(x, dtype=float)
    table = np.empty((n_max + 1, x.size))
    table[0] = 1.0
    if n_max >= 1:
        table[1] = x
    for n in range(1, n_max):
        table[n + 1] = (x * table[n] - math.sqrt(n) * table[n - 1]) / math.sqrt(n + 1)
    return table


def grlex(k: int, degree: int) -> list[tuple[int, ...]]:
    """Multi-indices of total degree <= degree in the file format's order:
    degree-major, and within a degree the first exponent descending."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    return [alpha for d in range(degree + 1) for alpha in compositions(d, k)]


def normalized(values: np.ndarray, wg: np.ndarray) -> np.ndarray:
    return values / (wg @ values)


def selfconsistent_tanh(scale: float, x: np.ndarray, wg: np.ndarray) -> np.ndarray:
    """Symmetric 1-D density rho with rho = exp(V) / Z and
    V(x) = scale * integral log cosh(x - y) rho(y) gamma(dy).

    This is the stationary density of dX = (-X + scale E tanh(X - Y)) dt
    + sqrt(2) dW with Y ~ rho * gamma, since d/dx log cosh = tanh.  The
    potential is summed in closed form, so no numerical integration of the
    drift is needed.  Damped iteration (0.5) keeps the symmetric fixed
    point also where the plain map oscillates (scale > 1).
    """
    n = x.size
    lags = np.arange(-(n - 1), n) * (x[1] - x[0])
    log_cosh = np.logaddexp(lags, -lags) - math.log(2.0)
    rho = np.ones(n)
    for _ in range(FIXED_POINT_MAX_ITER):
        potential = scale * np.convolve(wg * rho, log_cosh)[n - 1 : 2 * n - 1]
        new = normalized(np.exp(potential - potential.max()), wg)
        change = math.sqrt(wg @ (new - rho) ** 2)
        rho = (1.0 - FIXED_POINT_DAMPING) * rho + FIXED_POINT_DAMPING * new
        if change < FIXED_POINT_TOL:
            return normalized(rho, wg)
    raise RuntimeError(f"reference fixed point for scale {scale} did not converge")


def cosh_power(x: np.ndarray, wg: np.ndarray, power: float, width: float = 1.0) -> np.ndarray:
    """Closed-form density proportional to cosh(x / width) ** power, the
    stationary density of the gradient drift -x + power/width * tanh(x / width)."""
    return normalized(np.cosh(x / width) ** power, wg)


def chaos_coefficients(rho: np.ndarray, x: np.ndarray, wg: np.ndarray) -> np.ndarray:
    """c_n = integral rho h_n dgamma for n = 0..COEFF_DEGREE."""
    return hermite_table(COEFF_DEGREE, x) @ (wg * rho)


def product_coefficients(c1: np.ndarray, k: int, degree: int) -> np.ndarray:
    """Coefficients of the product density rho(x_1)...rho(x_k) on the
    total-degree-<=degree basis, in grlex order."""
    return np.array([math.prod(c1[a] for a in alpha) for alpha in grlex(k, degree)])


def product_tail(c1: np.ndarray, k: int, degree: int) -> float:
    """L^2(gamma_k) norm of the product density's chaos components of total
    degree > degree: the best-approximation error of the truncation."""
    shells = np.ones(1)
    for _ in range(k):
        shells = np.convolve(shells, c1**2)  # shells[d] = mass of total degree d
    return math.sqrt(float(np.sum(shells[degree + 1 : COEFF_DEGREE + 1])))


def second_moment(rho: np.ndarray, x: np.ndarray, wg: np.ndarray) -> float:
    """E[x^2] under rho * gamma."""
    return float(wg @ (x * x * rho))
