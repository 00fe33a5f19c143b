"""Shared construction helpers for the test suite."""
import math

import numpy as np

from gfpk import ChaosDensity, enumerate_basis


def hermite_eval(n: int, x):
    """Reference value of the normalized probabilists' Hermite polynomial
    h_n at x (scalar or ndarray, shape kept), by its own recurrence."""
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h = np.ones_like(x)
    for m in range(n):
        h, h_prev = (x * h - math.sqrt(m) * h_prev) / math.sqrt(m + 1), h
    return h if h.shape else float(h)


def cameron_martin(c: float, degree: int) -> ChaosDensity:
    """1-D density exp(cx - c^2/2) relative to gamma: c_n = c^n / sqrt(n!)."""
    basis = enumerate_basis(1, degree)
    coeffs = np.array([c**n / math.sqrt(math.factorial(n)) for n in range(degree + 1)])
    return ChaosDensity(basis, coeffs)
