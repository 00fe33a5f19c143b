"""Densities relative to the Gaussian reference measure, stored as chaos
coefficients, plus the cylindrical test functions used to probe them.

A ChaosDensity rho = sum_alpha c_alpha h_alpha represents the Radon-Nikodym
derivative of a candidate measure with respect to gamma_k.  The constant
coefficient is pinned to 1 (unit mass); everything else is free and the
pointwise values may dip negative as a truncation artifact.  Clipping to a
bona fide measure happens only in `as_measure`, which reports the clipped
mass instead of hiding it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import ChaosBasis, QuadratureGrid, enumerate_basis, hermite_table
from .errors import DegenerateDensityError, NumericError

# Gaussian quadrature mass of the region where the truncation is positive;
# below this fraction the truncation is unusable as a measure.
MIN_POSITIVE_MASS = 0.5


@dataclass(frozen=True)
class ChaosDensity:
    """Density w.r.t. gamma_k with coefficients in the chaos basis."""

    basis: ChaosBasis
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != (self.basis.size,):
            raise ValueError(
                f"expected {self.basis.size} coefficients, got {coeffs.shape}"
            )
        if coeffs[0] != 1.0:
            raise ValueError("constant coefficient must be exactly 1 (unit mass)")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def constant(cls, basis: ChaosBasis) -> "ChaosDensity":
        """The density identically 1 (the Gaussian reference itself)."""
        coeffs = np.zeros(basis.size)
        coeffs[0] = 1.0
        return cls(basis, coeffs)

    @property
    def k(self) -> int:
        return self.basis.k

    def l2_norm_sq(self) -> float:
        """Parseval: integral of rho^2 d(gamma) = sum of squared coefficients."""
        return float(self.coefficients @ self.coefficients)

    def evaluate(self, x) -> np.ndarray | float:
        """Pointwise value sum_alpha c_alpha h_alpha(x); x is (k,) or (m, k)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        values = self.coefficients @ self.basis.eval_matrix(np.atleast_2d(x))
        return float(values[0]) if single else values

    def gradient(self, x) -> np.ndarray:
        """Exact gradient from the coefficients via d/dx_i h_a = sqrt(a_i) h_{a-e_i}."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        h = self.basis.eval_matrix(x)  # (P, m)
        lowering = self.basis.lowering_table()
        exponents = np.array(self.basis.indices, dtype=float)  # (P, k)
        grad = np.zeros((x.shape[0], self.k))
        for i in range(self.k):
            rows = lowering[:, i]
            mask = rows >= 0
            factors = np.sqrt(exponents[:, i])
            grad[:, i] = (self.coefficients[mask] * factors[mask]) @ h[rows[mask]]
        return grad[0] if single else grad

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "k": self.basis.k,
            "N": self.basis.degree,
            "ordering": "grlex",
            "coefficients": [float(c) for c in self.coefficients],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ChaosDensity":
        if doc.get("ordering") != "grlex":
            raise ValueError(f"unsupported ordering {doc.get('ordering')!r}")
        basis = enumerate_basis(int(doc["k"]), int(doc["N"]))
        return cls(basis, np.array(doc["coefficients"], dtype=float))

    @classmethod
    def from_json(cls, text: str) -> "ChaosDensity":
        return cls.from_json_dict(json.loads(text))


def integrate(rho: ChaosDensity, f, grid: QuadratureGrid) -> float:
    """Quadrature value of integral f d(mu), mu = rho * gamma.

    f maps an (m, k) array of points to m values (or accepts single points).
    """
    try:
        fvals = np.asarray(f(grid.nodes), dtype=float)
    except Exception:
        fvals = np.array([float(f(x)) for x in grid.nodes])
    if fvals.shape != (grid.n_nodes,):
        fvals = fvals.reshape(grid.n_nodes)
    if not np.all(np.isfinite(fvals)):
        bad = int(np.flatnonzero(~np.isfinite(fvals))[0])
        raise NumericError(f"integrand not finite at quadrature node {grid.nodes[bad]}")
    rvals = rho.evaluate(grid.nodes)
    return float(np.sum(grid.weights * fvals * rvals))


def marginal(rho: ChaosDensity, keep: list[int]) -> ChaosDensity:
    """Marginal density on the kept coordinates (0-based indices).

    Keeps exactly the coefficients whose dropped-coordinate exponents vanish;
    the result lives on a basis of the same total degree.
    """
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be non-empty")
    if keep[-1] >= rho.k or keep[0] < 0:
        raise ValueError(f"keep set {keep} out of range for dimension {rho.k}")
    if len(keep) == rho.k:
        return rho
    dropped = [i for i in range(rho.k) if i not in keep]
    new_basis = enumerate_basis(len(keep), rho.basis.degree)
    coeffs = np.zeros(new_basis.size)
    for alpha, c in zip(rho.basis.indices, rho.coefficients):
        if all(alpha[i] == 0 for i in dropped):
            coeffs[new_basis.position(tuple(alpha[i] for i in keep))] = c
    return ChaosDensity(new_basis, coeffs)


@dataclass(frozen=True)
class PointMeasure:
    """Nonnegative weighted point masses obtained by clipping a truncation.

    clip_defect is the (quadrature) mass removed by clipping negative values.
    """

    points: np.ndarray  # (m, k)
    masses: np.ndarray  # (m,), nonnegative, sums to 1
    clip_defect: float

    def mean(self) -> np.ndarray:
        return self.masses @ self.points


def as_measure(
    rho: ChaosDensity, grid: QuadratureGrid, values: np.ndarray | None = None
) -> PointMeasure:
    """Clip node values at 0 and renormalize to a probability point measure.

    values, when given, are rho's values at grid.nodes already computed by
    the caller (for example coefficients @ eval_matrix(grid.nodes)).
    """
    vals = rho.evaluate(grid.nodes) if values is None else values
    region_mass = float(np.sum(grid.weights[vals > 0.0]))
    if region_mass < MIN_POSITIVE_MASS:
        raise DegenerateDensityError(
            f"positive region carries quadrature mass {region_mass:.3f} < "
            f"{MIN_POSITIVE_MASS}; truncation unusable as a measure"
        )
    raw = grid.weights * vals
    clip_defect = float(-np.sum(raw[raw < 0.0]))
    masses = np.clip(raw, 0.0, None)
    total = float(masses.sum())
    return PointMeasure(points=grid.nodes, masses=masses / total, clip_defect=clip_defect)


# -- test functions -------------------------------------------------------


@dataclass(frozen=True)
class HermiteTest:
    """Polynomial cylindrical test function h_beta (smooth, dense in L^2)."""

    beta: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.beta)

    @property
    def degree(self) -> int:
        return sum(self.beta)

    def _tables(self, x: np.ndarray):
        n_max = max(self.beta) if self.beta else 0
        return [hermite_table(max(n_max, 1), x[:, i]) for i in range(self.k)]

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        tables = self._tables(x)
        out = np.ones(x.shape[0])
        for i, b in enumerate(self.beta):
            out *= tables[i][b]
        return out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        tables = self._tables(x)
        cols = [tables[i][b] for i, b in enumerate(self.beta)]
        grad = np.zeros_like(x)
        for i, b in enumerate(self.beta):
            if b == 0:
                continue
            term = math.sqrt(b) * tables[i][b - 1]
            for j in range(self.k):
                if j != i:
                    term = term * cols[j]
            grad[:, i] = term
        return grad

    def laplacian(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        tables = self._tables(x)
        cols = [tables[i][b] for i, b in enumerate(self.beta)]
        lap = np.zeros(x.shape[0])
        for i, b in enumerate(self.beta):
            if b < 2:
                continue
            term = math.sqrt(b * (b - 1)) * tables[i][b - 2]
            for j in range(self.k):
                if j != i:
                    term = term * cols[j]
            lap += term
        return lap


@dataclass(frozen=True)
class BumpTest:
    """Compactly supported smooth cylindrical test function.

    phi(x) = exp(-(1 - u)^{-q} + 1) on u < 1, 0 outside, where
    u = |x_A - center|^2 / radius^2 over the active coordinates A.
    The +1 normalizes phi = 1 at the center.
    """

    active: tuple[int, ...]
    center: tuple[float, ...]
    radius: float
    order: int = 1

    def __post_init__(self):
        if len(self.center) != len(self.active):
            raise ValueError("center must have one entry per active coordinate")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def _profile(self, u: np.ndarray):
        """g(u), g'(u), g''(u) for g = exp(-(1-u)^{-q} + 1), supported on u < 1."""
        q = self.order
        inside = u < 1.0
        g = np.zeros_like(u)
        g1 = np.zeros_like(u)
        g2 = np.zeros_like(u)
        w = 1.0 - u[inside]
        f = -(w ** (-q)) + 1.0
        fp = -q * w ** (-q - 1)
        fpp = -q * (q + 1) * w ** (-q - 2)
        gi = np.exp(f)
        g[inside] = gi
        g1[inside] = fp * gi
        g2[inside] = (fpp + fp**2) * gi
        return g, g1, g2

    def _u(self, x: np.ndarray):
        d = x[:, list(self.active)] - np.asarray(self.center)
        s = np.sum(d * d, axis=1)
        return s / self.radius**2, d

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        u, _ = self._u(x)
        g, _, _ = self._profile(u)
        return g

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        u, d = self._u(x)
        _, g1, _ = self._profile(u)
        grad = np.zeros_like(x)
        for col, i in enumerate(self.active):
            grad[:, i] = g1 * 2.0 * d[:, col] / self.radius**2
        return grad

    def laplacian(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        u, _ = self._u(x)
        _, g1, g2 = self._profile(u)
        m = len(self.active)
        return g2 * 4.0 * u / self.radius**2 + g1 * 2.0 * m / self.radius**2


TestFunction = HermiteTest | BumpTest
