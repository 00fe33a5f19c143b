"""Densities relative to the Gaussian reference measure, stored as chaos
coefficients, plus the cylindrical test functions used to probe them.

A ChaosDensity rho = sum_alpha c_alpha h_alpha represents the Radon-Nikodym
derivative of a candidate measure with respect to gamma_k.  The constant
coefficient is pinned to 1 (unit mass); everything else is free and the
pointwise values may dip negative as a truncation artifact.  Clipping to a
bona fide measure happens only in `as_measure` (the joint law on every node
of a grid) and `marginal_measure` (the k 1-D marginals on the grid's rules,
each clipped on its own; the joint clip defect is not computed there), which
report the clipped mass instead of hiding it.  Both measures answer
marginal(i) -> (y, masses) and mean(), all a separable drift reads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import ChaosBasis, QuadratureGrid, _read_only, enumerate_basis
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
        """Value sum_alpha c_alpha h_alpha(x) for x of shape (k,) or (m, k), or
        at the nodes of a QuadratureGrid x (by sum factorization)."""
        values = self._read(self.coefficients, x)
        return float(values) if values.ndim == 0 else values

    def gradient(self, x) -> np.ndarray:
        """Gradient at x as in evaluate: shape (k,) for one point, else (m, k)."""
        return self._read(self._gradient_coefficients(), x).T

    def _read(self, coefficients: np.ndarray, x) -> np.ndarray:
        """coefficients @ h(x); the last axis runs over x's nodes or points (none for one point)."""
        if isinstance(x, QuadratureGrid):
            return self.basis.grid_values(coefficients, x)
        x = np.asarray(x, dtype=float)
        values = coefficients @ self.basis.eval_matrix(np.atleast_2d(x))
        return values[..., 0] if x.ndim == 1 else values

    def _gradient_coefficients(self) -> np.ndarray:
        """(k, P) coefficients of the partial derivatives, exactly, from
        d/dx_i h_alpha = sqrt(alpha_i) h_{alpha - e_i}."""
        lowering = self.basis.lowering_table()
        rows, axes = np.nonzero(lowering >= 0)
        out = np.zeros((self.k, self.basis.size))
        out[axes, lowering[rows, axes]] = self.coefficients[rows] * np.sqrt(
            self.basis.exponents[rows, axes]
        )
        return out

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

    f maps an (m, k) array of points to m values.
    """
    fvals = np.asarray(f(grid.nodes), dtype=float).reshape(grid.n_nodes)
    if not np.all(np.isfinite(fvals)):
        bad = int(np.flatnonzero(~np.isfinite(fvals))[0])
        raise NumericError(f"integrand not finite at quadrature node {grid.nodes[bad]}")
    return float(np.sum(grid.weights * fvals * rho.evaluate(grid)))


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
    new_basis = enumerate_basis(len(keep), rho.basis.degree)
    return ChaosDensity(new_basis, rho.coefficients[rho.basis.embed(new_basis, keep)])


@dataclass(frozen=True)
class PointMeasure:
    """Nonnegative weighted point masses obtained by clipping a truncation.

    clip_defect is the (quadrature) mass removed by clipping negative values.
    """

    points: np.ndarray  # (m, k)
    masses: np.ndarray  # (m,), nonnegative, sums to 1
    clip_defect: float

    def mean(self) -> np.ndarray:
        """Coordinate means, computed once per measure and read-only: every
        component of a drift may ask for them."""
        return self._mean

    @cached_property
    def _mean(self) -> np.ndarray:
        return _read_only(self.masses @ self.points)

    def marginal(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct values y of coordinate i and the summed masses at each."""
        y, owner = np.unique(self.points[:, i], return_inverse=True)
        return y, np.bincount(owner, weights=self.masses, minlength=y.size)


@dataclass(frozen=True)
class MarginalMeasure:
    """The k 1-D marginals of a measure: nodes[i] with masses[i], nonnegative
    and summing to 1.  clip_defect is the largest mass clipping removed from
    one marginal."""

    nodes: tuple[np.ndarray, ...]
    masses: tuple[np.ndarray, ...]
    clip_defect: float

    def mean(self) -> np.ndarray:
        """Coordinate means, as PointMeasure.mean."""
        return self._mean

    @cached_property
    def _mean(self) -> np.ndarray:
        return _read_only(np.array([m @ y for y, m in zip(self.nodes, self.masses)]))

    def marginal(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        return self.nodes[i], self.masses[i]


def _clipped(weights: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, float]:
    """Masses weights * vals clipped at 0 and renormalized, and the mass clipped."""
    region_mass = float(np.sum(weights[vals > 0.0]))
    if region_mass < MIN_POSITIVE_MASS:
        raise DegenerateDensityError(
            f"positive region carries quadrature mass {region_mass:.3f} < "
            f"{MIN_POSITIVE_MASS}; truncation unusable as a measure"
        )
    raw = weights * vals
    clip_defect = float(-np.sum(raw[raw < 0.0]))
    masses = np.clip(raw, 0.0, None)
    return masses / float(masses.sum()), clip_defect


def as_measure(rho: ChaosDensity, grid: QuadratureGrid) -> PointMeasure:
    """Clip node values at 0 and renormalize to a probability point measure."""
    masses, clip_defect = _clipped(grid.weights, rho.evaluate(grid))
    return PointMeasure(points=grid.nodes, masses=masses, clip_defect=clip_defect)


def marginal_values(rho: ChaosDensity, grid: QuadratureGrid, i: int) -> np.ndarray:
    """The i-th marginal density rho_i = sum_n c_{n e_i} h_n (axis_index) on the rule grid.rules[i]."""
    return rho.coefficients[rho.basis.axis_index[i]] @ grid.hermite_tables(rho.basis.degree)[i]


def marginal_measure(rho: ChaosDensity, grid: QuadratureGrid) -> MarginalMeasure:
    """Each marginal rho_i (marginal_values) on its rule, clipped one at a time as in as_measure:
    the marginals of as_measure where it clips nothing and the other rules are exact to N."""
    masses, defects = zip(*(_clipped(w, marginal_values(rho, grid, i)) for i, (_, w) in enumerate(grid.rules)))
    return MarginalMeasure(tuple(x for x, _ in grid.rules), masses, max(defects))


# -- test functions -------------------------------------------------------


@dataclass(frozen=True)
class HermiteTest:
    """Polynomial cylindrical test function h_beta (smooth, dense in L^2)."""

    beta: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.beta)


@dataclass(frozen=True)
class BumpTest:
    """Compactly supported smooth cylindrical test function.

    phi(x) = exp(-(1 - u)^{-1} + 1) on u < 1, 0 outside, where
    u = |x_A - center|^2 / radius^2 over the distinct active coordinates A.
    The +1 normalizes phi = 1 at the center.  phi reads x_A alone, so the
    residuals evaluate it only at the distinct values of x_A on their grid,
    every bump of one active set in one call of the profile kernel
    (BumpTest.profiles).
    """

    active: tuple[int, ...]
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if len(self.center) != len(self.active):
            raise ValueError("center must have one entry per active coordinate")
        if not self.active or len(set(self.active)) != len(self.active):
            raise ValueError("active coordinates must be distinct, and at least one")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @staticmethod
    def profiles(bumps, x: np.ndarray, derivatives: bool = False):
        """phi(x) of each of the n bumps, which share one set A of active
        coordinates, at the points x (m, k): shape (n, m).  With derivatives,
        (phi, gradient, laplacian): the gradient (n, m, |A|) along A in
        increasing order and the Laplacian (n, m), from g, g' and g'' of
        g(u) = exp(-(1-u)^{-1} + 1) on u < 1, computed once for the batch."""
        active = np.array([phi.active for phi in bumps], dtype=np.intp)  # (n, |A|)
        d = x[:, active].transpose(1, 0, 2) - np.array([phi.center for phi in bumps], dtype=float)[:, None, :]
        r2 = np.array([phi.radius**2 for phi in bumps])[:, None]
        u = np.sum(d * d, axis=2) / r2
        inside = u < 1.0
        w = 1.0 - u[inside]
        gi = np.exp(-(w ** (-1)) + 1.0)
        g = np.zeros_like(u)
        g[inside] = gi
        if not derivatives:
            return g
        fp = -(w ** (-2))
        g1, g2 = np.zeros_like(u), np.zeros_like(u)
        g1[inside] = fp * gi
        g2[inside] = (-2 * w ** (-3) + fp**2) * gi
        grad = np.take_along_axis(g1[:, :, None] * 2.0 * d, np.argsort(active)[:, None, :], axis=2) / r2[:, :, None]
        return g, grad, g2 * 4.0 * u / r2 + g1 * 2.0 * active.shape[1] / r2
