"""Hermite chaos basis: multi-indices, normalized Hermite polynomials and
Gauss-Hermite quadrature for the standard Gaussian weight.

Conventions
-----------
All polynomials are probabilists' Hermite polynomials normalized in
L^2(gamma_1), i.e. h_0 = 1, h_1(x) = x and

    h_{n+1}(x) = (x h_n(x) - sqrt(n) h_{n-1}(x)) / sqrt(n+1),

so that <h_m, h_n>_{gamma_1} = delta_{mn}.  Quadrature weights sum to 1
(expectation under the standard Gaussian, not the physicists' exp(-x^2)
weight).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BasisSizeError, NumericError

# Hard ceiling on the number of basis elements; desk-scale dense solves only.
BASIS_CAP = 20000
# Relative agreement of a grid's weights with the product of their 1-D
# marginals for the grid to count as a product rule (product_rule).
PRODUCT_RTOL = 1e-13


def hermite_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """Table H[n, j] = h_n(x[j]) for n = 0..n_max via the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    table = np.empty((n_max + 1, x.size))
    table[0] = 1.0
    if n_max >= 1:
        table[1] = x
    for n in range(1, n_max):
        table[n + 1] = (x * table[n] - math.sqrt(n) * table[n - 1]) / math.sqrt(n + 1)
    return table


def enumerate_multi_indices(k: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of length k with total degree <= max_degree,
    in graded lexicographic order (degree-major, lex within a degree)."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out = []
    for degree in range(max_degree + 1):
        out.extend(compositions(degree, k))
    return out


@dataclass(frozen=True)
class ChaosBasis:
    """Graded-lex ordered tensor Hermite basis of L^2(gamma_k), degree <= N."""

    k: int
    degree: int
    indices: tuple[tuple[int, ...], ...]
    index_map: dict = field(repr=False, hash=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def exponents(self) -> np.ndarray:
        """Integer (P, k) array of the multi-indices, row j = alpha_j; read-only."""
        exps = np.array(self.indices, dtype=np.intp).reshape(self.size, self.k)
        exps.flags.writeable = False
        return exps

    def degrees(self) -> np.ndarray:
        """Total degree |alpha| per basis element (OU eigenvalue diagonal)."""
        return self.exponents.sum(axis=1).astype(float)

    def position(self, alpha: tuple[int, ...]) -> int:
        return self.index_map[tuple(alpha)]

    def embed(self, source: "ChaosBasis", axes) -> np.ndarray:
        """Position in this basis of each element of `source` with its
        coordinates placed on `axes` and zero exponents elsewhere, or -1 where
        the degree of this basis is too low (zero-padding, marginals)."""
        exps = np.zeros((source.size, self.k), dtype=np.intp)
        exps[:, list(axes)] = source.exponents
        return np.array([self.index_map.get(tuple(e), -1) for e in exps.tolist()], dtype=np.intp)

    def lowering_table(self) -> np.ndarray:
        """table[j, i] = position of alpha - e_i for basis element j, or -1;
        built once per basis and shared read-only."""
        return self._lowering

    @cached_property
    def _lowering(self) -> np.ndarray:
        lowered = lambda a, i: a[:i] + (a[i] - 1,) + a[i + 1 :]
        table = np.array(
            [[self.index_map.get(lowered(a, i), -1) for i in range(self.k)] for a in self.indices]
        )
        table.flags.writeable = False
        return table

    @cached_property
    def gram_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the 1-D Gram entries of a separable drift land in the
        Galerkin interaction matrix; built once per basis.

        When v_i depends on x_i alone, <v_i h_mu, h_alpha> = G_i[mu_i, alpha_i]
        if mu and alpha agree off coordinate i and 0 otherwise.  Returns
        (target, source, scale), ordered by coordinate i: the interaction
        entry sum_i sqrt(beta_i) <v_i h_{beta - e_i}, h_alpha> is the sum of
        scale * grams.flat[source] over its flat index target, for grams of
        shape (k, N+1, N+1).
        """
        n1, size, exps = self.degree + 1, self.size, self.exponents
        parts = []
        for i in range(self.k):
            # fibres (the elements that agree off i), sorted by the exponents off i
            # and then the i-th, are runs whose i-th exponents rise 0..N - |rest|
            rest = np.delete(exps, i, axis=1)
            order = np.lexsort((exps[:, i],) + tuple(rest.T))
            rows = np.flatnonzero(exps[:, i] > 0)
            length = n1 - rest[rows].sum(axis=1)
            shift = np.argsort(order)[rows] - exps[rows, i] - np.cumsum(length) + length
            cols = order[np.arange(length.sum()) + np.repeat(shift, length)]
            rows = np.repeat(rows, length)
            b = exps[rows, i]
            parts.append((rows * size + cols, (i * n1 + b - 1) * n1 + exps[cols, i], np.sqrt(b)))
        return tuple(np.concatenate(column) for column in zip(*parts))

    def eval_matrix(self, points: np.ndarray) -> np.ndarray:
        """Matrix H[j, q] = h_{alpha_j}(points[q]) for points of shape (m, k)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.k:
            raise ValueError(f"points have dimension {points.shape[1]}, basis has {self.k}")
        out = hermite_table(self.degree, points[:, 0])[self.exponents[:, 0]]
        for i in range(1, self.k):
            out *= hermite_table(self.degree, points[:, i])[self.exponents[:, i]]
        return out

    def grid_values(self, coefficients: np.ndarray, grid: "QuadratureGrid") -> np.ndarray:
        """Values at grid.nodes of the expansions with coefficients (..., P).

        On a product of 1-D rules (grid.factors) by sum factorization: the
        coefficients are scattered into an (N+1)^k array whose axes are
        contracted in turn with the 1-D tables h_n(x_i), at O(k (N+1) M)
        work and O(M) memory for M nodes.  Other grids take
        coefficients @ eval_matrix(grid.nodes), a P x M matrix.
        """
        coefficients = np.asarray(coefficients, dtype=float)
        if grid.factors is None:
            return coefficients @ self.eval_matrix(grid.nodes)
        lead = coefficients.shape[:-1]
        n1 = self.degree + 1
        # axes (n_0, ..., n_{k-1}, lead); each step contracts the first
        # degree axis and appends the grid axis after the lead
        box = np.zeros((n1**self.k,) + lead)
        box[self._box_index] = coefficients.T
        for table in grid.hermite_tables(self.degree):
            box = box.reshape(n1, -1).T @ table
        return box.reshape(lead + (-1,))

    @cached_property
    def _box_index(self) -> np.ndarray:
        """Flat index of each alpha in the (N+1)^k array of grid_values."""
        return np.ravel_multi_index(self.exponents.T, (self.degree + 1,) * self.k)


def enumerate_basis(k: int, max_degree: int) -> ChaosBasis:
    """Build the chaos basis of dimension k and total degree <= max_degree.

    Raises BasisSizeError when binomial(max_degree + k, k) exceeds BASIS_CAP.
    """
    if k < 1:
        raise ValueError("dimension k must be >= 1")
    if max_degree < 0:
        raise ValueError("max degree must be >= 0")
    count = math.comb(max_degree + k, k)
    if count > BASIS_CAP:
        raise BasisSizeError(
            f"basis would have {count} elements, exceeding the cap of {BASIS_CAP}"
        )
    indices = tuple(enumerate_multi_indices(k, max_degree))
    index_map = {alpha: j for j, alpha in enumerate(indices)}
    return ChaosBasis(k=k, degree=max_degree, indices=indices, index_map=index_map)


@dataclass(frozen=True)
class QuadratureGrid:
    """Quadrature rule for expectations under gamma_k.

    nodes has shape (n_nodes, k); weights are positive and sum to 1.
    factors holds the 1-D node sets when the nodes are their product, last
    axis fastest (product_grid); grids built otherwise have None.
    """

    q: int
    k: int
    nodes: np.ndarray
    weights: np.ndarray
    factors: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.weights.size

    def hermite_tables(self, n_max: int) -> tuple[np.ndarray, ...]:
        """hermite_table(n_max, x) for each 1-D factor, built once per grid
        and degree."""
        tables = self.__dict__.setdefault("_hermite_tables", {})
        if n_max not in tables:
            tables[n_max] = tuple(hermite_table(n_max, x) for x in self.factors)
        return tables[n_max]

    @cached_property
    def axis_rule(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The 1-D rule (x1, w1) of order q whose k-fold product is this
        grid, or None: every factor must be x1, and the weights the product
        of their marginal w1 to PRODUCT_RTOL."""
        if self.factors is None or any(
            x.size != self.q or not np.array_equal(x, self.factors[0]) for x in self.factors
        ):
            return None
        w1 = self.weights.reshape(self.q, -1).sum(axis=1)
        if np.allclose(_outer([w1] * self.k), self.weights, rtol=PRODUCT_RTOL, atol=0.0):
            return self.factors[0], w1
        return None


def gauss_hermite(q: int) -> QuadratureGrid:
    """One-dimensional Gauss-Hermite rule for the standard Gaussian weight.

    Nodes are the roots of the degree-q probabilists' Hermite polynomial,
    obtained from the symmetric Jacobi matrix of the three-term recurrence;
    exact for polynomials of degree <= 2q - 1.
    """
    if q < 1:
        raise ValueError("quadrature order must be >= 1")
    jacobi = np.diag(np.sqrt(np.arange(1, q)), 1)
    jacobi = jacobi + jacobi.T
    try:
        nodes, vecs = np.linalg.eigh(jacobi)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Gauss-Hermite eigensolve failed for q={q}") from exc
    weights = vecs[0] ** 2
    weights = weights / weights.sum()
    # extreme-node weights may underflow to exactly 0 for large q; that is
    # harmless, only negative or non-finite weights indicate a failure
    if not (np.all(np.isfinite(nodes)) and np.all(weights >= 0) and weights.sum() > 0):
        raise NumericError(f"Gauss-Hermite rule for q={q} produced invalid nodes/weights")
    return QuadratureGrid(q=q, k=1, nodes=nodes.reshape(-1, 1), weights=weights, factors=(nodes,))


def uniform_gaussian_grid(span: float, n: int, k: int = 1) -> QuadratureGrid:
    """Uniform trapezoid rule on [-span, span]^k weighted by the Gaussian
    density.

    Complements the Gauss-Hermite rule for integrands with compact support
    (bump test functions), where the trapezoid rule on a uniform grid is far
    more accurate than any polynomial-exact rule of comparable size.
    """
    x1 = np.linspace(-span, span, n)
    h = x1[1] - x1[0]
    w1 = np.exp(-0.5 * x1**2) / math.sqrt(2.0 * math.pi) * h
    w1[0] *= 0.5
    w1[-1] *= 0.5
    w1 /= w1.sum()
    # q records the polynomial degree the rule handles reliably; the dense
    # uniform rule is fine well past any basis degree used here
    return product_grid([(x1, w1)] * k, n)


def tensor_grid(q: int, k: int) -> QuadratureGrid:
    """Tensorize the 1-D Gauss-Hermite rule of order q over k coordinates."""
    rule = gauss_hermite(q)
    return product_grid([(rule.nodes[:, 0], rule.weights)] * k, q)


def product_grid(rules, q: int) -> QuadratureGrid:
    """Product of the 1-D rules (x_i, w_i), one per coordinate, last axis
    fastest; the rules may differ per axis.  q records the polynomial order
    the grid is meant to resolve."""
    grids = np.meshgrid(*(x for x, _ in rules), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = _outer([w for _, w in rules])
    return QuadratureGrid(q, len(rules), nodes, weights, tuple(x for x, _ in rules))


def _outer(weights) -> np.ndarray:
    """Flattened outer product of 1-D weight vectors, last one fastest."""
    out = weights[0]
    for w in weights[1:]:
        out = np.multiply.outer(out, w).ravel()
    return out
