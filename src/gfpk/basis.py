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

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BasisSizeError, NumericError

# Hard ceiling on the number of basis elements; desk-scale dense solves only.
BASIS_CAP = 20000


def hermite_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """Table H[n, j] = h_n(x[j]) for n = 0..n_max via the three-term recurrence."""
    return _scaled_hermite_table(n_max, np.asarray(x, dtype=float), 1.0)


def _scaled_hermite_table(n_max: int, x: np.ndarray, first) -> np.ndarray:
    """Table H[n, j] = h_n(x[j]) * first[j]: the recurrence started from the row first."""
    table = np.empty((n_max + 1, x.size))
    table[0] = first
    if n_max >= 1:
        table[1] = x * first
    for n in range(1, n_max):
        table[n + 1] = (x * table[n] - math.sqrt(n) * table[n - 1]) / math.sqrt(n + 1)
    return table


def enumerate_multi_indices(k: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of length k with total degree <= max_degree,
    in graded lexicographic order (degree-major, lex within a degree).

    A tuple of degree d is read off its partial sums 0 <= s_1 <= ... <=
    s_{k-1} <= d as the differences of (0, s_1, ..., s_{k-1}, d); the sums
    are lex-ordered as the tuples are, so their combinations run reversed.
    """
    out = []
    for degree in range(max_degree + 1):
        for sums in reversed(list(itertools.combinations_with_replacement(range(degree + 1), k - 1))):
            out.append(tuple(map(operator.sub, sums + (degree,), (0,) + sums)))
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
        return _read_only(np.array(self.indices, dtype=np.intp).reshape(self.size, self.k))

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
        return _read_only(np.array(
            [[self.index_map.get(lowered(a, i), -1) for i in range(self.k)] for a in self.indices]
        ))

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
        return tuple(_read_only(np.concatenate(column)) for column in zip(*parts))

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
        """Values at grid.nodes of the expansions with coefficients (..., P),
        by sum factorization over the grid's 1-D rules: the coefficients are
        scattered into an (N+1)^k array whose axes are contracted in turn
        with the 1-D tables h_n(x_i), at O(k (N+1) M) work and O(M) memory
        for M nodes.
        """
        coefficients = np.asarray(coefficients, dtype=float)
        lead = coefficients.shape[:-1]
        n1 = self.degree + 1
        # axes (n_0, ..., n_{k-1}, lead); each step contracts the first
        # degree axis and appends the grid axis after the lead
        box = np.zeros((n1**self.k,) + lead)
        box[self._box_index] = coefficients.T
        for table in grid.hermite_tables(self.degree):
            box = box.reshape(n1, -1).T @ table
        return box.reshape(lead + (-1,))

    def project(self, values: np.ndarray, grid: "QuadratureGrid") -> np.ndarray:
        """Sums sum_m w_m f(x_m) h_alpha(x_m), shape (..., P), of node values
        f of shape (..., M): the transpose of grid_values, at the same cost."""
        lead = np.shape(values)[:-1]
        # axes (q_0, ..., q_{k-1}, lead); each step turns the first into a last degree axis
        box = (values * grid.weights).reshape(-1, grid.n_nodes).T
        for table in grid.hermite_tables(self.degree):
            box = box.reshape(table.shape[1], -1).T @ table.T
        return box.reshape(lead + (-1,))[..., self._box_index]

    @cached_property
    def _box_index(self) -> np.ndarray:
        """Flat index of each alpha in the (N+1)^k array of grid_values."""
        return _read_only(np.ravel_multi_index(self.exponents.T, (self.degree + 1,) * self.k))

    @cached_property
    def axis_index(self) -> np.ndarray:
        """(k, N+1) positions of the powers n e_i: row i picks the i-th marginal's coefficients."""
        return _read_only(np.stack([self.embed(enumerate_basis(1, self.degree), [i]) for i in range(self.k)]))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=16)
def enumerate_basis(k: int, max_degree: int) -> ChaosBasis:
    """Build the chaos basis of dimension k and total degree <= max_degree.

    The 16 most recent bases are shared, so every table they cache is read-only.
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
    """Product of declared 1-D rules for expectations under gamma_k.

    rules holds one rule (x_i, w_i) per coordinate, with nonnegative weights
    summing to 1; nodes (n_nodes, k) and weights are their product, last
    axis fastest.  Built by product_grid.
    """

    rules: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)

    @property
    def k(self) -> int:
        return len(self.rules)

    @property
    def q(self) -> int:
        """The order of the grid: the fewest nodes of any of its rules."""
        return min(self.shape)

    @property
    def shape(self) -> tuple[int, ...]:
        """Number of nodes of each 1-D rule."""
        return tuple(x.size for x, _ in self.rules)

    @property
    def n_nodes(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def nodes(self) -> np.ndarray:
        grids = np.meshgrid(*(x for x, _ in self.rules), indexing="ij", copy=False)
        return np.stack(grids, axis=-1).reshape(-1, self.k)

    @cached_property
    def weights(self) -> np.ndarray:
        out = self.rules[0][1]
        for _, w in self.rules[1:]:
            out = np.multiply.outer(out, w).ravel()
        return out

    def hermite_tables(self, n_max: int) -> tuple[np.ndarray, ...]:
        """hermite_table(n_max, x_i) for each 1-D rule (_per_rule)."""
        return self._per_rule(n_max)[0]

    def rule_defects(self, n_max: int) -> tuple[np.ndarray, ...]:
        """|H_i diag(w_i) H_i^T - I| for each 1-D rule (x_i, w_i), H_i its hermite
        table: the rule is orthonormal up to n_max where all of it is small, and
        integrates h_0..h_{n_max} exactly where its row 0 is (_per_rule)."""
        return self._per_rule(n_max)[1]

    def _per_rule(self, n_max: int):
        """(hermite_tables, rule_defects) of degree n_max, built once per
        grid, degree and distinct rule: the axes of tensor_grid share one."""
        cache = self.__dict__.setdefault("_rule_tables", {})
        if n_max not in cache:
            built = {}
            for x, w in self.rules:
                if (id(x), id(w)) not in built:
                    h = hermite_table(n_max, x)
                    built[id(x), id(w)] = h, np.abs((h * w) @ h.T - np.eye(n_max + 1))
            cache[n_max] = tuple(zip(*(built[id(x), id(w)] for x, w in self.rules)))
        return cache[n_max]

    def axis_sums(self, values: np.ndarray, axes) -> np.ndarray:
        """Sums of per-node values, shape (n_nodes,) + trailing, over the
        nodes that share their coordinates on axes: an array of shape
        (q_a for a in sorted(axes)) + trailing."""
        box = values.reshape(self.shape + values.shape[1:])
        return box.sum(axis=tuple(i for i in range(self.k) if i not in axes))

    def axis_points(self, axes) -> np.ndarray:
        """The distinct coordinates on axes as (n, k) points, in the order of
        axis_sums; the other coordinates are those of the first node."""
        rules = [r if i in axes else (r[0][:1], r[1][:1]) for i, r in enumerate(self.rules)]
        return product_grid(rules).nodes

    def blocks(self, max_nodes: int):
        """Yield (block, place): product sub-grids of at most max_nodes nodes
        that partition this grid, each with the slice of every axis it
        covers.  A grid within the budget is its own one block; otherwise
        leading axes are taken one node at a time as far as the budget needs,
        the next axis in runs."""
        if self.n_nodes <= max_nodes:
            yield self, [slice(None)] * self.k
            return
        lead = next(j for j in range(self.k) if math.prod(self.shape[j + 1 :]) <= max_nodes)
        run = max(1, max_nodes // math.prod(self.shape[lead + 1 :]))
        for index in np.ndindex(*self.shape[:lead]):
            for start in range(0, self.shape[lead], run):
                place = [slice(i, i + 1) for i in index] + [slice(start, start + run)] + [slice(None)] * (self.k - lead - 1)
                yield product_grid([(x[s], w[s]) for (x, w), s in zip(self.rules, place)]), place


def gauss_hermite(q: int) -> QuadratureGrid:
    """One-dimensional Gauss-Hermite rule for the standard Gaussian weight.

    Nodes are the roots of the degree-q probabilists' Hermite polynomial:
    the eigenvalues of the symmetric Jacobi matrix of the three-term
    recurrence, refined by one Newton step on h_q (h_q' = sqrt(q) h_{q-1}).
    The weights are the Christoffel numbers 1 / sum_{n<q} h_n(x_j)^2, read
    from the Hermite functions psi_n = h_n e^{-x^2/4}, which stay bounded
    where h_n overflows; exact for polynomials of degree <= 2q - 1.
    """
    if q < 1:
        raise ValueError("quadrature order must be >= 1")
    jacobi = np.diag(np.sqrt(np.arange(1, q)), 1)
    try:
        nodes = np.linalg.eigvalsh(jacobi + jacobi.T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Gauss-Hermite eigensolve failed for q={q}") from exc
    psi = _scaled_hermite_table(q, nodes, np.exp(-0.25 * nodes**2))
    nodes = nodes - psi[q] / (math.sqrt(q) * psi[q - 1])
    psi = _scaled_hermite_table(q - 1, nodes, np.exp(-0.25 * nodes**2))
    weights = np.exp(-0.5 * nodes**2) / np.sum(psi**2, axis=0)
    weights = weights / weights.sum()
    # extreme-node weights may underflow to exactly 0 for large q; that is
    # harmless, only negative or non-finite weights indicate a failure
    if not (np.all(np.isfinite(nodes)) and np.all(weights >= 0) and weights.sum() > 0):
        raise NumericError(f"Gauss-Hermite rule for q={q} produced invalid nodes/weights")
    return product_grid([(nodes, weights)])


def uniform_gaussian_grid(span: float, n: int, k: int = 1) -> QuadratureGrid:
    """Uniform trapezoid rule on [-span, span]^k weighted by the Gaussian
    density.

    Complements the Gauss-Hermite rule for integrands with compact support
    (bump test functions), where the trapezoid rule on a uniform grid is far
    more accurate than any polynomial-exact rule of comparable size.
    """
    if not (span > 0 and n >= 2):
        raise ValueError(f"a uniform rule needs span > 0 and n >= 2 nodes, got span={span!r}, n={n!r}")
    x1 = np.linspace(-span, span, n)
    h = x1[1] - x1[0]
    w1 = np.exp(-0.5 * x1**2) / math.sqrt(2.0 * math.pi) * h
    w1[0] *= 0.5
    w1[-1] *= 0.5
    w1 /= w1.sum()
    return product_grid([(x1, w1)] * k)


def tensor_grid(q: int, k: int) -> QuadratureGrid:
    """Tensorize the 1-D Gauss-Hermite rule of order q over k coordinates."""
    return product_grid(gauss_hermite(q).rules * k)


def product_grid(rules) -> QuadratureGrid:
    """Product of the 1-D rules (x_i, w_i), one per coordinate, last axis
    fastest; the rules may differ per axis."""
    return QuadratureGrid(tuple((np.asarray(x, dtype=float), np.asarray(w, dtype=float)) for x, w in rules))

