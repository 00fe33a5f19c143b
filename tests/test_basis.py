"""Hermite basis, multi-index enumeration and quadrature rules."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfpk import (
    BasisSizeError,
    enumerate_basis,
    enumerate_multi_indices,
    gauss_hermite,
    hermite_table,
    tensor_grid,
    uniform_gaussian_grid,
)
from helpers import gram_pattern_by_compare, hermite_eval


def test_enumerate_1d_degree_3():
    assert enumerate_multi_indices(1, 3) == [(0,), (1,), (2,), (3,)]


def test_enumerate_2d_degree_2_has_six_indices():
    indices = enumerate_multi_indices(2, 2)
    assert len(indices) == 6
    assert indices[0] == (0, 0)


def test_enumerate_3d_degree_0_is_zero_index_only():
    assert enumerate_multi_indices(3, 0) == [(0, 0, 0)]


def test_enumeration_is_graded():
    indices = enumerate_multi_indices(3, 4)
    degrees = [sum(a) for a in indices]
    assert degrees == sorted(degrees)
    assert len(indices) == math.comb(4 + 3, 3)


def _grlex_by_recursion(k, degree):
    """The degree-major, first-exponent-descending order by its recursive
    definition (one level per coordinate, so for small k only)."""

    def compositions(total, parts):
        if parts == 1:
            return [(total,)]
        return [(first,) + rest for first in range(total, -1, -1) for rest in compositions(total - first, parts - 1)]

    return [alpha for d in range(degree + 1) for alpha in compositions(d, k)]


@pytest.mark.parametrize("k", range(1, 6))
def test_enumeration_matches_the_recursive_grlex_order(k):
    for degree in range(7):
        assert enumerate_multi_indices(k, degree) == _grlex_by_recursion(k, degree)


@pytest.mark.parametrize("k, degree", [(5000, 0), (2000, 1)])
def test_enumeration_does_not_recurse_per_coordinate(k, degree):
    """Both bases lie under BASIS_CAP; a recursion one level per coordinate
    exceeds Python's recursion limit on them."""
    indices = enumerate_multi_indices(k, degree)
    assert len(indices) == math.comb(degree + k, k)
    assert indices[0] == (0,) * k and indices[-1] == (0,) * (k - 1) + (degree,)
    assert enumerate_basis(k, degree).size == len(indices)


def test_basis_cap_raises():
    with pytest.raises(BasisSizeError, match="exceed"):
        enumerate_basis(6, 30)


def test_hermite_trivial_values():
    assert hermite_eval(0, 7.3) == 1.0
    assert hermite_eval(1, 0.5) == 0.5


def test_hermite_h2_at_one():
    # h_2(x) = (x^2 - 1)/sqrt(2); checked against an independent recurrence
    assert abs(hermite_eval(2, 1.0)) < 1e-15
    x = 1.7
    direct = (x * x - 1.0) / math.sqrt(2.0)
    assert hermite_eval(2, x) == pytest.approx(direct, abs=1e-14)


def test_hermite_table_matches_eval():
    x = np.linspace(-3, 3, 11)
    table = hermite_table(8, x)
    for n in (0, 3, 8):
        assert np.allclose(table[n], hermite_eval(n, x))


def test_hermite_orthonormality_under_quadrature():
    grid = gauss_hermite(20)
    table = hermite_table(10, grid.nodes[:, 0])
    gram = (table * grid.weights) @ table.T
    assert np.allclose(gram, np.eye(11), atol=1e-12)


def test_gauss_hermite_q1():
    grid = gauss_hermite(1)
    assert np.allclose(grid.nodes, [[0.0]])
    assert np.allclose(grid.weights, [1.0])


def test_gauss_hermite_q2():
    # roots of h_2: x^2 - 1 = 0
    grid = gauss_hermite(2)
    assert np.allclose(np.sort(grid.nodes[:, 0]), [-1.0, 1.0])
    assert np.allclose(grid.weights, [0.5, 0.5])


def test_gauss_hermite_q3():
    # roots of h_3: x^3 - 3x = 0; exact through degree 5
    grid = gauss_hermite(3)
    assert np.allclose(np.sort(grid.nodes[:, 0]), [-math.sqrt(3), 0.0, math.sqrt(3)])
    assert np.allclose(np.sort(grid.weights), [1 / 6, 1 / 6, 2 / 3])
    x = grid.nodes[:, 0]
    assert np.dot(grid.weights, x**4) == pytest.approx(3.0, abs=1e-12)


def test_weights_sum_to_one():
    for q in (1, 5, 40):
        assert gauss_hermite(q).weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_every_admitted_rule_is_orthonormal_to_rounding():
    """Every Q a config admits (1..512) is orthonormal up to the largest N it
    can pair with, min(Q - 1, 64), to 5e-15; weights from the eigenvectors
    of the Jacobi matrix missed 1e-13 from Q = 26 on."""
    defects = {q: float(np.max(gauss_hermite(q).rule_defects(min(q - 1, 64))[0])) for q in range(1, 513)}
    worst = max(defects, key=defects.get)
    assert defects[worst] <= 5e-15, (worst, defects[worst])


def test_tensor_grid_shape_and_moments():
    grid = tensor_grid(5, 3)
    assert grid.nodes.shape == (125, 3)
    # E[x_i x_j] = delta_ij under gamma_3
    second = np.einsum("m,mi,mj->ij", grid.weights, grid.nodes, grid.nodes)
    assert np.allclose(second, np.eye(3), atol=1e-12)


def test_uniform_gaussian_grid_normalized():
    grid = uniform_gaussian_grid(8.0, 801, 2)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.dot(grid.weights, grid.nodes[:, 0] ** 2) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("span, n", [(0.0, 5), (-1.0, 5), (float("nan"), 5), (3.0, 1), (3.0, 0)])
def test_uniform_gaussian_grid_refuses_degenerate_input(span, n):
    # span 0 once gave NaN weights, and n < 2 an IndexError
    with pytest.raises(ValueError, match="span > 0 and n >= 2"):
        uniform_gaussian_grid(span, n)


def test_nodes_are_built_in_one_allocation():
    grid = tensor_grid(4, 8)  # 65,536 nodes, 4.2 MB
    tracemalloc.start()
    try:
        nodes = grid.nodes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * nodes.nbytes
    columns = np.meshgrid(*(x for x, _ in grid.rules), indexing="ij")
    assert np.array_equal(nodes, np.stack([c.ravel() for c in columns], axis=1))


def test_eval_matrix_wrong_dimension():
    basis = enumerate_basis(2, 3)
    with pytest.raises(ValueError, match="dimension"):
        basis.eval_matrix(np.zeros((4, 3)))


def test_lowering_table():
    basis = enumerate_basis(2, 3)
    table = basis.lowering_table()
    j = basis.position((2, 1))
    assert table[j, 0] == basis.position((1, 1))
    assert table[j, 1] == basis.position((2, 0))
    assert table[basis.position((0, 0))].tolist() == [-1, -1]


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), degree=st.integers(0, 6))
def test_gram_pattern_per_fibre_equals_the_pairwise_compare(k, degree):
    basis = enumerate_basis(k, degree)
    for fibres, compared in zip(basis.gram_pattern, gram_pattern_by_compare(basis)):
        assert fibres.dtype == compared.dtype and np.array_equal(fibres, compared)


def test_two_cli_operations_share_one_basis_whose_tables_are_read_only(tmp_path, monkeypatch):
    import json

    import gfpk.cli

    bases = []
    solve = gfpk.cli.solve_stationary
    monkeypatch.setattr(gfpk.cli, "solve_stationary", lambda v, basis, *a: bases.append(basis) or solve(v, basis, *a))
    for out, h in (("a", 0.3), ("b", -0.2)):
        cfg = {"mode": "solve-linear", "k": 2, "N": 4, "Q": 8, "drift": {"kind": "constant", "h": [h, 0.1]}}
        path = tmp_path / f"{out}.json"
        path.write_text(json.dumps(cfg))
        assert gfpk.cli.main(["solve-linear", "--config", str(path), "--out", str(tmp_path / out)]) == 0
    assert len(bases) == 2 and bases[0] is bases[1]
    basis = bases[0]
    assert basis.axis_index.tolist() == [[basis.position((n, 0)) for n in range(5)], [basis.position((0, n)) for n in range(5)]]
    tables = [basis.exponents, basis.lowering_table(), basis._box_index, basis.axis_index, *basis.gram_pattern]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0
