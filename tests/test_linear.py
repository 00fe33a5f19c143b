"""Galerkin assembly, the linear solve and the residual suite."""
import math

import numpy as np
import pytest

from gfpk import (
    BumpTest,
    ChaosDensity,
    HermiteTest,
    SolverError,
    assemble,
    constant_drift,
    custom_drift,
    enumerate_basis,
    residual,
    residual_suite,
    solve_linear,
    tensor_grid,
    uniform_gaussian_grid,
)
from helpers import cameron_martin


def test_zero_drift_interaction_vanishes():
    basis = enumerate_basis(2, 4)
    grid = tensor_grid(8, 2)
    system = assemble(constant_drift([0.0, 0.0]), None, basis, grid)
    assert np.allclose(system.interaction, 0.0)


def test_constant_drift_interaction_is_subdiagonal():
    # k=1, v = c: A[n, m] = c sqrt(n) delta_{n-1, m}
    c = 0.3
    basis = enumerate_basis(1, 6)
    system = assemble(constant_drift([c]), None, basis, tensor_grid(12, 1))
    expected = np.zeros((7, 7))
    for n in range(1, 7):
        expected[n, n - 1] = c * math.sqrt(n)
    assert np.allclose(system.interaction, expected, atol=1e-13)


def test_parity_coupling():
    """Odd drift, even frozen measure: the surviving entries pair tests of
    opposite parity.

    A[n, m] is sqrt(n) <v h_{n-1}, h_m>; with v odd the integrand is even
    only when h_{n-1} and h_m have opposite parity, i.e. n + m even.  Every
    entry with n + m odd must vanish (quadrature oracle).
    """
    v = custom_drift(lambda p, x: np.tanh(x), 1, "H", 1.0)
    basis = enumerate_basis(1, 8)
    system = assemble(v, None, basis, tensor_grid(24, 1))
    for n in range(9):
        for m in range(9):
            if (n + m) % 2 == 1:
                assert abs(system.interaction[n, m]) <= 1e-14, (n, m)
    # and the even-sum block is genuinely populated
    assert abs(system.interaction[1, 1]) > 1e-3


def test_zero_drift_solution_is_constant():
    for k in (1, 2, 3):
        basis = enumerate_basis(k, 4)
        rho = solve_linear(constant_drift([0.0] * k), None, basis, tensor_grid(6, k))
        assert np.max(np.abs(rho.coefficients[1:])) <= 1e-13


def test_cameron_martin_coefficients():
    basis = enumerate_basis(1, 12)
    rho = solve_linear(constant_drift([0.3]), None, basis, tensor_grid(24, 1))
    expected = cameron_martin(0.3, 12).coefficients
    assert np.max(np.abs(rho.coefficients - expected)) <= 1e-10


def test_quadrature_order_too_small_raises():
    basis = enumerate_basis(1, 8)
    with pytest.raises(ValueError, match="quadrature order"):
        assemble(constant_drift([0.1]), None, basis, tensor_grid(4, 1))


def test_ill_conditioned_system_raises():
    # a drift of enormous magnitude makes D - A effectively singular
    v = custom_drift(lambda p, x: np.full_like(x, 40.0), 1, "H", 40.0)
    basis = enumerate_basis(1, 10)
    with pytest.raises(SolverError, match="condition"):
        solve_linear(v, None, basis, tensor_grid(20, 1))


def test_residual_constant_density_zero_drift():
    rho = ChaosDensity.constant(enumerate_basis(1, 6))
    v = constant_drift([0.0])
    value = residual(rho, v, None, HermiteTest((3,)), tensor_grid(12, 1))
    assert abs(value) <= 1e-12
    # the compactly supported test needs the dense uniform rule
    bump = BumpTest(active=(0,), center=(0.5,), radius=1.5)
    value = residual(rho, v, None, bump, uniform_gaussian_grid(10.0, 4001, 1))
    assert abs(value) <= 1e-12


def test_residual_galerkin_orthogonality():
    basis = enumerate_basis(1, 12)
    grid = tensor_grid(24, 1)
    v = constant_drift([0.3])
    rho = solve_linear(v, None, basis, grid)
    assert abs(residual(rho, v, None, HermiteTest((5,)), grid)) <= 1e-10


def test_residual_hand_quadrature_value():
    # rho = 1, v = 0.3, phi = h_1: integral of (-x + 0.3) d(gamma) = 0.3
    rho = ChaosDensity.constant(enumerate_basis(1, 4))
    grid = tensor_grid(8, 1)
    value = residual(rho, constant_drift([0.3]), None, HermiteTest((1,)), grid)
    assert value == pytest.approx(0.3, abs=1e-12)


def test_residual_suite_solved_case():
    basis = enumerate_basis(1, 12)
    grid = tensor_grid(24, 1)
    v = constant_drift([0.3])
    rho = solve_linear(v, None, basis, grid)
    hermite_max, system_norm, _ = residual_suite(rho, v, None, grid)
    assert hermite_max <= 1e-10 * (1.0 + system_norm)
    bgrid = uniform_gaussian_grid(10.0, 4001, 1)
    bumps = [
        BumpTest(active=(0,), center=(float(c),), radius=2.0)
        for c in np.linspace(-2.0, 2.0, 10)
    ]
    for phi in bumps:
        assert abs(residual(rho, v, None, phi, bgrid)) <= 1e-3


def test_linear_solve_deterministic():
    basis = enumerate_basis(2, 6)
    grid = tensor_grid(10, 2)
    v = constant_drift([0.2, -0.1])
    a = solve_linear(v, None, basis, grid)
    b = solve_linear(v, None, basis, grid)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_schauder_set_stability_in_degree():
    """The solved norm stays within B(C0) + eps_N with eps_N decreasing."""
    from gfpk import b1_bound

    v = constant_drift([0.3])
    radius_sq = b1_bound(v.c0)
    excesses = []
    for degree in (4, 8, 12):
        basis = enumerate_basis(1, degree)
        rho = solve_linear(v, None, basis, tensor_grid(2 * degree, 1))
        excesses.append(rho.l2_norm_sq() - radius_sq)
    assert all(e <= 0.0 for e in excesses)  # well inside the a-priori ball
