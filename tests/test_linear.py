"""Galerkin assembly, the linear solve and the residual suite."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfpk import (
    BumpTest,
    ChaosDensity,
    HermiteTest,
    SolverError,
    assemble,
    constant_drift,
    custom_drift,
    enumerate_basis,
    gauss_hermite,
    product_grid,
    residual,
    residual_suite,
    rotational_drift,
    solve_linear,
    solve_system,
    tensor_grid,
    uniform_gaussian_grid,
)
from gfpk.drift import drift_from_block
from gfpk.linear import dgetrf, dgetrs
from helpers import cameron_martin, node_values


def test_zero_drift_interaction_vanishes():
    basis = enumerate_basis(2, 4)
    grid = tensor_grid(8, 2)
    interaction = assemble(constant_drift([0.0, 0.0]), None, basis, grid)
    assert np.allclose(interaction, 0.0)


def test_constant_drift_interaction_is_subdiagonal():
    # k=1, v = c: A[n, m] = c sqrt(n) delta_{n-1, m}
    c = 0.3
    basis = enumerate_basis(1, 6)
    interaction = assemble(constant_drift([c]), None, basis, tensor_grid(12, 1))
    expected = np.zeros((7, 7))
    for n in range(1, 7):
        expected[n, n - 1] = c * math.sqrt(n)
    assert np.allclose(interaction, expected, atol=1e-13)


def test_parity_coupling():
    """Odd drift, even frozen measure: the surviving entries pair tests of
    opposite parity.

    A[n, m] is sqrt(n) <v h_{n-1}, h_m>; with v odd the integrand is even
    only when h_{n-1} and h_m have opposite parity, i.e. n + m even.  Every
    entry with n + m odd must vanish (quadrature oracle).
    """
    v = custom_drift(lambda p, x: np.tanh(x), 1, h_bound=1.0, reads_measure=False)
    basis = enumerate_basis(1, 8)
    interaction = assemble(v, None, basis, tensor_grid(24, 1))
    for n in range(9):
        for m in range(9):
            if (n + m) % 2 == 1:
                assert abs(interaction[n, m]) <= 1e-14, (n, m)
    # and the even-sum block is genuinely populated
    assert abs(interaction[1, 1]) > 1e-3


# (drift kind, dimensions) the assembly test draws from: two separable
# measure-reading kinds and one dense kind (rotational needs an even k)
ASSEMBLY_CASES = {
    "componentwise-tanh-mean-shift": (
        lambda k, s: drift_from_block({"kind": "componentwise-tanh", "scale": s, "n_components": 3, "mean_shift": True}, k),
        (1, 2, 3),
    ),
    "vlasov-tanh": (
        lambda k, s: drift_from_block({"kind": "vlasov", "kernel": {"kind": "tanh", "scale": s}}, k),
        (1, 2, 3),
    ),
    "rotational": (lambda k, s: rotational_drift(s, k, offset=[0.2] + [0.0] * (k - 1)), (2,)),
}


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from([(kind, k) for kind, (_, ks) in ASSEMBLY_CASES.items() for k in ks]),
    degree=st.integers(0, 5),
    extra_nodes=st.integers(1, 3),
    scale=st.floats(-1.5, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_and_system_norm_read_the_assembled_array(case, degree, extra_nodes, scale, seed):
    """assemble returns the P x P interaction A itself; the linear solve is
    solve_system(basis, A) and the suite's system_norm is ||D - A||_1 of
    that array, bit for bit, on the separable and the dense path."""
    kind, k = case
    basis = enumerate_basis(k, degree)
    grid = tensor_grid(degree + extra_nodes, k)
    v = ASSEMBLY_CASES[kind][0](k, scale)
    coefficients = np.concatenate([[1.0], 0.05 * np.random.default_rng(seed).standard_normal(basis.size - 1)])
    p = v.read_measure(ChaosDensity(basis, coefficients), grid)
    interaction = assemble(v, p, basis, grid)
    assert isinstance(interaction, np.ndarray) and interaction.shape == (basis.size, basis.size)
    rho = solve_linear(v, p, basis, grid)
    assert np.array_equal(rho.coefficients, solve_system(basis, interaction).coefficients)
    system_norm = residual_suite(rho, v, p, grid, *node_values(rho, v, p, grid))["system_norm"]
    assert system_norm == np.linalg.norm(np.diag(basis.degrees()) - interaction, 1)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_and_system_norm_form_d_minus_a_without_a_diagonal_matrix():
    """Beside A, solve_system holds two (P-1)^2 arrays at most: D - A, which
    dgetrf factors in place, and the 1-norm's |D - A|.  residual_suite holds
    two P^2 arrays: the A it assembles, turned into D - A, and |D - A|.
    With np.diag(D) - A either held three.  The coefficients are bitwise
    those of the np.diag system, zero signs included."""
    basis, grid, v = enumerate_basis(2, 24), tensor_grid(25, 2), constant_drift([0.3, -0.2])
    interaction = assemble(v, None, basis, grid)
    square = (basis.size - 1) ** 2 * 8
    assert _peak_bytes(lambda: solve_system(basis, interaction)) < 2.5 * square
    rho = solve_system(basis, interaction)
    lu, piv, _ = dgetrf(np.diag(basis.degrees()[1:]) - interaction[1:, 1:])
    assert rho.coefficients[1:].tobytes() == dgetrs(lu, piv, interaction[1:, 0])[0].tobytes()
    vals, vvals = node_values(rho, v, None, grid)
    assert _peak_bytes(lambda: residual_suite(rho, v, None, grid, vals, vvals)) < 2.5 * basis.size**2 * 8


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
    v = custom_drift(lambda p, x: np.full_like(x, 40.0), 1, h_bound=40.0, reads_measure=False)
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


def test_residual_outside_the_basis_raises():
    rho = ChaosDensity.constant(enumerate_basis(2, 3))
    v = constant_drift([0.1, 0.2])
    for beta in [(4, 0), (2, 2), (1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match="not in the density's basis"):
            residual(rho, v, None, HermiteTest(beta), tensor_grid(6, 2))
    assert residual(rho, v, None, HermiteTest((0, 1)), tensor_grid(6, 2)) == pytest.approx(0.2, abs=1e-14)


def test_checks_refuse_a_coarse_grid_or_another_dimension():
    """residual and residual_suite check the grid order, the fewest nodes of
    any rule, and the drift dimension before they read the grid."""
    rho = ChaosDensity.constant(enumerate_basis(2, 6))
    coarse = product_grid([gauss_hermite(8).rules[0], gauss_hermite(6).rules[0]])
    assert coarse.q == 6
    with pytest.raises(ValueError, match="quadrature order 6 too small"):
        residual(rho, constant_drift([0.1, 0.2]), None, HermiteTest((1, 0)), coarse)
    grid = tensor_grid(8, 2)
    with pytest.raises(ValueError, match="drift dimension 3"):
        residual_suite(rho, constant_drift([0.1, 0.2, 0.3]), None, grid, rho.evaluate(grid), np.zeros((64, 3)))


def test_residual_suite_solved_case():
    basis = enumerate_basis(1, 12)
    grid = tensor_grid(24, 1)
    v = constant_drift([0.3])
    rho = solve_linear(v, None, basis, grid)
    residuals = residual_suite(rho, v, None, grid, *node_values(rho, v, None, grid))
    assert residuals["hermite_max"] <= 1e-10 * (1.0 + residuals["system_norm"])
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
