"""Chaos densities: evaluation, integration, marginals, measures, tests."""
import math

import numpy as np
import pytest

from gfpk import (
    BumpTest,
    ChaosDensity,
    DegenerateDensityError,
    NumericError,
    as_measure,
    enumerate_basis,
    integrate,
    marginal,
    tensor_grid,
)
from helpers import cameron_martin, hermite_eval


def test_constant_density_evaluates_to_one():
    rho = ChaosDensity.constant(enumerate_basis(2, 4))
    assert rho.evaluate(np.array([0.7, -1.3])) == pytest.approx(1.0, abs=1e-15)


def test_linear_density_at_origin():
    basis = enumerate_basis(1, 1)
    rho = ChaosDensity(basis, np.array([1.0, 0.3]))
    assert rho.evaluate(np.array([0.0])) == pytest.approx(1.0, abs=1e-15)


def test_cameron_martin_generating_function():
    # sum_n h_n(x) c^n / sqrt(n!) = exp(cx - c^2/2); oracle is the exponential
    rho = cameron_martin(0.3, 12)
    value = rho.evaluate(np.array([1.0]))
    assert value == pytest.approx(math.exp(0.3 - 0.045), abs=1e-6)


def test_constant_coefficient_must_be_one():
    basis = enumerate_basis(1, 2)
    with pytest.raises(ValueError, match="constant coefficient"):
        ChaosDensity(basis, np.array([0.9, 0.0, 0.0]))


def test_integrate_second_moment_of_gamma():
    grid = tensor_grid(4, 1)
    rho = ChaosDensity.constant(enumerate_basis(1, 2))
    assert integrate(rho, lambda x: x[:, 0] ** 2, grid) == pytest.approx(1.0, abs=1e-12)


def test_integrate_unit_mass():
    grid = tensor_grid(4, 1)
    rho = ChaosDensity.constant(enumerate_basis(1, 2))
    assert integrate(rho, lambda x: np.ones(x.shape[0]), grid) == pytest.approx(1.0)


def test_integrate_cameron_martin_mean():
    # the shifted Gaussian with density exp(cx - c^2/2) has mean c
    rho = cameron_martin(0.3, 12)
    grid = tensor_grid(24, 1)
    assert integrate(rho, lambda x: x[:, 0], grid) == pytest.approx(0.3, abs=1e-10)


def test_integrate_raises_on_nonfinite():
    grid = tensor_grid(4, 1)
    rho = ChaosDensity.constant(enumerate_basis(1, 2))
    with pytest.raises(NumericError, match="node"), np.errstate(divide="ignore"):
        integrate(rho, lambda x: 1.0 / (x[:, 0] - x[0, 0]), grid)


def test_marginal_product_density():
    """For c_{(m,n)} = a_m b_n with b_0 = 1 the first marginal keeps a_m.

    Oracle: 2-D quadrature of the marginal integral against 1-D Hermites.
    """
    basis = enumerate_basis(2, 4)
    a = np.array([1.0, 0.4, 0.2, 0.05, 0.01])
    b = np.array([1.0, -0.3, 0.1, 0.0, 0.0])
    coeffs = np.zeros(basis.size)
    for j, (m, n) in enumerate(basis.indices):
        if m + n <= 4:
            coeffs[j] = a[m] * b[n]
    rho = ChaosDensity(basis, coeffs)
    marg = marginal(rho, [0])
    assert np.allclose(marg.coefficients, a, atol=1e-15)
    # quadrature oracle for one coefficient: <marginal, h_2>
    grid = tensor_grid(10, 2)
    oracle = float(
        np.sum(grid.weights * hermite_eval(2, grid.nodes[:, 0]) * rho.evaluate(grid.nodes))
    )
    assert marg.coefficients[2] == pytest.approx(oracle, abs=1e-12)


def test_marginal_of_constant_is_constant():
    rho = ChaosDensity.constant(enumerate_basis(3, 3))
    marg = marginal(rho, [2])
    assert marg.k == 1
    assert np.allclose(marg.coefficients[1:], 0.0)


def test_marginal_identity_when_keeping_all():
    rho = ChaosDensity.constant(enumerate_basis(2, 3))
    assert marginal(rho, [0, 1]) is rho


def test_marginal_empty_keep_raises():
    rho = ChaosDensity.constant(enumerate_basis(2, 3))
    with pytest.raises(ValueError, match="non-empty"):
        marginal(rho, [])


def test_as_measure_constant_density():
    grid = tensor_grid(8, 1)
    measure = as_measure(ChaosDensity.constant(enumerate_basis(1, 4)), grid)
    assert measure.clip_defect == 0.0
    assert np.allclose(measure.masses, grid.weights)


def test_as_measure_cameron_martin_defect():
    # the true density is positive, so any clipped mass is truncation error
    rho = cameron_martin(0.3, 12)
    measure = as_measure(rho, tensor_grid(24, 1))
    assert measure.clip_defect <= 1e-6
    assert measure.masses.sum() == pytest.approx(1.0, abs=1e-14)


def test_as_measure_degenerate_raises():
    # rho = 1 + 4 h_2 dips to about -1.8 on |x| < 0.8, a region of Gaussian
    # mass about 0.58 > 0.5: the positive region is too small to be usable
    basis = enumerate_basis(1, 2)
    rho = ChaosDensity(basis, np.array([1.0, 0.0, 4.0]))
    with pytest.raises(DegenerateDensityError, match="positive region"):
        as_measure(rho, tensor_grid(16, 1))


def test_gradient_matches_central_differences():
    rho = cameron_martin(0.4, 10)
    x = np.array([[0.3], [-1.1], [2.0]])
    grad = rho.gradient(x)
    eps = 1e-6
    fd = (rho.evaluate(x + eps) - rho.evaluate(x - eps)) / (2 * eps)
    assert np.allclose(grad[:, 0], fd, atol=1e-7)


def test_serialization_round_trip_bit_exact():
    rho = cameron_martin(0.3, 8)
    text = rho.to_json()
    back = ChaosDensity.from_json(text)
    assert back.to_json() == text
    assert np.array_equal(back.coefficients, rho.coefficients)


def test_from_json_rejects_unknown_ordering():
    with pytest.raises(ValueError, match="ordering"):
        ChaosDensity.from_json('{"k": 1, "N": 1, "ordering": "lex", "coefficients": [1, 0]}')


def test_hermite_test_value_and_gradient():
    """h_beta as the code reads it, the one non-constant term of the density
    1 + h_beta: its value is the product of the 1-D Hermite values and its
    gradient agrees with finite differences."""
    basis = enumerate_basis(2, 3)
    coeffs = np.zeros(basis.size)
    coeffs[[0, basis.position((2, 1))]] = 1.0
    rho = ChaosDensity(basis, coeffs)
    x = np.array([[0.5, -0.7], [1.2, 0.1]])
    expected = hermite_eval(2, x[:, 0]) * hermite_eval(1, x[:, 1])
    assert np.allclose(rho.evaluate(x) - 1.0, expected)
    eps = 1e-6
    for i in range(2):
        shift = np.zeros((1, 2))
        shift[0, i] = eps
        fd = (rho.evaluate(x + shift) - rho.evaluate(x - shift)) / (2 * eps)
        assert np.allclose(rho.gradient(x)[:, i], fd, atol=1e-8)


def test_bump_test_support_and_smoothness():
    phi = BumpTest(active=(0,), center=(0.0,), radius=2.0)
    value = lambda x: BumpTest.profiles([phi], x)[0]
    vals = value(np.array([[0.0], [1.9], [2.0], [3.0]]))
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] > 0.0
    assert vals[2] == 0.0 and vals[3] == 0.0
    # gradient and laplacian agree with finite differences inside the support
    pts = np.array([[0.4], [-1.2], [1.7]])
    _, grad, lap = BumpTest.profiles([phi], pts, derivatives=True)
    eps = 1e-5
    fd_grad = (value(pts + eps) - value(pts - eps)) / (2 * eps)
    assert np.allclose(grad[0][:, 0], fd_grad, atol=1e-6)
    fd_lap = (value(pts + eps) - 2 * value(pts) + value(pts - eps)) / eps**2
    assert np.allclose(lap[0], fd_lap, atol=1e-4)


def test_bump_test_center_length_mismatch():
    with pytest.raises(ValueError, match="center"):
        BumpTest(active=(0, 1), center=(0.0,), radius=1.0)


@pytest.mark.parametrize("active, center", [((1, 1), (0.0, 0.5)), ((), ())])
def test_bump_test_active_coordinates_are_distinct(active, center):
    # a repeated coordinate would enter u twice but its derivatives once;
    # with none, phi = 1 everywhere is no compactly supported bump
    with pytest.raises(ValueError, match="distinct"):
        BumpTest(active=active, center=center, radius=1.0)
