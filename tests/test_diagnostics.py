"""Certified bounds and monitored functionals."""
import math

import numpy as np
import pytest
from scipy.special import ndtr

from gfpk import (
    ChaosDensity,
    NumericError,
    b1_bound,
    ball_check,
    constant_drift,
    enumerate_basis,
    fisher_energy,
    log_moment,
    superlevel_mass_1d,
    tail_check,
    tensor_grid,
)
from gfpk.diagnostics import log_moment_bracket
from helpers import b1_bound_quadrature, cameron_martin, node_values


def test_b1_bound_zero_is_one():
    assert b1_bound(0.0) == 1.0


def test_b1_bound_matches_quadrature():
    for c0 in (0.1, 0.5, 1.0, 2.0, 5.0):
        numeric = b1_bound_quadrature(c0)
        closed = b1_bound(c0)
        assert abs(numeric - closed) <= 1e-10 * closed


# every C0 on 0.05, 0.10, ..., 11.95; the quadrature is the independent check
# of the closed form (with quad's default absolute tolerance, 25 of these,
# 0.15, 1.1 and 7.1 among them, once failed its convergence check)
B1_GRID = [round(0.05 * j, 2) for j in range(1, 240)]


@pytest.mark.parametrize("c0", B1_GRID)
def test_b1_bound_converges_on_c0_grid(c0):
    closed = b1_bound(c0)
    assert abs(b1_bound_quadrature(c0) - closed) <= 1e-12 * closed


@pytest.mark.parametrize("c0", [26.6, 30.0, math.inf, math.nan])
def test_b1_bound_beyond_float_range_raises(c0):
    """e^{C0^2} overflows above C0 = 26.6: a NumericError, never an
    OverflowError or an infinite radius."""
    with pytest.raises(NumericError):
        b1_bound(c0)


@pytest.mark.parametrize("c0", [26.6, 30.0, math.inf])
def test_ball_check_beyond_float_range_passes_with_right_none(c0):
    """b1_bound keeps its NumericError; the ball entry reads a radius above
    the largest float as right None, which every finite sum c^2 is below."""
    rho = cameron_martin(0.5, 6)
    entry = ball_check(rho, c0)
    assert entry == {"name": "l2_ball", "left": rho.l2_norm_sq(), "right": None, "pass": True, "inputs": {"C0": c0}}
    assert ball_check(rho, math.nan)["pass"] is False


def test_b1_bound_monotone():
    values = [b1_bound(c0) for c0 in (0.0, 0.2, 0.5, 1.0, 2.0)]
    assert values == sorted(values)
    assert all(v >= 1.0 for v in values)


def test_b1_bound_negative_raises():
    with pytest.raises(ValueError):
        b1_bound(-1.0)


def test_tail_check_constant_density():
    rho = ChaosDensity.constant(enumerate_basis(1, 4))
    grid = tensor_grid(16, 1)
    report = tail_check(1.0, (2.0, 4.0, 8.0), grid, rho.evaluate(grid))
    assert report["pass"]
    assert report["left"] == 0.0


def test_tail_check_right_exceeds_mass_near_one():
    rho = cameron_martin(0.3, 12)
    grid = tensor_grid(24, 1)
    report = tail_check((0.6 * math.pi) ** -2, (1.0001,), grid, rho.evaluate(grid))
    assert report["pass"]
    assert report["inputs"]["rows"][0]["right"] > 1.0  # e^2 > total mass


def test_tail_check_rejects_levels_at_most_one():
    rho, grid = ChaosDensity.constant(enumerate_basis(1, 4)), tensor_grid(8, 1)
    with pytest.raises(ValueError, match="exceed 1"):
        tail_check(1.0, (1.0,), grid, rho.evaluate(grid))


def test_cameron_martin_levelset_mass_matches_erf():
    """exp(cx - c^2/2) >= t iff x >= (ln t)/c + c/2; the Gaussian upper-tail
    closed form is the oracle for the level-set mass."""
    c = 0.3
    rho = cameron_martin(c, 12)
    for t in (2.0, 4.0):
        left = superlevel_mass_1d(rho, t)
        exact = 1.0 - ndtr(math.log(t) / c + c / 2.0)
        assert abs(left - exact) <= 1e-8


# values of the scipy.special.ndtr implementation of the level-set mass
LEVELSET_MASSES = {
    (0.3, 1.5): 0.06660663570537873,
    (0.3, 2.0): 0.00693736029152725,
    (0.3, 4.0): 9.166532490834101e-07,
    (0.3, 8.0): 7.132072710192006e-13,
    (-0.5, 1.5): 0.14436080820826952,
    (-0.5, 2.0): 0.05088899791280395,
    (-0.5, 4.0): 0.0012531130333041064,
    (-0.5, 8.0): 5.195254434309807e-06,
}


@pytest.mark.parametrize("c, t", sorted(LEVELSET_MASSES))
def test_levelset_mass_matches_ndtr_values(c, t):
    assert abs(superlevel_mass_1d(cameron_martin(c, 12), t) - LEVELSET_MASSES[c, t]) <= 1e-15


def test_cameron_martin_tail_bound_certified():
    c = 0.3
    rho = cameron_martin(c, 12)
    sigma_inf = (2.0 * math.pi * c) ** -2
    for t in (2.0, 4.0, 8.0):
        assert superlevel_mass_1d(rho, t) <= math.e**2 * math.exp(-sigma_inf * math.log(t) ** 2) + 1e-8


def test_log_moment_constant_density():
    rho = ChaosDensity.constant(enumerate_basis(1, 4))
    grid = tensor_grid(16, 1)
    assert log_moment(0.2, grid, rho.evaluate(grid)) == pytest.approx(math.log(2.0) ** 0.2, abs=1e-12)


def test_log_moment_alpha_to_zero_limit():
    rho = cameron_martin(0.3, 12)
    grid = tensor_grid(24, 1)
    # as alpha -> 0 the integrand tends to f, whose integral is the unit mass
    assert log_moment(1e-6, grid, rho.evaluate(grid)) == pytest.approx(1.0, abs=5e-3)


def test_log_moment_alpha_range():
    rho = ChaosDensity.constant(enumerate_basis(1, 2))
    grid = tensor_grid(8, 1)
    for alpha in (0.0, 0.25, 0.5):
        with pytest.raises(ValueError):
            log_moment(alpha, grid, rho.evaluate(grid))


def test_log_moment_cameron_martin_against_fine_quadrature():
    c, alpha = 0.3, 0.2
    rho = cameron_martin(c, 12)
    grid = tensor_grid(24, 1)
    value = log_moment(alpha, grid, rho.evaluate(grid))
    # independent oracle: dense trapezoid quadrature of the exact density
    x = np.linspace(-10, 10, 200001)
    f = np.exp(c * x - c * c / 2.0)
    phi = np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)
    oracle = np.trapezoid(f * np.log1p(f) ** alpha * phi, x)
    assert value == pytest.approx(oracle, abs=1e-6)


def test_log_moment_bracket_reported():
    rho = cameron_martin(0.3, 12)
    grid = tensor_grid(24, 1)
    bracket = log_moment_bracket(0.2, grid, *node_values(rho, constant_drift([0.3]), None, grid))
    assert bracket >= 1.0


def test_fisher_constant_density_is_zero():
    rho = ChaosDensity.constant(enumerate_basis(2, 4))
    grid = tensor_grid(8, 2)
    report = fisher_energy(rho, grid, *node_values(rho, constant_drift([0.0, 0.0]), None, grid))
    assert not report["fisher_skipped"]
    assert report["fisher"] == pytest.approx(0.0, abs=1e-15)
    # drift energy for v = 0 is the Gaussian second moment, k
    assert report["drift_energy_gamma"] == pytest.approx(2.0, abs=1e-10)


def test_fisher_cameron_martin_identity():
    # grad rho = c rho, so fisher = c^2 * integral rho dgamma = c^2
    c = 0.4
    rho = cameron_martin(c, 14)
    grid = tensor_grid(28, 1)
    report = fisher_energy(rho, grid, *node_values(rho, constant_drift([c]), None, grid))
    assert report["fisher"] == pytest.approx(c * c, abs=1e-6)


def test_fisher_skips_degenerate_density():
    basis = enumerate_basis(1, 2)
    rho = ChaosDensity(basis, np.array([1.0, 0.0, 4.0]))  # negative near 0
    grid = tensor_grid(16, 1)
    report = fisher_energy(rho, grid, *node_values(rho, constant_drift([0.0]), None, grid))
    assert report["fisher_skipped"]
    assert "mass" in report["fisher_skipped_reason"]
