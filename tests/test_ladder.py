"""Dimension ladder: moment certificates, tails and marginal stability."""
import numpy as np
import pytest

from gfpk import (
    BumpTest,
    ChaosDensity,
    FixedPointOptions,
    HermiteTest,
    LadderConfig,
    constant_drift,
    custom_drift,
    default_battery,
    enumerate_basis,
    lyapunov_moment,
    marginal_distance,
    run_ladder,
    tensor_grid,
)
from helpers import cameron_martin, registry_drift

WEIGHTS = (0.25, 0.0625, 0.015625, 0.00390625)  # alpha_n = 4^{-n}


def make_config(**overrides):
    base = dict(
        weights=WEIGHTS,
        component_bound=0.5,
        levels=(1, 2, 3),
        degrees=(6, 5, 4),
        quad_orders=(8, 6, 5),
        fixed_point=FixedPointOptions(damping=0.5, tolerance=1e-9, max_iterations=100),
    )
    base.update(overrides)
    return LadderConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="increasing"):
        make_config(levels=(2, 1, 3))
    with pytest.raises(ValueError, match="weight"):
        LadderConfig(
            weights=(0.5, 0.49),  # ratio 0.98 > 0.9, not geometric enough
            component_bound=0.5,
            levels=(1, 2),
            degrees=(4, 4),
            quad_orders=(6, 6),
        )
    with pytest.raises(ValueError, match="equal length"):
        make_config(degrees=(6, 5))


def test_weight_total_geometric_tail():
    # sum of 4^{-n} over all n is 1/3; the configured prefix plus the
    # geometric tail bound must reproduce it exactly
    cfg = make_config()
    assert cfg.weight_total == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert cfg.moment_threshold == pytest.approx(2.25 / 3.0, abs=1e-14)


def test_lyapunov_moment_constant_density():
    rho = ChaosDensity.constant(enumerate_basis(3, 2))
    expected = sum(WEIGHTS[:3])
    assert lyapunov_moment(rho, WEIGHTS) == pytest.approx(expected, abs=1e-15)


def test_lyapunov_moment_cameron_martin():
    # shifted Gaussian second moment: 1 + c^2
    c = 0.4
    rho = cameron_martin(c, 6)
    assert lyapunov_moment(rho, WEIGHTS) == pytest.approx(
        WEIGHTS[0] * (1 + c**2), abs=1e-12
    )


def test_lyapunov_moment_explicit_h2_coefficient():
    # x^2 = sqrt(2) h_2 + 1, so c_{2 e_1} = 1/sqrt(2) means E[x_1^2] = 2
    basis = enumerate_basis(1, 2)
    rho = ChaosDensity(basis, np.array([1.0, 0.0, 1.0 / np.sqrt(2.0)]))
    assert lyapunov_moment(rho, WEIGHTS) == pytest.approx(2 * WEIGHTS[0], abs=1e-14)


def test_marginal_distance_identical_measures():
    rho = ChaosDensity.constant(enumerate_basis(1, 4))
    grid = tensor_grid(8, 1)
    battery = default_battery(1)
    assert marginal_distance(rho, grid, rho, grid, battery) == 0.0


def test_marginal_distance_mean_battery():
    # gamma vs Cameron-Martin(c), battery {x_1}: means differ by c
    from gfpk import HermiteTest

    rho_a = ChaosDensity.constant(enumerate_basis(1, 6))
    rho_b = cameron_martin(0.3, 6)
    grid = tensor_grid(16, 1)
    d = marginal_distance(rho_a, grid, rho_b, grid, [HermiteTest((1,))])
    assert d == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize(
    "phi", [HermiteTest((0, 1)), HermiteTest((0, 0, 0)), BumpTest(active=(2,), center=(0.0,), radius=2.0)]
)
def test_marginal_distance_refuses_a_coordinate_beyond_the_densities(phi):
    # such a test once read the missing coordinates as 0 (a point mass),
    # while the ladder's seeds make them standard Gaussians
    rho_a = ChaosDensity.constant(enumerate_basis(1, 4))
    rho_b = ChaosDensity.constant(enumerate_basis(2, 4))
    with pytest.raises(ValueError, match="beyond the density's k=1"):
        marginal_distance(rho_a, tensor_grid(6, 1), rho_b, tensor_grid(6, 2), [HermiteTest((1,)), phi])


def test_ladder_zero_drift():
    cfg = make_config(component_bound=0.0)
    report = run_ladder(registry_drift("componentwise-tanh", scale=0.0, n_components=3), cfg)
    assert report.completed
    for level, k in zip(report.levels, cfg.levels):
        assert np.max(np.abs(level.solution.coefficients[1:])) <= 1e-12
        assert level.moment == pytest.approx(sum(WEIGHTS[:k]), abs=1e-12)
        assert level.passed


def test_ladder_tanh_moment_certificates():
    cfg = make_config()
    report = run_ladder(registry_drift("componentwise-tanh", scale=0.5, n_components=3, mean_shift=True), cfg)
    assert report.completed
    for level in report.levels:
        assert level.passed
        assert level.moment <= cfg.moment_threshold + level.quad_error
        # Chebyshev: tail mass at R bounded by moment / R
        for r, mass in level.tail_masses.items():
            assert mass <= level.moment / r + 1e-9


def test_ladder_decoupled_marginal_stability():
    """With v_n = 0 for n >= 2 the first marginal is identical across levels.

    Identical truncation parameters per level make the shared coefficient
    block solve the same 1-D system exactly.
    """
    cfg = make_config(degrees=(6, 6, 6), quad_orders=(8, 8, 8))
    report = run_ladder(registry_drift("componentwise-decoupled-tanh", scale=0.5, n_components=3), cfg)
    assert report.completed
    for level in report.levels[:-1]:
        assert level.distance_to_next is not None
        assert level.distance_to_next <= 1e-8


def test_ladder_aborts_on_non_convergence():
    cfg = make_config(
        fixed_point=FixedPointOptions(damping=0.5, tolerance=1e-12, max_iterations=1)
    )
    report = run_ladder(registry_drift("componentwise-tanh", scale=0.5, n_components=3), cfg)
    assert not report.completed
    assert "k=1" in report.failure
    assert report.levels == []


def test_ladder_rejects_a_drift_beyond_its_component_bound():
    # the threshold (2 + C^2) T certifies only drifts bounded by C: scale 2.0
    # against C = 0.1 once ran and reported 0.67 instead of 2.0
    cfg = make_config(weights=(0.25, 0.0625), component_bound=0.1, levels=(1, 2), degrees=(5, 4),
                      quad_orders=(6, 6))
    with pytest.raises(ValueError, match="component_bound=0.1 is below"):
        run_ladder(registry_drift("componentwise-tanh", scale=2.0, n_components=2), cfg)
    with pytest.raises(ValueError, match="componentwise-bounded"):
        run_ladder(lambda k: constant_drift([0.05] * k), cfg)


def test_ladder_runs_a_custom_drift():
    """A custom componentwise field is laddered like the registry's; equal
    values give equal levels."""
    cfg = make_config(levels=(1, 2), degrees=(5, 4), quad_orders=(6, 6))
    custom = run_ladder(lambda k: custom_drift(lambda p, x: 0.3 * np.tanh(x), k, "componentwise", 0.3,
                                                   reads_measure=True), cfg)
    registry = run_ladder(registry_drift("componentwise-tanh", scale=0.3, n_components=2), cfg)
    assert custom.completed
    assert [lv.moment for lv in custom.levels] == [lv.moment for lv in registry.levels]


def test_ladder_report_serialization():
    cfg = make_config(levels=(1, 2), degrees=(5, 4), quad_orders=(6, 6))
    report = run_ladder(registry_drift("componentwise-tanh", scale=0.3, n_components=2), cfg)
    doc = report.to_json_dict()
    assert doc["completed"] and len(doc["levels"]) == 2
    csv_lines = report.to_csv().strip().splitlines()
    assert len(csv_lines) == 3
    assert csv_lines[0].startswith("k,moment,threshold,pass")
