"""Damped fixed-point iteration and ball membership."""
import numpy as np
import pytest

from gfpk import (
    ConstantKernel,
    FixedPointOptions,
    NonConvergenceError,
    TanhKernel,
    constant_drift,
    enumerate_basis,
    fixed_point_solve,
    l2_distance,
    oracle_1d_selfconsistent,
    l2_gamma_distance,
    schauder_membership,
    solve_linear,
    tensor_grid,
    vlasov_drift,
)
from helpers import cameron_martin


def test_options_validation():
    with pytest.raises(ValueError):
        FixedPointOptions(damping=0.0)
    with pytest.raises(ValueError):
        FixedPointOptions(tolerance=0.0)
    with pytest.raises(ValueError):
        FixedPointOptions(max_iterations=0)


def test_constant_kernel_converges_in_one_iteration():
    grid = tensor_grid(24, 1)
    basis = enumerate_basis(1, 12)
    v = vlasov_drift(ConstantKernel((0.3,)), 1)
    rho, trace = fixed_point_solve(
        v, basis, grid, FixedPointOptions(damping=1.0, tolerance=1e-10)
    )
    assert trace.converged
    assert trace.iterations == 1
    linear = solve_linear(constant_drift([0.3]), None, basis, grid)
    assert l2_distance(rho, linear) <= 1e-12


def test_measure_independent_drift_stationary_after_first_step():
    grid = tensor_grid(20, 1)
    basis = enumerate_basis(1, 10)
    v = constant_drift([0.2])
    rho, trace = fixed_point_solve(
        v, basis, grid, FixedPointOptions(damping=1.0, tolerance=1e-12)
    )
    assert trace.iterations == 1
    assert trace.psi_residuals[-1] <= 1e-12


def test_vlasov_tanh_matches_selfconsistent_oracle():
    grid = tensor_grid(40, 1)
    basis = enumerate_basis(1, 20)
    v = vlasov_drift(TanhKernel(0.2), 1)
    rho, trace = fixed_point_solve(
        v, basis, grid, FixedPointOptions(damping=0.5, tolerance=1e-10)
    )
    assert trace.converged and trace.iterations <= 30
    oracle = oracle_1d_selfconsistent(lambda z: 0.2 * np.tanh(z))
    assert l2_gamma_distance(rho, oracle) <= 1e-6


def test_undamped_reaches_same_fixed_point():
    grid = tensor_grid(40, 1)
    basis = enumerate_basis(1, 20)
    v = vlasov_drift(TanhKernel(0.2), 1)
    damped, _ = fixed_point_solve(
        v, basis, grid, FixedPointOptions(damping=0.5, tolerance=1e-10)
    )
    undamped, _ = fixed_point_solve(
        v, basis, grid, FixedPointOptions(damping=1.0, tolerance=1e-10)
    )
    assert l2_distance(damped, undamped) <= 1e-8


def test_seed_robustness():
    grid = tensor_grid(40, 1)
    basis = enumerate_basis(1, 20)
    v = vlasov_drift(TanhKernel(0.2), 1)
    opts = FixedPointOptions(damping=0.5, tolerance=1e-10)
    from_default, _ = fixed_point_solve(v, basis, grid, opts)
    seeded = FixedPointOptions(
        damping=0.5, tolerance=1e-10, initial=cameron_martin(0.2, 20)
    )
    from_cm, _ = fixed_point_solve(v, basis, grid, seeded)
    assert l2_distance(from_default, from_cm) <= 1e-8


def test_affine_update_preserves_unit_mass():
    grid = tensor_grid(24, 1)
    basis = enumerate_basis(1, 12)
    v = vlasov_drift(TanhKernel(0.2), 1)
    rho, trace = fixed_point_solve(
        v, basis, grid, FixedPointOptions(damping=0.3, tolerance=1e-10)
    )
    assert rho.coefficients[0] == 1.0
    # the norm trace starts at the constant density
    assert trace.l2_norms_sq[0] == pytest.approx(1.0)


def test_non_convergence_carries_trace():
    grid = tensor_grid(24, 1)
    basis = enumerate_basis(1, 12)
    v = vlasov_drift(TanhKernel(0.2), 1)
    with pytest.raises(NonConvergenceError) as err:
        fixed_point_solve(
            v, basis, grid, FixedPointOptions(damping=0.5, tolerance=1e-10, max_iterations=2)
        )
    trace = err.value.trace
    assert trace.iterations == 2
    assert len(trace.psi_residuals) == 3


def test_trace_csv_format():
    grid = tensor_grid(24, 1)
    basis = enumerate_basis(1, 10)
    v = vlasov_drift(TanhKernel(0.2), 1)
    _, trace = fixed_point_solve(v, basis, grid, FixedPointOptions(damping=0.5))
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "iteration,delta,psi_residual,l2sq,in_schauder_set"
    assert len(lines) == len(trace.psi_residuals) + 1


def test_schauder_membership_constant_density():
    rho = cameron_martin(0.0, 4)
    flag, margin = schauder_membership(rho, 1.0)
    assert flag and margin >= 0.0


def test_schauder_margin_vanishes_at_zero_bound():
    rho = cameron_martin(0.0, 4)
    _, margin_small = schauder_membership(rho, 1e-4)
    assert 0.0 <= margin_small <= 1e-2
    flag, margin_zero = schauder_membership(rho, 0.0)
    assert flag and margin_zero == pytest.approx(0.0, abs=1e-15)
