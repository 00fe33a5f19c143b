"""Damped and Anderson-mixed fixed-point iteration and ball membership."""
import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfpk import (
    FixedPointOptions,
    GfpkError,
    NonConvergenceError,
    ball_check,
    clipped_linear_kernel,
    constant_drift,
    constant_kernel,
    custom_drift,
    enumerate_basis,
    fixed_point_solve,
    l2_distance,
    oracle_1d_selfconsistent,
    l2_gamma_distance,
    solve_linear,
    solve_stationary,
    tanh_kernel,
    tensor_grid,
    vlasov_drift,
)
from gfpk.drift import drift_from_block
from helpers import cameron_martin, cell_holds


def test_options_validation():
    with pytest.raises(ValueError):
        FixedPointOptions(damping=0.0)
    with pytest.raises(ValueError):
        FixedPointOptions(tolerance=0.0)
    with pytest.raises(ValueError):
        FixedPointOptions(max_iterations=0)
    with pytest.raises(ValueError):
        FixedPointOptions(memory=-1)


def test_constant_kernel_converges_in_one_iteration():
    grid = tensor_grid(24, 1)
    basis = enumerate_basis(1, 12)
    v = vlasov_drift(constant_kernel((0.3,)), 1)
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
    v = vlasov_drift(tanh_kernel(0.2), 1)
    rho, trace = fixed_point_solve(
        v, basis, grid, FixedPointOptions(damping=0.5, tolerance=1e-10)
    )
    assert trace.converged and trace.iterations <= 30
    oracle = oracle_1d_selfconsistent(lambda z: 0.2 * np.tanh(z))
    assert l2_gamma_distance(rho, oracle) <= 1e-6


def test_undamped_reaches_same_fixed_point():
    grid = tensor_grid(40, 1)
    basis = enumerate_basis(1, 20)
    v = vlasov_drift(tanh_kernel(0.2), 1)
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
    v = vlasov_drift(tanh_kernel(0.2), 1)
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
    v = vlasov_drift(tanh_kernel(0.2), 1)
    rho, trace = fixed_point_solve(
        v, basis, grid, FixedPointOptions(damping=0.3, tolerance=1e-10)
    )
    assert rho.coefficients[0] == 1.0
    # the norm trace starts at the constant density
    assert trace.l2_norms_sq[0] == pytest.approx(1.0)


def test_non_convergence_carries_trace():
    grid = tensor_grid(24, 1)
    basis = enumerate_basis(1, 12)
    v = vlasov_drift(tanh_kernel(0.2), 1)
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
    v = vlasov_drift(tanh_kernel(0.2), 1)
    _, trace = fixed_point_solve(v, basis, grid, FixedPointOptions(damping=0.5))
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "iteration,delta,psi_residual,l2sq,in_schauder_set,depth"
    assert len(lines) == len(trace.psi_residuals) + 1


@pytest.mark.parametrize("memory", [0, 1, 5])
def test_trace_records_the_anderson_depth(memory):
    """Each step mixes one more history pair than the last, up to memory;
    the first step and every step after the residual grows mix none."""
    v = vlasov_drift(clipped_linear_kernel(1.0, 2.0), 1)
    _, trace = fixed_point_solve(
        v, enumerate_basis(1, 12), tensor_grid(24, 1), FixedPointOptions(damping=0.5, memory=memory)
    )
    psi = trace.psi_residuals
    expected = [0]
    for m in range(1, trace.iterations):
        expected.append(0 if psi[m] > psi[m - 1] else min(expected[-1] + 1, memory))
    assert trace.depths == expected
    if memory == 5:
        assert 0 in trace.depths[1:]  # this solve restarts
    column = [line.rsplit(",", 1)[1] for line in trace.to_csv().strip().splitlines()[1:]]
    assert column == [str(d) for d in trace.depths] + [""]  # the converged iterate takes no step


def test_anderson_converges_where_undamped_picard_does_not():
    v = vlasov_drift(clipped_linear_kernel(1.0, 2.0), 2)
    basis, grid = enumerate_basis(2, 12), tensor_grid(24, 2)
    with pytest.raises(NonConvergenceError):
        fixed_point_solve(v, basis, grid, FixedPointOptions(damping=1.0, memory=0))
    _, trace = fixed_point_solve(v, basis, grid, FixedPointOptions(damping=1.0))
    assert trace.converged and trace.iterations <= 15


@pytest.mark.parametrize("memory", [0, 5])
def test_a_drift_without_a_finite_ball_radius_still_converges(memory):
    """C0 = 35.5 is past the last finite b1_bound (C0 about 26.6); the radius
    only feeds the monitored in_ball flags, which stay None."""
    v = vlasov_drift(tanh_kernel(4.0), 2)
    assert v.c0 > 26.6
    _, trace = fixed_point_solve(v, enumerate_basis(2, 8), tensor_grid(16, 2), FixedPointOptions(memory=memory))
    assert trace.converged
    assert trace.in_ball == [None] * len(trace.psi_residuals)


def test_trace_csv_holds_the_trace_exactly():
    """One CRLF row per iterate; the last took no step, so its delta and
    depth are empty, as is an in_ball flag of None (tanh 5.0, C0 = 31.4)."""
    basis, grid = enumerate_basis(1, 8), tensor_grid(16, 1)
    _, converged = fixed_point_solve(vlasov_drift(tanh_kernel(0.5), 1), basis, grid)
    with pytest.raises(NonConvergenceError) as failed:
        fixed_point_solve(vlasov_drift(tanh_kernel(5.0), 1), basis, grid, FixedPointOptions(max_iterations=3))
    for trace in (converged, failed.value.trace):
        text = trace.to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert text.count("\r\n") == len(rows) == len(trace.psi_residuals) + 1
        assert rows[0] == ["iteration", "delta", "psi_residual", "l2sq", "in_schauder_set", "depth"]
        columns = [range(len(rows) - 1), trace.deltas + [None], trace.psi_residuals, trace.l2_norms_sq, trace.in_ball,
                   trace.depths + [None]]
        assert all(cell_holds(cell, value) for row, *values in zip(rows[1:], *columns)
                   for cell, value in zip(row, values, strict=True))
    assert None not in converged.in_ball and failed.value.trace.in_ball == [None] * 4


def test_measure_free_custom_drift_takes_one_linear_solve():
    """The README's custom field gets one linear solve, with the
    coefficients of the fixed point that ignores the measure."""
    basis, grid = enumerate_basis(1, 20), tensor_grid(40, 1)

    def field(measure, x):
        return 0.3 * np.tanh(x)

    w = custom_drift(field, 1, h_bound=0.3, reads_measure=False)
    rho, trace = solve_stationary(w, basis, grid, FixedPointOptions())
    assert trace is None
    reading = custom_drift(field, 1, h_bound=0.3, reads_measure=True)
    for memory in (0, 5):
        fixed, fixed_trace = solve_stationary(reading, basis, grid, FixedPointOptions(memory=memory))
        assert fixed_trace.iterations > 1
        assert np.array_equal(fixed.coefficients, rho.coefficients)


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.sampled_from(["tanh", "gaussian-lobe", "clipped-linear"]),
    scale=st.floats(-2.5, 2.5),
    cap=st.floats(0.1, 3.0),
    damping=st.sampled_from([0.3, 0.5, 1.0]),
    k=st.sampled_from([1, 2]),
)
def test_anderson_converges_wherever_damped_picard_does(kernel, scale, cap, damping, k):
    block = {"kind": kernel, "scale": scale, **({"cap": cap} if kernel == "clipped-linear" else {})}
    v = drift_from_block({"kind": "vlasov", "kernel": block}, k)
    basis, grid = (enumerate_basis(1, 10), tensor_grid(20, 1)) if k == 1 else (enumerate_basis(2, 6), tensor_grid(12, 2))
    try:
        damped, _ = fixed_point_solve(v, basis, grid, FixedPointOptions(damping=damping, memory=0, max_iterations=300))
    except GfpkError:
        assume(False)
    constant_terms = []
    read_measure = type(v).read_measure

    def recording(self, p, grid):
        constant_terms.append(p.coefficients[0])
        return read_measure(self, p, grid)

    with mock.patch.object(type(v), "read_measure", recording):
        mixed, trace = fixed_point_solve(v, basis, grid, FixedPointOptions(damping=damping, max_iterations=300))
    assert trace.converged
    assert len(constant_terms) == trace.iterations + 1 and all(c == 1.0 for c in constant_terms)
    assert np.max(np.abs(mixed.coefficients - damped.coefficients)) <= 1e-9


def _ball(rho, c0):
    """(flag, margin) of the ball entry: its pass and B(C0) - sum c^2."""
    entry = ball_check(rho, c0)
    return entry["pass"], entry["right"] - entry["left"]


def test_schauder_membership_constant_density():
    rho = cameron_martin(0.0, 4)
    flag, margin = _ball(rho, 1.0)
    assert flag and margin >= 0.0


def test_schauder_margin_vanishes_at_zero_bound():
    rho = cameron_martin(0.0, 4)
    _, margin_small = _ball(rho, 1e-4)
    assert 0.0 <= margin_small <= 1e-2
    flag, margin_zero = _ball(rho, 0.0)
    assert flag and margin_zero == pytest.approx(0.0, abs=1e-15)
