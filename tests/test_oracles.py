"""Independent oracles: closed-form 1-D, finite-difference 2-D, SDE sampler."""
import json
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfpk import (
    DomainError,
    InstabilityError,
    NumericError,
    constant_drift,
    custom_drift,
    l2_gamma_distance,
    oracle_1d,
    oracle_1d_selfconsistent,
    oracle_fd_2d,
    oracle_sde,
    rotational_drift,
    tensor_grid,
)
from gfpk import oracles
from gfpk.cli import main
from gfpk.oracles import _face_coefficients, _krylov_steady_state
from helpers import cameron_martin, fd_matrix, mass_row_fd_2d, pinned_solve, refined_fd_values


def test_oracle_1d_zero_drift_is_gaussian():
    oracle = oracle_1d(lambda x: np.zeros_like(x))
    phi = np.exp(-0.5 * oracle.x**2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(oracle.pdf - phi)) <= 1e-10
    assert oracle.mean() == pytest.approx(0.0, abs=1e-12)


def test_oracle_1d_constant_drift_shifted_gaussian():
    c = 0.3
    oracle = oracle_1d(lambda x: np.full_like(x, c))
    assert oracle.mean() == pytest.approx(c, abs=1e-8)
    # gamma-relative form exp(cx - c^2/2)
    rel = oracle.gamma_density()
    mid = np.abs(oracle.x - 1.0).argmin()
    assert rel[mid] == pytest.approx(math.exp(c * oracle.x[mid] - c * c / 2), rel=1e-8)


def test_oracle_1d_domain_too_small():
    with pytest.raises(DomainError, match="boundary"):
        oracle_1d(lambda x: np.full_like(x, 3.0), span=2.0)


def test_oracle_1d_selfconsistent_symmetric():
    oracle = oracle_1d_selfconsistent(lambda z: 0.2 * np.tanh(z))
    assert oracle.mean() == pytest.approx(0.0, abs=1e-10)
    assert oracle.second_moment() == pytest.approx(1.0, abs=0.2)


@pytest.mark.parametrize("seed", range(5))
def test_cumulative_trapezoid_is_scipy_bitwise(seed):
    from scipy.integrate import cumulative_trapezoid

    from gfpk.oracles import _cumulative_trapezoid

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 3000))
    x = np.sort(rng.uniform(-10.0, 10.0, n))
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    assert np.array_equal(_cumulative_trapezoid(y, x), cumulative_trapezoid(y, x, initial=0.0))


@pytest.mark.parametrize("na, nb", [(1, 1), (2, 1), (7, 3), (64, 64), (1001, 333), (40001, 20001)])
def test_fft_valid_convolution_matches_direct(na, nb):
    from gfpk.oracles import _convolve_valid

    rng = np.random.default_rng(na + nb)
    a, b = rng.standard_normal(na), rng.standard_normal(nb)
    direct = np.convolve(a, b, mode="valid")
    fast = _convolve_valid(a, b)
    assert fast.shape == direct.shape
    assert np.max(np.abs(fast - direct)) <= 1e-14 * np.sum(np.abs(a)) * np.max(np.abs(b))


def test_l2_gamma_distance_exact_match():
    c = 0.3
    rho = cameron_martin(c, 16)
    oracle = oracle_1d(lambda x: np.full_like(x, c))
    assert l2_gamma_distance(rho, oracle) <= 1e-7


def test_sde_zero_drift_recovers_gamma():
    v = constant_drift([0.0])
    moments = oracle_sde(v, None, dt=5e-3, n_steps=2000, n_particles=500, seed=7)
    assert abs(moments.mean[0]) <= 3 * moments.mean_se[0]
    assert abs(moments.second[0, 0] - 1.0) <= 3 * moments.second_se[0, 0]


def test_sde_constant_drift_mean():
    v = constant_drift([0.3])
    moments = oracle_sde(v, None, dt=5e-3, n_steps=2000, n_particles=500, seed=11)
    assert abs(moments.mean[0] - 0.3) <= 3 * moments.mean_se[0]


def test_sde_reproducible_bitwise():
    v = constant_drift([0.1])
    a = oracle_sde(v, None, dt=5e-3, n_steps=400, n_particles=100, seed=3)
    b = oracle_sde(v, None, dt=5e-3, n_steps=400, n_particles=100, seed=3)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.second, b.second)


def test_sde_rejects_large_dt():
    with pytest.raises(ValueError, match="dt"):
        oracle_sde(constant_drift([0.0]), None, dt=0.1)


def test_sde_blowup_detection():
    # destabilizing drift v = 3x wrapped with a huge declared bound
    v = custom_drift(lambda p, x: 3.0 * x, 1, "H", 1e9, reads_measure=False)
    with pytest.raises(InstabilityError, match="dt"):
        oracle_sde(v, None, dt=0.01, n_steps=2000, n_particles=100, seed=0)


def test_fd_2d_zero_drift_gaussian():
    fd = oracle_fd_2d(lambda x: np.zeros_like(x), span=6.0, n=81)
    xx, yy = np.meshgrid(fd.x, fd.x, indexing="ij")
    exact = np.exp(-0.5 * (xx**2 + yy**2)) / (2 * math.pi)
    assert np.max(np.abs(fd.values - exact)) <= 1e-3  # O(h^2) at h = 0.15


def test_fd_2d_gradient_drift_closed_form():
    # v = grad W with W = 0.4 * 2 * (log cosh(x1/2) + log cosh(x2/2))
    lam, width = 0.4, 2.0

    def v(x):
        return lam * np.tanh(x / width)

    fd = oracle_fd_2d(v, span=6.0, n=81)
    xx, yy = np.meshgrid(fd.x, fd.x, indexing="ij")
    w = lam * width * (np.log(np.cosh(xx / width)) + np.log(np.cosh(yy / width)))
    exact = np.exp(-0.5 * (xx**2 + yy**2) + w)
    exact /= exact.sum() * fd.h**2
    assert np.max(np.abs(fd.values - exact)) <= 2e-3


def test_fd_2d_convergence_order():
    # halving h must shrink the error by about 4 (second order); a gradient
    # drift is used because the exponentially fitted scheme is essentially
    # exact for the pure Gaussian
    lam, width = 0.4, 2.0

    def err(n):
        fd = oracle_fd_2d(lambda x: lam * np.tanh(x / width), span=6.0, n=n)
        xx, yy = np.meshgrid(fd.x, fd.x, indexing="ij")
        w = lam * width * (np.log(np.cosh(xx / width)) + np.log(np.cosh(yy / width)))
        exact = np.exp(-0.5 * (xx**2 + yy**2) + w)
        exact /= exact.sum() * fd.h**2
        return np.max(np.abs(fd.values - exact))

    e1, e2 = err(40), err(80)
    assert 2.5 <= e1 / e2 <= 6.0


def test_fd_2d_marginal_mass():
    fd = oracle_fd_2d(lambda x: np.zeros_like(x), span=6.0, n=61)
    for axis in (0, 1):
        assert np.sum(fd.marginal(axis)) * fd.h == pytest.approx(1.0, abs=1e-12)


def loop_built_fd_matrix(v, x, h):
    """The flux-balance matrix assembled face by face, as a reference for the
    array assembly: four entries per face, the off-diagonal entries of the row
    of the cell nearest the origin (the pinned cell) kept as stored zeros."""
    import scipy.sparse as sp

    from gfpk.oracles import _bernoulli

    n = x.size
    pin = (n // 2) * n + n // 2
    rows, cols, data = [], [], []
    for axis in range(2):
        if axis == 0:
            face_pts = np.stack([np.repeat(0.5 * (x[:-1] + x[1:]), n), np.tile(x, n - 1)], axis=1)
        else:
            face_pts = np.stack([np.repeat(x, n - 1), np.tile(0.5 * (x[:-1] + x[1:]), n)], axis=1)
        w = (np.asarray(v(face_pts)) - face_pts)[:, axis] * h
        b_minus, b_plus = _bernoulli(-w) / h**2, _bernoulli(w) / h**2
        for m in range(face_pts.shape[0]):
            if axis == 0:
                i, j = divmod(m, n)
                lo, hi = i * n + j, (i + 1) * n + j
            else:
                i, j = divmod(m, n - 1)
                lo, hi = i * n + j, i * n + j + 1
            entries = ((lo, lo, b_minus[m]), (lo, hi, -b_plus[m]), (hi, lo, -b_minus[m]), (hi, hi, b_plus[m]))
            for row, col, value in entries:
                rows.append(row)
                cols.append(col)
                data.append(0.0 if row == pin and col != pin else value)
    return sp.csc_matrix((data, (rows, cols)), shape=(n * n, n * n))


@pytest.mark.parametrize("n", [5, 8, 40])
def test_fd_matrix_matches_face_loop(n):
    """The CSC arrays carry the values and the sorted 5-point pattern of the
    face loop, the stored zeros of the pinned row included: a dropped zero
    changes the minimum-degree order and with it the factored reference."""
    v = rotational_drift(0.3, 2, offset=[0.2, 0.0])
    span = 6.0
    h = 2.0 * span / n
    x = -span + h * (np.arange(n) + 0.5)
    field = lambda pts: v.eval_v(None, pts)
    fast, reference = fd_matrix(_face_coefficients(field, x, h)), loop_built_fd_matrix(field, x, h)
    assert fast.shape == reference.shape
    difference = abs(fast - reference)
    assert difference.max() <= 1e-15 * abs(reference).max()
    assert (fast != 0).nnz == (reference != 0).nnz
    reference.sort_indices()
    assert fast.format == "csc" and fast.nnz == 5 * n * n - 4 * n
    assert np.array_equal(fast.indptr, reference.indptr)
    assert np.array_equal(fast.indices, reference.indices)
    assert np.count_nonzero(fast.data == 0.0) == np.count_nonzero(reference.data == 0.0) == 4


# The oracle's restarted GMRES and the mass-row closing (mass_row_fd_2d) are
# backward-stable solves of one system.  Measured against the pinned solve
# refined with long-double flux residuals (refined_fd_values) on the FD_DRIFTS
# at 41 and 161 cells, the oracle lies at most 1.4e-15 of the peak off and the
# mass-row closing 9.7e-15; on 3,900 random tanh drifts of 5 to 30 cells the
# oracle lies at most 1.7e-15 off, and at spans 53 to 100 at most 2.9e-15.
# The mass-row closing tests stop at 161 cells: the assembled diagonal's
# rounding puts the mass-row reference 2.3e-13 of the peak from the exact null
# vector at 321 cells with zero drift, above this tolerance.
FD_CLOSING_TOL = 3e-14
FD_DRIFTS = {
    "zero": lambda x: np.zeros_like(x),
    "tanh-gradient": lambda x: 0.4 * np.tanh(x / 2.0),
    "rotational": lambda x, v=rotational_drift(0.3, 2, offset=[0.2, 0.0]): v.eval_v(None, x),
    "strong-rotational": lambda x, v=rotational_drift(3.0, 2, offset=[0.8, -0.3]): v.eval_v(None, x),
    # GMRES stopped at an Arnoldi residual of 1e-16 of its scale read 2.7e-14 of the peak on this drift
    "mid-rotational": lambda x, v=rotational_drift(0.8, 2, offset=[0.3, 0.0]): v.eval_v(None, x),
}


@pytest.mark.parametrize("n", [41, 161])
@pytest.mark.parametrize("drift", sorted(FD_DRIFTS))
def test_fd_pinned_cell_matches_the_mass_row(drift, n):
    reference = mass_row_fd_2d(FD_DRIFTS[drift], 6.0, n)
    values = oracle_fd_2d(FD_DRIFTS[drift], span=6.0, n=n).values
    assert np.max(np.abs(values - reference)) <= FD_CLOSING_TOL * np.max(reference)


def fd_cells(n, span=6.0):
    """Cell width and centers of oracle_fd_2d's grid."""
    h = 2.0 * span / n
    return h, -span + h * (np.arange(n) + 0.5)


# bounded drifts v(x) = a * tanh(B x + c) on at most 30^2 cells
TANH_DRIFTS = dict(n=st.integers(5, 30), coefficients=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8))


def tanh_drift(coefficients):
    a, c = np.array(coefficients[:2]), np.array(coefficients[2:4])
    b = np.array(coefficients[4:]).reshape(2, 2)
    return lambda pts: a * np.tanh(pts @ b.T + c)


@settings(max_examples=40, deadline=None)
@given(**TANH_DRIFTS)
def test_pinned_fd_matrix_is_a_column_dominant_m_matrix(n, coefficients):
    """For a bounded drift v(x) = a * tanh(B x + c) the pinned matrix is
    structurally symmetric, with a positive diagonal, nonpositive
    off-diagonals and columns whose diagonal dominates, strictly in at least
    one column: the M-matrix that SuperLU factors without pivoting."""
    h, x = fd_cells(n)
    matrix = fd_matrix(_face_coefficients(tanh_drift(coefficients), x, h))
    pattern = matrix.copy()
    pattern.data[:] = 1.0
    assert (pattern != pattern.T).nnz == 0
    diagonal = matrix.diagonal()
    off = (matrix - sp.diags(diagonal)).tocsc()
    assert np.all(diagonal > 0.0) and np.all(off.data <= 0.0)
    column_off = np.asarray(abs(off).sum(axis=0)).ravel()
    assert np.all(diagonal >= column_off * (1.0 - 1e-14))
    assert np.any(diagonal > column_off * (1.0 + 1e-14))


@pytest.mark.parametrize(
    "matrix, match",
    [([[1.0, -1.0], [-1.0, 1.0]], "singular"), ([[1.0, 0.0], [-1.0, 1e-310]], "failed")],
    ids=["singular", "overflow"],
)
def test_fd_solve_failures_are_numeric_errors(matrix, match):
    # an exactly singular factor, and a ratio to the pinned cell beyond the float range
    with pytest.raises(NumericError, match=match):
        pinned_solve(sp.csc_matrix(np.array(matrix)), 0)


@settings(max_examples=40, deadline=None)
@given(**TANH_DRIFTS)
# 66 steps, past one GMRES cycle; the factored pinned solve alone lies 1.3e-13 of the peak from the reference
@example(
    n=27,
    coefficients=[
        -2.8847911722981614, -2.1837589438207203, -0.054842218527039854, -0.23118852275219925,
        -2.58613073563229, -0.9568591343298007, -1.277823097413593, -1.279873032244287,
    ],
)
def test_krylov_fd_solve_matches_the_factored_one(n, coefficients):
    """On bounded non-separable drifts the oracle's answer, from restarted
    GMRES however many cycles it takes, is the factored solve refined with
    long-double residuals."""
    v = tanh_drift(coefficients)
    h, x = fd_cells(n)
    reference = refined_fd_values(_face_coefficients(v, x, h), h)
    values = oracle_fd_2d(v, span=6.0, n=n).values
    assert np.max(np.abs(values - reference)) <= FD_CLOSING_TOL * np.max(reference)


@pytest.mark.parametrize("n", [8, 9, 20, 161])
@pytest.mark.parametrize("span", [53.0, 60.0, 100.0])
@pytest.mark.parametrize("drift", sorted(FD_DRIFTS))
def test_krylov_fd_solve_holds_on_wide_boxes(drift, span, n):
    """Past a span of about 53 the 1-D stationary vectors of the
    preconditioner underflow and, on the coarse grids, B(w) with them: the
    solve stays finite and on the refined reference."""
    h, x = fd_cells(n, span)
    faces = _face_coefficients(FD_DRIFTS[drift], x, h)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        u, _ = _krylov_steady_state(faces, x, h)
    reference = refined_fd_values(faces, h)
    values = u / float(u.sum() * h * h)
    assert np.max(np.abs(values - reference)) <= FD_CLOSING_TOL * np.max(reference)


@pytest.mark.parametrize("n", [41, 161])
@pytest.mark.parametrize("drift", ["zero", "tanh-gradient", "rotational"])
def test_krylov_steps_vanish_only_for_a_separable_drift(drift, n):
    """The separable part of a separable drift is the whole operator: its
    null vector, the start, is the answer."""
    h, x = fd_cells(n)
    u, steps = _krylov_steady_state(_face_coefficients(FD_DRIFTS[drift], x, h), x, h)
    assert np.all(np.isfinite(u)) and (steps == 0) is (drift != "rotational")


def fd2d_solver_error_report(tmp_path):
    """The report of an fd2d oracle-compare run at 41 cells, which must exit 3."""
    cfg = {
        "mode": "oracle-compare", "k": 2, "N": 8, "Q": 16,
        "drift": {"kind": "rotational", "scale": 0.3, "offset": [0.2, 0.0]},
        "oracle_compare": {"oracle": "fd2d", "n_cells": 41},
        "output": {"dir": str(tmp_path / "out")},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["oracle-compare", "--config", str(tmp_path / "cfg.json")]) == 3
    return json.loads((tmp_path / "out" / "report.json").read_text())


def test_exhausted_krylov_cycles_are_numeric_errors(monkeypatch, tmp_path):
    """A solve that runs out of GMRES cycles is a NumericError, exit 3 with
    the reason in the report, never a change of method."""
    monkeypatch.setattr(oracles, "FD_KRYLOV_MAX_CYCLES", 1)
    with pytest.raises(NumericError, match="did not converge in 1 cycles"):
        oracle_fd_2d(FD_DRIFTS["strong-rotational"], span=6.0, n=41)
    report = fd2d_solver_error_report(tmp_path)
    assert "did not converge" in report["error"]


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_drift_fails_before_the_solve(monkeypatch, value):
    """A drift that is not finite on the box is a NumericError naming the
    drift, raised before any GMRES step and without a floating-point warning."""
    def no_gmres(*args):
        raise AssertionError("GMRES ran on a non-finite drift")

    monkeypatch.setattr(oracles, "_gmres", no_gmres)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="drift b = -x \\+ v is not finite at 3280 of 3280 cell faces"):
            oracle_fd_2d(lambda x: np.full_like(x, value), span=6.0, n=41)


@pytest.mark.parametrize("value", [1e308, -1e308], ids=["plus", "minus"])
def test_huge_finite_drift_fails_before_the_solve(monkeypatch, value):
    """A finite drift so large that its flux coefficients overflow is the
    same NumericError, raised before any GMRES step and without a warning."""
    def no_gmres(*args):
        raise AssertionError("GMRES ran on an overflowing drift")

    monkeypatch.setattr(oracles, "_gmres", no_gmres)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="overflows their flux coefficients"):
            oracle_fd_2d(lambda x: np.full_like(x, value), span=6.0, n=41)


@pytest.mark.parametrize("error", [FloatingPointError("overflow encountered in multiply"),
                                   np.linalg.LinAlgError("Singular matrix")], ids=["overflow", "singular"])
def test_solver_faults_are_numeric_errors(monkeypatch, tmp_path, error):
    """An overflow or a singular matrix inside the FD solve is a NumericError,
    exit 3 with the reason in the report."""
    def failing(*args):
        raise error

    monkeypatch.setattr(oracles, "_krylov_steady_state", failing)
    with pytest.raises(NumericError, match=f"solve failed: {error}"):
        oracle_fd_2d(FD_DRIFTS["strong-rotational"], span=6.0, n=41)
    report = fd2d_solver_error_report(tmp_path)
    assert report["error"] == f"finite-difference steady state solve failed: {error}"
