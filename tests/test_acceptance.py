"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Every [DERIVED] expected value is produced by an independent oracle
(closed forms, the self-consistent 1-D grid solver, the 2-D finite-difference
solver, the SDE sampler) — never by the solver under test.
"""
import json
import math
import time

import gfpk.linear
import numpy as np
import pytest

from gfpk import (
    BumpTest,
    ChaosDensity,
    ConstantKernel,
    FixedPointOptions,
    LadderConfig,
    TanhKernel,
    b1_bound,
    ball_check,
    clipped_potential_drift,
    constant_drift,
    enumerate_basis,
    fixed_point_solve,
    integrate,
    l2_distance,
    l2_gamma_distance,
    marginal,
    oracle_1d,
    oracle_1d_selfconsistent,
    oracle_fd_2d,
    oracle_sde,
    residual,
    residual_suite,
    rotational_drift,
    run_ladder,
    solve_linear,
    superlevel_mass_1d,
    tail_check,
    tensor_grid,
    uniform_gaussian_grid,
    vlasov_drift,
)
from gfpk.cli import main as cli_main
from helpers import b1_bound_quadrature, cameron_martin, node_values, registry_drift
from scipy.special import ndtr


def check(number: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_zero_drift_identity():
    start = time.monotonic()
    worst = 0.0
    for k in (1, 2, 3):
        basis = enumerate_basis(k, 6)
        rho = solve_linear(constant_drift([0.0] * k), None, basis, tensor_grid(8, k))
        worst = max(worst, float(np.max(np.abs(rho.coefficients[1:]))))
    elapsed = time.monotonic() - start
    check(
        1,
        "zero-drift identity",
        worst <= 1e-12 and elapsed < 1.0,
        f"max |c|={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_cameron_martin_recovery():
    start = time.monotonic()
    basis = enumerate_basis(1, 12)
    rho = solve_linear(constant_drift([0.3]), None, basis, tensor_grid(24, 1))
    expected = cameron_martin(0.3, 12).coefficients
    coeff_err = float(np.max(np.abs(rho.coefficients - expected)))
    norm_err = abs(rho.l2_norm_sq() - math.exp(0.09))
    member = ball_check(rho, 0.6 * math.pi)["pass"]
    elapsed = time.monotonic() - start
    check(
        2,
        "Cameron-Martin recovery",
        coeff_err <= 1e-8 and norm_err <= 1e-6 and member and elapsed < 1.0,
        f"coeff {coeff_err:.2e}, norm {norm_err:.2e}, member={member}, {elapsed:.2f}s",
    )


def test_criterion_03_residual_suite():
    basis = enumerate_basis(1, 12)
    grid = tensor_grid(24, 1)
    v = constant_drift([0.3])
    rho = solve_linear(v, None, basis, grid)
    residuals = residual_suite(rho, v, None, grid, *node_values(rho, v, None, grid))
    hermite_max = residuals["hermite_max"]
    hermite_ok = hermite_max <= 1e-10 * (1.0 + residuals["system_norm"])
    bgrid = uniform_gaussian_grid(10.0, 4001, 1)
    bumps = [
        BumpTest(active=(0,), center=(float(c),), radius=2.0)
        for c in np.linspace(-2.0, 2.0, 10)
    ]
    bump_max = max(abs(residual(rho, v, None, phi, bgrid)) for phi in bumps)
    check(
        3,
        "residual suite",
        hermite_ok and bump_max <= 1e-3,
        f"hermite {hermite_max:.2e}, bumps {bump_max:.2e}",
    )


def test_criterion_04_gradient_drift_oracle():
    lam, width = 0.8, 2.0
    v = clipped_potential_drift(lam, 1, width=width)
    basis = enumerate_basis(1, 16)
    rho = solve_linear(v, None, basis, tensor_grid(32, 1))
    oracle = oracle_1d(lambda x: lam * np.tanh(x / width))
    distance = l2_gamma_distance(rho, oracle)
    check(4, "1-D gradient-drift oracle", distance <= 1e-6, f"L2 {distance:.2e}")


def test_criterion_05_nonlinear_vlasov():
    start = time.monotonic()
    grid = tensor_grid(40, 1)
    basis = enumerate_basis(1, 20)
    v = vlasov_drift(TanhKernel(0.2), 1)
    rho, trace = fixed_point_solve(
        v, basis, grid, FixedPointOptions(damping=0.5, tolerance=1e-10)
    )
    oracle = oracle_1d_selfconsistent(lambda z: 0.2 * np.tanh(z))
    oracle_gap = l2_gamma_distance(rho, oracle)
    undamped, _ = fixed_point_solve(
        v, basis, grid, FixedPointOptions(damping=1.0, tolerance=1e-10)
    )
    theta_gap = l2_distance(rho, undamped)
    seeded, _ = fixed_point_solve(
        v,
        basis,
        grid,
        FixedPointOptions(damping=0.5, tolerance=1e-10, initial=cameron_martin(0.2, 20)),
    )
    seed_gap = l2_distance(rho, seeded)
    elapsed = time.monotonic() - start
    ok = (
        trace.converged
        and trace.iterations <= 30
        and oracle_gap <= 1e-6
        and theta_gap <= 1e-8
        and seed_gap <= 1e-8
        and elapsed < 10.0
    )
    check(
        5,
        "nonlinear Vlasov",
        ok,
        f"{trace.iterations} iters, oracle {oracle_gap:.2e}, theta {theta_gap:.2e}, "
        f"seed {seed_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_constant_kernel_one_iteration():
    grid = tensor_grid(24, 1)
    basis = enumerate_basis(1, 12)
    v = vlasov_drift(ConstantKernel((0.3,)), 1)
    _, trace = fixed_point_solve(v, basis, grid, FixedPointOptions(damping=1.0))
    check(6, "constant-kernel one iteration", trace.iterations == 1, f"{trace.iterations} iters")


def test_criterion_07_b1_bound_closed_form():
    worst = 0.0
    for c0 in (0.1, 0.5, 1.0, 2.0, 5.0):
        closed = b1_bound(c0)
        worst = max(worst, abs(b1_bound_quadrature(c0) - closed) / closed)
    zero_ok = b1_bound(0.0) == 1.0
    check(7, "a-priori ball radius", worst <= 1e-12 and zero_ok, f"rel err vs quadrature {worst:.2e}")


def test_criterion_08_tail_bound():
    t_grid = (2.0, 4.0, 8.0)
    all_pass = True
    # every solved acceptance density with its certified sigma_inf
    cases = []
    basis = enumerate_basis(1, 12)
    grid = tensor_grid(24, 1)
    v_cm = constant_drift([0.3])
    cases.append((solve_linear(v_cm, None, basis, grid), v_cm.sigma_inf, grid))
    lam, width = 0.8, 2.0
    v_grad = clipped_potential_drift(lam, 1, width=width)
    basis16 = enumerate_basis(1, 16)
    grid32 = tensor_grid(32, 1)
    cases.append((solve_linear(v_grad, None, basis16, grid32), v_grad.sigma_inf, grid32))
    grid40 = tensor_grid(40, 1)
    v_vl = vlasov_drift(TanhKernel(0.2), 1)
    rho_vl, _ = fixed_point_solve(
        v_vl, enumerate_basis(1, 20), grid40, FixedPointOptions(damping=0.5)
    )
    cases.append((rho_vl, v_vl.sigma_inf, grid40))
    for rho, sigma_inf, g in cases:
        all_pass = all_pass and tail_check(sigma_inf, t_grid, g, rho.evaluate(g))["pass"]
    # Cameron-Martin left side against the error-function closed form
    c = 0.3
    rho_cm = cases[0][0]
    erf_gap = max(
        abs(superlevel_mass_1d(rho_cm, t) - (1.0 - ndtr(math.log(t) / c + c / 2.0)))
        for t in t_grid
    )
    check(
        8,
        "tail bound",
        all_pass and erf_gap <= 1e-8,
        f"all certified, CM level-set vs erf {erf_gap:.2e}",
    )


def test_criterion_09_ladder():
    start = time.monotonic()
    weights = tuple(4.0 ** -(n + 1) for n in range(4))
    cfg = LadderConfig(
        weights=weights,
        component_bound=0.5,
        levels=(1, 2, 3, 4),
        degrees=(8, 6, 5, 4),
        quad_orders=(10, 8, 6, 6),
        fixed_point=FixedPointOptions(damping=0.5, tolerance=1e-9, max_iterations=200),
    )
    report = run_ladder(registry_drift("componentwise-tanh", scale=0.5, n_components=4, mean_shift=True), cfg)
    moments_ok = report.completed and all(
        lv["moment"] <= 2.25 * cfg.weight_total + lv["quad_error"] for lv in report.levels
    )
    # decoupled drift: identical truncation per level, marginals must agree
    cfg_dec = LadderConfig(
        weights=weights,
        component_bound=0.5,
        levels=(1, 2, 3, 4),
        degrees=(8, 8, 8, 8),
        quad_orders=(10, 10, 10, 10),
        fixed_point=FixedPointOptions(damping=0.5, tolerance=1e-11, max_iterations=200),
    )
    report_dec = run_ladder(registry_drift("componentwise-decoupled-tanh", scale=0.5, n_components=4), cfg_dec)
    stability = max(
        lv["distance_to_next"] for lv in report_dec.levels[:-1] if lv["distance_to_next"] is not None
    )
    elapsed = time.monotonic() - start
    ok = moments_ok and report_dec.completed and stability <= 1e-8 and elapsed < 120.0
    check(
        9,
        "dimension ladder",
        ok,
        f"moments ok={moments_ok}, marginal stability {stability:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_cross_validation_2d():
    start = time.monotonic()
    v = rotational_drift(0.3, 2, offset=[0.2, 0.0])
    basis = enumerate_basis(2, 12)
    grid = tensor_grid(20, 2)
    rho = solve_linear(v, None, basis, grid)
    # SDE: 1e6 particle-steps total, fixed seed, batch means over particles
    moments = oracle_sde(v, None, dt=5e-3, n_steps=2000, n_particles=500, seed=42)
    sde_gaps = []
    for i in range(2):
        target = integrate(rho, lambda x, i=i: x[:, i], grid)
        sde_gaps.append(abs(moments.mean[i] - target) / moments.mean_se[i])
        target2 = integrate(rho, lambda x, i=i: x[:, i] ** 2, grid)
        sde_gaps.append(abs(moments.second[i, i] - target2) / moments.second_se[i, i])
    sde_worst = max(sde_gaps)
    # finite-difference marginals
    fd = oracle_fd_2d(lambda x: v.eval_v(None, x), span=6.0, n=161)
    phi = np.exp(-0.5 * fd.x**2) / math.sqrt(2.0 * math.pi)
    fd_worst = 0.0
    for axis in range(2):
        spectral = marginal(rho, [axis]).evaluate(fd.x[:, None]) * phi
        fd_worst = max(fd_worst, float(np.max(np.abs(spectral - fd.marginal(axis)))))
    elapsed = time.monotonic() - start
    ok = sde_worst <= 3.0 and fd_worst <= 5e-3 and elapsed < 120.0
    check(
        10,
        "2-D cross-validation",
        ok,
        f"SDE {sde_worst:.2f} se, FD marginals {fd_worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_11_gradient_check():
    grid = tensor_grid(40, 1)
    v = vlasov_drift(TanhKernel(0.2), 1)
    rho, _ = fixed_point_solve(v, enumerate_basis(1, 20), grid, FixedPointOptions(damping=0.5))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 1))
    grad = rho.gradient(x)
    eps = 1e-6
    fd = (rho.evaluate(x + eps) - rho.evaluate(x - eps)) / (2 * eps)
    worst = float(np.max(np.abs(grad[:, 0] - fd)))
    check(11, "exact-gradient check", worst <= 1e-6, f"max dev {worst:.2e}")


def test_criterion_12_determinism(tmp_path, monkeypatch):
    cfg = {
        "mode": "solve-nonlinear",
        "k": 1,
        "N": 16,
        "Q": 32,
        "seed": 5,
        "drift": {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.2}},
        "fixed_point": {"damping": 0.5, "tolerance": 1e-10},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    separable, paths = gfpk.linear.separable_interaction, []

    def spy(*args):
        interaction = separable(*args)
        paths.append(interaction is not None)
        return interaction

    monkeypatch.setattr(gfpk.linear, "separable_interaction", spy)
    assert cli_main(["solve-nonlinear", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["solve-nonlinear", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    same = (tmp_path / "a" / "density.json").read_bytes() == (
        tmp_path / "b" / "density.json"
    ).read_bytes()
    check(12, "byte-identical determinism", same)
    assert paths and all(paths)  # every assembly of the Q = 32 rule takes the Gram path
