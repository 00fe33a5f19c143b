"""The benchmark's workloads: fixed lists of `gfpk` CLI operations, each
with a check of its output against `reference`.

An operation is one call of `gfpk.cli.main(argv)` on one config.  Its
check receives the exit code and the output directory and returns a list
of problems; an empty list means the output is correct.  The checks never
compare with stored copies of earlier output.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

# Added to every truncation tolerance: it covers the fixed-point tolerance
# (1e-10) and the quadrature error of the assembly, both far below it.
TOL_FLOOR = 1e-6
# Weak-identity tolerance for the non-separable rotational solve, where the
# gap is the error of the solver's Q-point Gauss-Hermite rule on the
# rational drift (measured 1.9e-5 at Q=20, N=12).
WEAK_IDENTITY_TOL = 1e-4
WEAK_IDENTITY_QUAD = 60
WEAK_IDENTITY_MAX_DEGREE = 2

SWEEP_SCALES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 1.0, 1.2, 1.5)
LADDER_WEIGHTS = (1.0, 0.5, 0.25, 0.125, 0.0625)
LADDER_SCALE = 0.5
ROTATIONAL = {"kind": "rotational", "scale": 0.3, "offset": [0.2, 0.0]}
CLIPPED_LAM = 0.5
CLIPPED_WIDTH = 2.0  # the CLI default saturation width


@dataclass(frozen=True)
class Op:
    name: str
    config: dict
    check: Callable[[int, str], list]


def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _exit_problem(rc: int) -> list:
    return [] if rc == 0 else [f"exit code {rc}, expected 0"]


def density_problems(doc: dict, k: int, degree: int, c1: np.ndarray) -> list:
    """Compare a density file with the product rho(x_1)...rho(x_k) of a 1-D
    reference with chaos coefficients c1.

    The whole coefficient vector must lie within the reference's chaos tail
    beyond the solver's degree (the best-approximation error of the
    truncation) of the reference, and so must each 1-D marginal.
    """
    if (doc.get("k"), doc.get("N"), doc.get("ordering")) != (k, degree, "grlex"):
        return [f"density header {doc.get('k')}/{doc.get('N')}/{doc.get('ordering')}"]
    coeffs = np.asarray(doc["coefficients"], dtype=float)
    indices = ref.grlex(k, degree)
    if coeffs.shape != (len(indices),):
        return [f"{coeffs.size} coefficients, expected {len(indices)}"]
    problems = []
    if coeffs[0] != 1.0:
        problems.append(f"c0 = {coeffs[0]!r}, unit mass needs exactly 1")
    gap = float(np.linalg.norm(coeffs - ref.product_coefficients(c1, k, degree)))
    tol = ref.product_tail(c1, k, degree) + TOL_FLOOR
    if not gap <= tol:
        problems.append(f"L2 gap {gap:.3e} to the reference exceeds {tol:.3e}")
    marginal_tol = float(np.linalg.norm(c1[degree + 1 :])) + TOL_FLOOR
    for axis in range(k):
        rows = [j for j, a in enumerate(indices) if sum(a) == a[axis]]
        marginal_gap = float(np.linalg.norm(coeffs[rows] - c1[: degree + 1]))
        if not marginal_gap <= marginal_tol:
            problems.append(
                f"marginal {axis} gap {marginal_gap:.3e} exceeds {marginal_tol:.3e}"
            )
    return problems


def vlasov_reference(scale: float) -> np.ndarray:
    x, wg = ref.gaussian_grid()
    return ref.chaos_coefficients(ref.selfconsistent_tanh(scale, x, wg), x, wg)


def rotational_residual(doc: dict, scale: float, offset) -> float:
    """Largest weak-identity defect E_mu[-|beta| h_beta + v . grad h_beta]
    over Hermite tests with 1 <= |beta| <= WEAK_IDENTITY_MAX_DEGREE, for
    v(x) = scale * (-x_2, x_1) / (1 + |x|^2) + offset, on a fine tensor
    Gauss-Hermite rule.  Any stationary density makes it vanish."""
    coeffs = np.asarray(doc["coefficients"], dtype=float)
    degree = doc["N"]
    z, w = np.polynomial.hermite_e.hermegauss(WEAK_IDENTITY_QUAD)
    w = w / w.sum()
    x1 = np.repeat(z, z.size)
    x2 = np.tile(z, z.size)
    weights = np.outer(w, w).ravel()
    t1 = ref.hermite_table(degree, x1)
    t2 = ref.hermite_table(degree, x2)
    density = sum(c * t1[a] * t2[b] for c, (a, b) in zip(coeffs, ref.grlex(2, degree)))
    r2 = 1.0 + x1 * x1 + x2 * x2
    v1 = -scale * x2 / r2 + offset[0]
    v2 = scale * x1 / r2 + offset[1]
    worst = 0.0
    for a, b in ref.grlex(2, WEAK_IDENTITY_MAX_DEGREE)[1:]:
        g1 = math.sqrt(a) * t1[a - 1] * t2[b] if a else 0.0
        g2 = math.sqrt(b) * t1[a] * t2[b - 1] if b else 0.0
        integrand = -(a + b) * t1[a] * t2[b] + v1 * g1 + v2 * g2
        worst = max(worst, abs(float(weights @ (density * integrand))))
    return worst


# -- operations -------------------------------------------------------------


def sweep_op(scales, k: int, degree: int, quad: int) -> Op:
    """`sweep` over Vlasov tanh scales; every point against the 1-D
    self-consistent reference, since the componentwise kernel makes the
    k-dimensional solution a product of identical marginals."""
    references = [vlasov_reference(s) for s in scales]
    config = {
        "mode": "sweep",
        "k": k,
        "N": degree,
        "Q": quad,
        "sweep": {"family": "vlasov-tanh-scale", "values": list(scales)},
    }

    def check(rc, out_dir):
        problems = _exit_problem(rc)
        if problems:
            return problems
        rows = _read_json(out_dir, "report.json")["sweep"]
        if [row["u"] for row in rows] != list(scales):
            return ["sweep rows do not match the requested scales"]
        for row, c1 in zip(rows, references):
            if row["failed"]:
                problems.append(f"scale {row['u']}: {row['failed']}")
                continue
            with open(row["density"]) as fh:
                doc = json.load(fh)
            problems += [f"scale {row['u']}: {p}" for p in density_problems(doc, k, degree, c1)]
        return problems

    return Op("sweep", config, check)


def ladder_op(levels, degrees, quads) -> Op:
    """`ladder` with mean-shifted componentwise tanh.  Its symmetric fixed
    point has mean 0, so every coordinate follows the closed form
    rho(x) ~ cosh(x)^scale and the Lyapunov moment of level k is
    sum_{n<k} alpha_n E[x^2]."""
    x, wg = ref.gaussian_grid()
    rho = ref.cosh_power(x, wg, LADDER_SCALE)
    ex2 = ref.second_moment(rho, x, wg)
    c1 = ref.chaos_coefficients(rho, x, wg)
    n = levels[-1]
    config = {
        "mode": "ladder",
        "drift": {
            "kind": "componentwise-tanh",
            "scale": LADDER_SCALE,
            "n_components": n,
            "mean_shift": True,
        },
        "ladder": {
            "weights": list(LADDER_WEIGHTS[:n]),
            "component_bound": LADDER_SCALE,
            "levels": list(levels),
            "degrees": list(degrees),
            "quad_orders": list(quads),
        },
    }

    def check(rc, out_dir):
        problems = _exit_problem(rc)
        if problems:
            return problems
        doc = _read_json(out_dir, "ladder.json")
        done = [lv["k"] for lv in doc["levels"]]
        if not doc["completed"] or done != list(levels):
            return [f"ladder completed levels {done}, expected {list(levels)}"]
        for lv, degree in zip(doc["levels"], degrees):
            k = lv["k"]
            if lv["solution"]["coefficients"][0] != 1.0:
                problems.append(f"level {k}: c0 is not exactly 1")
            weight = sum(LADDER_WEIGHTS[:k])
            expected = weight * ex2
            # moment = sum alpha_n (1 + sqrt(2) c_{2 e_n}): its error is at
            # most sqrt(2) * weight * (coefficient error ~ truncation tail)
            tol = math.sqrt(2.0) * weight * ref.product_tail(c1, k, degree) + TOL_FLOOR
            gap = abs(lv["moment"] - expected)
            if not gap <= tol:
                problems.append(f"level {k}: moment gap {gap:.3e} exceeds {tol:.3e}")
        return problems

    return Op("ladder", config, check)


def vlasov_solve_op(scale: float, degree: int, quad: int) -> Op:
    """`solve-nonlinear`, k = 1, Vlasov tanh, against the 1-D reference."""
    c1 = vlasov_reference(scale)
    config = {
        "mode": "solve-nonlinear",
        "k": 1,
        "N": degree,
        "Q": quad,
        "drift": {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": scale}},
    }

    def check(rc, out_dir):
        return _exit_problem(rc) or density_problems(
            _read_json(out_dir, "density.json"), 1, degree, c1
        )

    return Op("solve-nonlinear-vlasov", config, check)


def rotational_solve_op(degree: int, quad: int) -> Op:
    """`solve-linear` with the non-separable rotational drift, checked
    through the weak stationarity identity on low-degree Hermite tests."""
    config = {"mode": "solve-linear", "k": 2, "N": degree, "Q": quad, "drift": ROTATIONAL}

    def check(rc, out_dir):
        problems = _exit_problem(rc)
        if problems:
            return problems
        doc = _read_json(out_dir, "density.json")
        if doc["coefficients"][0] != 1.0:
            problems.append("c0 is not exactly 1")
        defect = rotational_residual(doc, ROTATIONAL["scale"], ROTATIONAL["offset"])
        if not defect <= WEAK_IDENTITY_TOL:
            problems.append(f"weak-identity defect {defect:.3e} exceeds {WEAK_IDENTITY_TOL:.0e}")
        return problems

    return Op("solve-linear-rotational", config, check)


def fd_compare_op(degree: int, quad: int, cells: int) -> Op:
    """`oracle-compare` against gfpk's 2-D finite-difference oracle; the
    operation must report a passing verdict under the oracle's tolerance."""
    config = {
        "mode": "oracle-compare",
        "k": 2,
        "N": degree,
        "Q": quad,
        "drift": ROTATIONAL,
        "oracle_compare": {"oracle": "fd2d", "n_cells": cells},
    }

    def check(rc, out_dir):
        problems = _exit_problem(rc)
        if problems:
            return problems
        report = _read_json(out_dir, "report.json")
        oracle = report.get("oracle", {})
        gap, tol = oracle.get("max_marginal_gap"), oracle.get("tolerance")
        if oracle.get("oracle") != "fd2d" or gap is None or tol is None:
            return ["report carries no fd2d verdict"]
        if not (report["checks_passed"] is True and gap <= tol):
            problems.append(f"FD marginal gap {gap:.3e} against tolerance {tol:.1e}")
        return problems

    return Op("oracle-compare-fd2d", config, check)


def clipped_solve_op(k: int, degree: int, quad: int) -> Op:
    """`solve-linear` with the clipped-potential gradient drift, against the
    closed-form product density prod_i cosh(x_i / width)^(lam * width).

    For k >= 3 the CLI's bump-residual grid is too coarse, so the run exits
    1 although the density is right.  That exit is accepted only when the
    bump residuals are the sole failed certificate; the operation still
    counts as failed."""
    x, wg = ref.gaussian_grid()
    c1 = ref.chaos_coefficients(
        ref.cosh_power(x, wg, CLIPPED_LAM * CLIPPED_WIDTH, CLIPPED_WIDTH), x, wg
    )
    config = {
        "mode": "solve-linear",
        "k": k,
        "N": degree,
        "Q": quad,
        "drift": {"kind": "clipped-potential", "lam": CLIPPED_LAM},
    }

    def check(rc, out_dir):
        if rc not in (0, 1):
            return _exit_problem(rc)
        problems = density_problems(_read_json(out_dir, "density.json"), k, degree, c1)
        if rc == 1:
            report = _read_json(out_dir, "report.json")
            others = [report["residuals"]["hermite_pass"]] + [b["pass"] for b in report["bounds"]]
            if report["residuals"]["bump_pass"] or not all(others):
                problems.append("exit 1 for another reason than the bump residuals")
        return problems

    return Op("solve-linear-clipped-k3", config, check)


# -- workloads --------------------------------------------------------------

WORKLOADS: dict[str, Callable[[], list]] = {
    "sweep-vlasov-k2": lambda: [sweep_op(SWEEP_SCALES, k=2, degree=12, quad=24)],
    "ladder-k5": lambda: [
        ladder_op(levels=(1, 2, 3, 4, 5), degrees=(8, 6, 5, 4, 4), quads=(10, 8, 6, 6, 6))
    ],
    "certify": lambda: [
        vlasov_solve_op(0.2, degree=16, quad=32),
        rotational_solve_op(degree=12, quad=20),
        fd_compare_op(degree=12, quad=20, cells=161),
        clipped_solve_op(k=3, degree=10, quad=14),
    ],
}
