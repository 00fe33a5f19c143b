"""Batch front door: `gfpk <mode> --config cfg.json [--out dir] [--seed s]
[--threads n]`.

Every mode reads a strict JSON config, runs deterministically given
(config, seed) and writes machine-readable artifacts: densities in the
chaos-coefficient JSON schema, reports in JSON, traces and tables in CSV.

Exit codes: 0 all asserted checks pass, 1 an asserted check failed,
2 config parse/validation error, 3 solver failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .basis import enumerate_basis, tensor_grid, uniform_gaussian_grid
from .config import MODES, RunConfig, load_config, parse_config
from .density import BumpTest, ChaosDensity, as_measure
from .diagnostics import fisher_energy, log_moment, log_moment_bracket, tail_check
from .drift import (
    ClippedLinearKernel,
    ConstantKernel,
    GaussianLobeKernel,
    TanhKernel,
    clipped_potential_drift,
    componentwise_drift,
    constant_drift,
    decoupled_tanh_components,
    rotational_drift,
    tanh_components,
    vlasov_drift,
)
from .errors import ConfigError, GfpkError, NonConvergenceError
from .ladder import LadderConfig, run_ladder
from .linear import residual, residual_suite, solve_linear
from .nonlinear import FixedPointOptions, fixed_point_solve, l2_distance, schauder_membership
from .oracles import (
    l2_gamma_distance,
    oracle_1d,
    oracle_1d_selfconsistent,
    oracle_fd_2d,
    oracle_sde,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

TAIL_LEVELS = (2.0, 4.0, 8.0)
HERMITE_RESIDUAL_TOL = 1e-10
BUMP_RESIDUAL_TOL = 1e-3
DEFAULT_BUMP_CENTERS = np.linspace(-2.0, 2.0, 10)


def build_kernel(block: dict):
    kind = block["kind"]
    if kind == "constant":
        return ConstantKernel(tuple(block["h"]))
    if kind == "tanh":
        return TanhKernel(block["scale"])
    if kind == "gaussian-lobe":
        return GaussianLobeKernel(block["scale"])
    return ClippedLinearKernel(block["scale"], block["cap"])


def build_drift(block: dict, k: int, grid):
    kind = block["kind"]
    if kind == "constant":
        h = list(block["h"])
        if len(h) != k:
            raise ConfigError(f"constant drift vector has length {len(h)}, expected {k}")
        return constant_drift(h)
    if kind == "clipped-potential":
        return clipped_potential_drift(block["lam"], k, width=block.get("width", 2.0))
    if kind == "rotational":
        return rotational_drift(block["scale"], k, offset=block.get("offset"))
    if kind == "vlasov":
        return vlasov_drift(build_kernel(block["kernel"]), k, grid)
    if kind == "componentwise-tanh":
        comps = tanh_components(
            block["scale"], block["n_components"], block.get("mean_shift", False)
        )
        return componentwise_drift(comps, k=min(k, block["n_components"]), bound=abs(block["scale"]))
    comps = decoupled_tanh_components(block["scale"], block["n_components"])
    return componentwise_drift(comps, k=min(k, block["n_components"]), bound=abs(block["scale"]))


def drift_is_linear(block: dict) -> bool:
    """True when the drift ignores the measure argument (one linear solve)."""
    return block["kind"] in ("constant", "clipped-potential", "rotational")


def default_bumps(k: int):
    return [
        BumpTest(active=(0,), center=(float(c),), radius=2.0) for c in DEFAULT_BUMP_CENTERS
    ]


def bump_grid(k: int):
    """Dense uniform rule for the bump residuals; GH rules resolve the
    compactly supported tests poorly."""
    n = 4001 if k == 1 else (201 if k == 2 else 41)
    return uniform_gaussian_grid(10.0 if k == 1 else 6.0, n, k)


def density_checks(rho: ChaosDensity, v, p_frozen, grid) -> tuple[dict, bool]:
    """Residual suite plus the asserted and monitored certificates.

    A ChaosDensity p_frozen is read as a point measure on the solve grid
    once, so every check, the bump residuals on their own grid included,
    certifies the drift that was solved.
    """
    if isinstance(p_frozen, ChaosDensity):
        p_frozen = as_measure(p_frozen, grid)
    hermite_max, system_norm, _ = residual_suite(rho, v, p_frozen, grid)
    bumps = default_bumps(rho.k)
    bgrid = bump_grid(rho.k)
    bump_vals = [residual(rho, v, p_frozen, phi, bgrid) for phi in bumps]
    hermite_ok = hermite_max <= HERMITE_RESIDUAL_TOL * (1.0 + system_norm)
    bump_ok = all(abs(b) <= BUMP_RESIDUAL_TOL for b in bump_vals)
    member, margin = schauder_membership(rho, v.c0)
    tail = tail_check(rho, v.sigma_inf, TAIL_LEVELS, grid)
    fisher = fisher_energy(rho, v, p_frozen, grid)
    report = {
        "residuals": {
            "hermite_max": hermite_max,
            "system_norm": system_norm,
            "hermite_tolerance": HERMITE_RESIDUAL_TOL * (1.0 + system_norm),
            "hermite_pass": hermite_ok,
            "bumps": bump_vals,
            "bump_tolerance": BUMP_RESIDUAL_TOL,
            "bump_pass": bump_ok,
        },
        "bounds": [
            {
                "name": "l2_ball",
                "left": rho.l2_norm_sq(),
                "right": rho.l2_norm_sq() + margin,
                "pass": member,
                "inputs": {"C0": v.c0},
            },
            {
                "name": "tail",
                "left": tail.left,
                "right": tail.right,
                "pass": tail.passed,
                "inputs": tail.inputs,
            },
        ],
        "monitored": {
            "log_moment": log_moment(rho, 0.2, grid),
            "log_moment_bracket": log_moment_bracket(rho, v, p_frozen, 0.2, grid),
            "fisher": fisher.fisher,
            "drift_energy_gamma": fisher.drift_energy_gamma,
            "drift_energy_mu": fisher.drift_energy_mu,
            "fisher_skipped": fisher.skipped,
        },
    }
    passed = hermite_ok and bump_ok and member and bool(tail.passed)
    return report, passed


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _solve_one(cfg: RunConfig, drift_block: dict):
    basis = enumerate_basis(cfg.k, cfg.degree)
    grid = tensor_grid(cfg.effective_quad_order, cfg.k)
    v = build_drift(drift_block, cfg.k, grid)
    fp = cfg.fixed_point
    opts = FixedPointOptions(
        damping=fp.get("damping", 0.5),
        tolerance=fp.get("tolerance", 1e-10),
        max_iterations=fp.get("max_iterations", 100),
    )
    if drift_is_linear(drift_block):
        p0 = ChaosDensity.constant(basis)
        rho = solve_linear(v, p0, basis, grid)
        return rho, None, v, grid, p0
    rho, trace = fixed_point_solve(v, basis, grid, opts)
    return rho, trace, v, grid, rho


def run(config: RunConfig, out_dir: str | None = None, threads: int = 1) -> int:
    """Dispatch a parsed config; write artifacts; return the exit code."""
    out = out_dir or config.output_dir or "."
    started = time.time()
    report = {
        "version": __version__,
        "mode": config.mode,
        "config": config.raw,
        "config_hash": _config_hash(config.raw),
        "artifacts": {},
        "checks_passed": None,
    }
    timestamps = {"started_unix": started}

    try:
        if config.mode in ("solve-linear", "solve-nonlinear"):
            rho, trace, v, grid, p_frozen = _solve_one(config, config.drift)
            checks, passed = density_checks(rho, v, p_frozen, grid)
            report.update(checks)
            report["checks_passed"] = passed
            density_path = os.path.join(out, "density.json")
            _write(density_path, rho.to_json())
            report["artifacts"]["density"] = density_path
            if trace is not None:
                trace_path = os.path.join(out, "trace.csv")
                _write(trace_path, trace.to_csv())
                report["artifacts"]["trace"] = trace_path
                report["iterations"] = trace.iterations
        elif config.mode == "ladder":
            grid0 = tensor_grid(4, 1)  # placeholder; ladder builds its own grids
            v = build_drift(config.drift, config.ladder["levels"][-1], grid0)
            fp = config.fixed_point
            cfg = LadderConfig(
                weights=tuple(config.ladder["weights"]),
                component_bound=float(config.ladder["component_bound"]),
                levels=tuple(config.ladder["levels"]),
                degrees=tuple(config.ladder["degrees"]),
                quad_orders=tuple(config.ladder["quad_orders"]),
                tail_levels=tuple(config.ladder.get("tail_levels", (1.0, 2.0, 4.0))),
                fixed_point=FixedPointOptions(
                    damping=fp.get("damping", 0.5),
                    tolerance=fp.get("tolerance", 1e-10),
                    max_iterations=fp.get("max_iterations", 200),
                ),
            )
            ladder_report = run_ladder(v, cfg)
            _write(os.path.join(out, "ladder.json"), json.dumps(ladder_report.to_json_dict(), sort_keys=True, indent=1))
            _write(os.path.join(out, "ladder.csv"), ladder_report.to_csv())
            report["artifacts"]["ladder_json"] = os.path.join(out, "ladder.json")
            report["artifacts"]["ladder_csv"] = os.path.join(out, "ladder.csv")
            report["checks_passed"] = ladder_report.completed and all(
                lv.passed for lv in ladder_report.levels
            )
        elif config.mode == "sweep":
            report["sweep"], report["checks_passed"] = _run_sweep(config, out, threads)
        elif config.mode == "verify":
            with open(config.verify["density"]) as fh:
                rho = ChaosDensity.from_json(fh.read())
            grid = tensor_grid(config.effective_quad_order or 2 * rho.basis.degree, rho.k)
            v = build_drift(config.drift, rho.k, grid)
            p_frozen = rho if not drift_is_linear(config.drift) else ChaosDensity.constant(rho.basis)
            checks, passed = density_checks(rho, v, p_frozen, grid)
            report.update(checks)
            report["checks_passed"] = passed
        elif config.mode == "oracle-compare":
            report["oracle"], report["checks_passed"] = _run_oracle_compare(config)
    except ConfigError:
        raise
    except GfpkError as exc:
        report["error"] = str(exc)
        report["checks_passed"] = False
        timestamps["finished_unix"] = time.time()
        report["timestamps"] = timestamps
        report["wall_seconds"] = timestamps["finished_unix"] - started
        _write(os.path.join(out, "report.json"), json.dumps(report, sort_keys=True, indent=1, default=str))
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    timestamps["finished_unix"] = time.time()
    report["timestamps"] = timestamps
    report["wall_seconds"] = timestamps["finished_unix"] - started
    _write(os.path.join(out, "report.json"), json.dumps(report, sort_keys=True, indent=1, default=str))
    if report["checks_passed"] is False:
        print("asserted checks failed; see report.json", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _run_sweep(config: RunConfig, out: str, threads: int):
    values = config.sweep["values"]
    family = config.sweep["family"]
    basis = enumerate_basis(config.k, config.degree)
    grid = tensor_grid(config.effective_quad_order, config.k)

    def drift_for(u: float) -> dict:
        if family == "constant-scale":
            direction = config.sweep.get("direction") or [1.0] + [0.0] * (config.k - 1)
            return {"kind": "constant", "h": [u * d for d in direction]}
        return {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": u}}

    def solve_point(u: float):
        block = drift_for(u)
        v = build_drift(block, config.k, grid)
        fp = config.fixed_point
        opts = FixedPointOptions(
            damping=fp.get("damping", 1.0),
            tolerance=fp.get("tolerance", 1e-10),
            max_iterations=fp.get("max_iterations", 100),
        )
        if drift_is_linear(block):
            return solve_linear(v, ChaosDensity.constant(basis), basis, grid)
        rho, _ = fixed_point_solve(v, basis, grid, opts)
        return rho

    results: list = [None] * len(values)
    failures: list = [None] * len(values)

    def task(j):
        try:
            results[j] = solve_point(values[j])
        except GfpkError as exc:
            failures[j] = str(exc)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(task, range(len(values))))
    else:
        for j in range(len(values)):
            task(j)

    rows = []
    for j, u in enumerate(values):
        row = {"u": u, "failed": failures[j]}
        if results[j] is not None:
            path = os.path.join(out, f"density_{j:03d}.json")
            _write(path, results[j].to_json())
            row["density"] = path
            row["l2_norm_sq"] = results[j].l2_norm_sq()
            if j > 0 and results[j - 1] is not None:
                row["distance_to_previous"] = l2_distance(results[j], results[j - 1])
        rows.append(row)

    def fmt(value):
        return "" if value is None else repr(value)

    lines = ["u,failed,l2_norm_sq,distance_to_previous"]
    for row in rows:
        lines.append(
            f"{row['u']!r},{row['failed'] or ''},{fmt(row.get('l2_norm_sq'))},"
            f"{fmt(row.get('distance_to_previous'))}"
        )
    _write(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")
    return rows, all(f is None for f in failures)


def _run_oracle_compare(config: RunConfig):
    oc = config.oracle_compare
    which = oc["oracle"]
    rho, trace, v, grid, p_frozen = _solve_one(config, config.drift)
    result = {"oracle": which}
    if which == "1d":
        if config.k != 1:
            raise ConfigError("the 1-D oracle requires k = 1")
        if config.drift["kind"] == "vlasov":
            kernel = build_kernel(config.drift["kernel"])
            oracle = oracle_1d_selfconsistent(
                lambda z: kernel(z[:, None])[:, 0], span=oc.get("span", 10.0)
            )
        else:
            oracle = oracle_1d(
                lambda x: v.eval_v(p_frozen, x[:, None], grid)[:, 0],
                span=oc.get("span", 10.0),
            )
        distance = l2_gamma_distance(rho, oracle)
        tol = oc.get("tolerance", 1e-6)
        result.update({"l2_gamma_distance": distance, "tolerance": tol})
        return result, distance <= tol
    if which == "fd2d":
        if config.k != 2:
            raise ConfigError("the 2-D finite-difference oracle requires k = 2")
        from .density import marginal as density_marginal

        fd = oracle_fd_2d(
            lambda x: v.eval_v(p_frozen, x, grid),
            span=oc.get("span", 6.0),
            n=oc.get("n_cells", 161),
        )
        phi = np.exp(-0.5 * fd.x**2) / np.sqrt(2.0 * np.pi)
        worst = 0.0
        for axis in range(2):
            spectral = density_marginal(rho, [axis]).evaluate(fd.x[:, None]) * phi
            worst = max(worst, float(np.max(np.abs(spectral - fd.marginal(axis)))))
        tol = oc.get("tolerance", 5e-3)
        result.update({"max_marginal_gap": worst, "tolerance": tol})
        return result, worst <= tol
    moments = oracle_sde(
        v,
        p_frozen,
        config.k,
        dt=oc.get("dt", 5e-3),
        n_steps=oc.get("n_steps", 2000),
        n_particles=oc.get("n_particles", 500),
        seed=config.seed,
        grid=grid,
    )
    gaps = []
    from .density import integrate

    for i in range(config.k):
        target = integrate(rho, lambda x, i=i: x[:, i], grid)
        gaps.append(abs(moments.mean[i] - target) / max(moments.mean_se[i], 1e-15))
        target2 = integrate(rho, lambda x, i=i: x[:, i] ** 2, grid)
        gaps.append(abs(moments.second[i, i] - target2) / max(moments.second_se[i, i], 1e-15))
    result.update({"max_gap_in_se": max(gaps), "tolerance_se": 3.0})
    return result, max(gaps) <= 3.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gfpk", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("GFPK_THREADS", "1"))

    try:
        config = load_config(args.config)
        if config.mode != args.mode:
            raise ConfigError(
                f"config mode {config.mode!r} does not match subcommand {args.mode!r}"
            )
        if args.seed is not None:
            doc = dict(config.raw)
            doc["seed"] = args.seed
            config = parse_config(doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run(config, out_dir=args.out, threads=threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
