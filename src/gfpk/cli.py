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
import csv
import hashlib
import io
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .basis import enumerate_basis, tensor_grid
from .config import MODES, RunConfig, check_sizes, load_config, sweep_drift
from .density import BumpTest, ChaosDensity, as_measure, integrate
from .density import marginal as density_marginal
from .diagnostics import fisher_energy, log_moment, log_moment_bracket, tail_check
from .drift import DRIFTS, drift_from_block
from .errors import BasisSizeError, ConfigError, GfpkError
from .ladder import run_ladder
# residual stays importable here: the benchmark's tests check gfpk.cli.residual
from .linear import residual, residual_suite  # noqa: F401
from .nonlinear import l2_distance, schauder_membership, solve_stationary
from .oracles import (
    l2_gamma_distance,
    oracle_1d,
    oracle_1d_selfconsistent,
    oracle_fd_2d,
    oracle_sde,
)
from .schema import read_kind

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

TAIL_LEVELS = (2.0, 4.0, 8.0)
HERMITE_RESIDUAL_TOL = 1e-10
BUMP_RESIDUAL_TOL = 1e-3
DEFAULT_BUMP_CENTERS = np.linspace(-2.0, 2.0, 10)


def default_bumps(k: int):
    """The bumps at DEFAULT_BUMP_CENTERS on each of the k coordinates."""
    return [
        BumpTest(active=(i,), center=(float(c),), radius=2.0) for i in range(k) for c in DEFAULT_BUMP_CENTERS
    ]


def density_checks(rho: ChaosDensity, v, p_frozen, grid) -> tuple[dict, bool]:
    """Residual suite plus the asserted and monitored certificates.

    p_frozen is the measure the drift reads (the solved density read on the
    solve grid once, or None), so every check, the bump residuals on their
    own grids included, certifies the drift that was solved.
    """
    vvals, vals = v.eval_v(p_frozen, grid.nodes), rho.evaluate(grid)
    hermite_max, system_norm, bump_vals = residual_suite(rho, v, p_frozen, grid, default_bumps(rho.k), vvals, vals)
    hermite_ok = hermite_max <= HERMITE_RESIDUAL_TOL * (1.0 + system_norm)
    bump_ok = all(abs(b) <= BUMP_RESIDUAL_TOL for b in bump_vals)
    member, margin = schauder_membership(rho, v.c0)
    tail = tail_check(rho, v.sigma_inf, TAIL_LEVELS, grid, vals)
    fisher = fisher_energy(rho, v, p_frozen, grid, vvals, vals)
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
            "log_moment": log_moment(rho, 0.2, grid, vals),
            "log_moment_bracket": log_moment_bracket(rho, v, p_frozen, 0.2, grid, vvals, vals),
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


def _frozen_measure(v, rho: ChaosDensity, grid):
    """The measure v reads at rho: rho read on the grid once, or None for a
    drift that ignores the measure."""
    return as_measure(rho, grid) if v.reads_measure else None


def _solve_one(cfg: RunConfig):
    """(rho, trace or None, v, grid, p_frozen) of one solve, p_frozen being
    the measure the drift reads at rho."""
    basis = enumerate_basis(cfg.k, cfg.degree)
    grid = tensor_grid(cfg.effective_quad_order, cfg.k)
    v = drift_from_block(cfg.drift, cfg.k)
    rho, trace = solve_stationary(v, basis, grid, cfg.fixed_point)
    return rho, trace, v, grid, _frozen_measure(v, rho, grid)


def _read_density(path: str) -> ChaosDensity:
    try:
        with open(path) as fh:
            return ChaosDensity.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError, BasisSizeError) as exc:
        raise ConfigError(f"cannot read density {path}: {exc}") from exc


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
            rho, trace, v, grid, p_frozen = _solve_one(config)
            # the artifacts first: a check that fails to run (exit 3) keeps them
            density_path = os.path.join(out, "density.json")
            _write(density_path, rho.to_json())
            report["artifacts"]["density"] = density_path
            if trace is not None:
                trace_path = os.path.join(out, "trace.csv")
                _write(trace_path, trace.to_csv())
                report["artifacts"]["trace"] = trace_path
                report["iterations"] = trace.iterations
            checks, passed = density_checks(rho, v, p_frozen, grid)
            report.update(checks)
            report["checks_passed"] = passed
        elif config.mode == "ladder":
            ladder_report = run_ladder(lambda k: drift_from_block(config.drift, k), config.ladder)
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
            rho = _read_density(config.verify["density"])
            for key, value in (("k", rho.k), ("N", rho.basis.degree)):
                if config.raw.get(key, value) != value:
                    raise ConfigError(f"verify: {key}={config.raw[key]!r} but the density has {key}={value}")
            quad_order = config.quad_order_for(rho.basis.degree)
            check_sizes("verify density", rho.k, rho.basis.degree, quad_order)
            grid = tensor_grid(quad_order, rho.k)
            v = drift_from_block(config.drift, rho.k)
            checks, passed = density_checks(rho, v, _frozen_measure(v, rho, grid), grid)
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
    if "error" in report:
        print(f"solver error: {report['error']}", file=sys.stderr)
        return EXIT_SOLVER
    if report["checks_passed"] is False:
        print("asserted checks failed; see report.json", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _run_sweep(config: RunConfig, out: str, threads: int):
    values = config.sweep["values"]
    basis = enumerate_basis(config.k, config.degree)
    grid = tensor_grid(config.effective_quad_order, config.k)

    def solve_point(u: float):
        """(density, None), or (None, the failure message)."""
        try:
            v = drift_from_block(sweep_drift(config.sweep, config.k, u), config.k)
            return solve_stationary(v, basis, grid, config.fixed_point)[0], None
        except GfpkError as exc:
            return None, str(exc)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results, failures = zip(*pool.map(solve_point, values))

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

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # quotes the commas of failure messages
    writer.writerow(["u", "failed", "l2_norm_sq", "distance_to_previous"])
    for row in rows:
        measured = [row.get(key) for key in ("l2_norm_sq", "distance_to_previous")]
        writer.writerow([repr(row["u"]), row["failed"] or ""] + ["" if x is None else repr(x) for x in measured])
    _write(os.path.join(out, "sweep.csv"), buf.getvalue())
    return rows, all(f is None for f in failures)


def _run_oracle_compare(config: RunConfig):
    oc = config.oracle_compare
    which = oc["oracle"]
    rho, trace, v, grid, p_frozen = _solve_one(config)
    result = {"oracle": which}
    tol = oc["tolerance"]
    if which == "1d":
        kernel = read_kind(config.drift, DRIFTS, "drift", 1)[1].get("kernel")
        if kernel is not None:  # a Vlasov drift: the self-consistent problem
            oracle = oracle_1d_selfconsistent(lambda z: kernel(z[:, None])[:, 0], span=oc["span"])
        else:
            oracle = oracle_1d(lambda x: v.eval_v(p_frozen, x[:, None])[:, 0], span=oc["span"])
        distance = l2_gamma_distance(rho, oracle)
        result.update({"l2_gamma_distance": distance, "tolerance": tol})
        return result, distance <= tol
    if which == "fd2d":
        fd = oracle_fd_2d(lambda x: v.eval_v(p_frozen, x), span=oc["span"], n=oc["n_cells"])
        phi = np.exp(-0.5 * fd.x**2) / np.sqrt(2.0 * np.pi)
        worst = 0.0
        for axis in range(2):
            spectral = density_marginal(rho, [axis]).evaluate(fd.x[:, None]) * phi
            worst = max(worst, float(np.max(np.abs(spectral - fd.marginal(axis)))))
        result.update({"max_marginal_gap": worst, "tolerance": tol})
        return result, worst <= tol
    moments = oracle_sde(
        v, p_frozen, config.k, dt=oc["dt"], n_steps=oc["n_steps"], n_particles=oc["n_particles"], seed=config.seed
    )
    gaps = []
    for i in range(config.k):
        target = integrate(rho, lambda x, i=i: x[:, i], grid)
        gaps.append(abs(moments.mean[i] - target) / max(moments.mean_se[i], 1e-15))
        target2 = integrate(rho, lambda x, i=i: x[:, i] ** 2, grid)
        gaps.append(abs(moments.second[i, i] - target2) / max(moments.second_se[i, i], 1e-15))
    worst = float(max(gaps))  # a numpy bool verdict is never `is False`: a failure would exit 0
    result.update({"max_gap_in_se": worst, "tolerance_se": tol})
    return result, worst <= tol


def _thread_count(flag: int | None) -> int:
    """--threads, else GFPK_THREADS, else 1; a ConfigError unless a positive integer."""
    raw = flag if flag is not None else os.environ.get("GFPK_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"GFPK_THREADS={raw!r} is not an integer") from None
    if value < 1:
        raise ConfigError(f"the thread count must be at least 1, got {raw!r}")
    return value


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

    try:
        threads = _thread_count(args.threads)
        config = load_config(args.config, seed=args.seed)
        if config.mode != args.mode:
            raise ConfigError(
                f"config mode {config.mode!r} does not match subcommand {args.mode!r}"
            )
        return run(config, out_dir=args.out, threads=threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
