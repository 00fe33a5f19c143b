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
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .basis import enumerate_basis, tensor_grid
from .config import DENSITY_FILE, MODES, check_sizes, load_config, quad_order, sweep_drift
from .density import BumpTest, ChaosDensity, integrate
from .density import marginal as density_marginal
from .diagnostics import ball_check, fisher_energy, log_moment, log_moment_bracket, tail_check
from .drift import DRIFTS, drift_from_block
from .errors import ConfigError, GfpkError
from .ladder import run_ladder
# residual stays importable here: the benchmark's tests check gfpk.cli.residual
from .linear import residual, residual_suite  # noqa: F401
from .nonlinear import l2_distance, solve_stationary
from .oracles import (
    l2_gamma_distance,
    oracle_1d,
    oracle_1d_selfconsistent,
    oracle_fd_2d,
    oracle_sde,
)
from .schema import read_block, read_kind

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

TAIL_LEVELS = (2.0, 4.0, 8.0)
DEFAULT_BUMP_CENTERS = np.linspace(-2.0, 2.0, 10)


def default_bumps(k: int):
    """The bumps at DEFAULT_BUMP_CENTERS on each of the k coordinates."""
    return [
        BumpTest(active=(i,), center=(float(c),), radius=2.0) for i in range(k) for c in DEFAULT_BUMP_CENTERS
    ]


def density_checks(rho: ChaosDensity, v, grid) -> tuple[dict, bool]:
    """Residual suite plus the asserted and monitored certificates.

    The drift reads rho on the solve grid once (v.read_measure), so every
    check, the bump residuals on their own grids included, certifies the
    drift frozen at the solved density.
    """
    p_frozen = v.read_measure(rho, grid)
    vvals, vals = v.eval_v(p_frozen, grid.nodes), rho.evaluate(grid)
    report = {
        "residuals": residual_suite(rho, v, p_frozen, grid, vals, vvals, default_bumps(rho.k)),
        "bounds": [ball_check(rho, v.c0), tail_check(v.sigma_inf, TAIL_LEVELS, grid, vals)],
        "monitored": {
            "log_moment": log_moment(0.2, grid, vals),
            "log_moment_bracket": log_moment_bracket(0.2, grid, vals, vvals),
            **fisher_energy(rho, grid, vals, vvals),
        },
    }
    residuals = report["residuals"]
    return report, residuals["hermite_pass"] and residuals["bump_pass"] and all(b["pass"] for b in report["bounds"])


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _solve_one(config: dict):
    """(rho, trace or None, v, grid) of one solve."""
    basis = enumerate_basis(config["k"], config["N"])
    grid = tensor_grid(quad_order(config, config["N"]), config["k"])
    v = drift_from_block(config["drift"], config["k"])
    rho, trace = solve_stationary(v, basis, grid, config["fixed_point"])
    return rho, trace, v, grid


def _read_density(config: dict) -> ChaosDensity:
    """The density verify checks, read against DENSITY_FILE, the config's k
    and N, the size caps and the drift block: a fault is a ConfigError before
    anything is written."""
    path = config["verify"]["density"]
    try:
        with open(path) as fh:
            doc = read_block(json.load(fh), DENSITY_FILE, "density")
    except (OSError, ValueError, ConfigError) as exc:
        raise ConfigError(f"cannot read density {path}: {exc}") from exc
    for key in ("k", "N"):
        if config["raw"].get(key, doc[key]) != doc[key]:
            raise ConfigError(f"verify: {key}={config['raw'][key]!r} but the density has {key}={doc[key]}")
    check_sizes("verify density", doc["k"], doc["N"], quad_order(config, doc["N"]))
    read_kind(config["drift"], DRIFTS, "drift", doc["k"])
    try:
        return ChaosDensity.from_json_dict(doc)
    except ValueError as exc:
        raise ConfigError(f"cannot read density {path}: {exc}") from exc


def run(config: dict, out_dir: str | None = None, threads: int = 1) -> int:
    """Dispatch a parsed config; write artifacts; return the exit code."""
    mode = config["mode"]
    if threads > 1 and mode != "sweep":
        raise ConfigError(f"--threads {threads}: only sweep runs on more than one thread, not {mode}")
    if mode == "verify":
        rho = _read_density(config)
    out = out_dir or config["output"].get("dir") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {out}: {exc}") from exc
    started = time.time()
    report = {
        "version": __version__,
        "mode": mode,
        "config": config["raw"],
        "artifacts": {},
        "checks_passed": None,
    }
    timestamps = {"started_unix": started}

    try:
        if mode in ("solve-linear", "solve-nonlinear"):
            rho, trace, v, grid = _solve_one(config)
            # the artifacts first: a check that fails to run (exit 3) keeps them
            report["artifacts"]["density"] = _write(os.path.join(out, "density.json"), rho.to_json())
            if trace is not None:
                report["artifacts"]["trace"] = _write(os.path.join(out, "trace.csv"), trace.to_csv())
                report["iterations"] = trace.iterations
            checks, passed = density_checks(rho, v, grid)
            report.update(checks)
            report["checks_passed"] = passed
        elif mode == "ladder":
            ladder_report = run_ladder(config["ladder_drifts"].__getitem__, config["ladder"])
            ladder_json = json.dumps(ladder_report.to_json_dict(), sort_keys=True, indent=1)
            report["artifacts"]["ladder_json"] = _write(os.path.join(out, "ladder.json"), ladder_json)
            report["artifacts"]["ladder_csv"] = _write(os.path.join(out, "ladder.csv"), ladder_report.to_csv())
            report["checks_passed"] = ladder_report.completed and all(lv["pass"] for lv in ladder_report.levels)
        elif mode == "sweep":
            report["sweep"], report["checks_passed"] = _run_sweep(config, out, threads)
        elif mode == "verify":
            grid = tensor_grid(quad_order(config, rho.basis.degree), rho.k)
            checks, passed = density_checks(rho, drift_from_block(config["drift"], rho.k), grid)
            report.update(checks)
            report["checks_passed"] = passed
        elif mode == "oracle-compare":
            report["oracle"], report["checks_passed"] = _run_oracle_compare(config)
    except (GfpkError, MemoryError) as exc:  # numpy's MemoryError names the array it could not allocate
        report["error"] = str(exc) or type(exc).__name__
        report["checks_passed"] = False

    timestamps["finished_unix"] = time.time()
    report["timestamps"] = timestamps
    report["wall_seconds"] = timestamps["finished_unix"] - started
    _write(os.path.join(out, "report.json"), json.dumps(report, sort_keys=True, indent=1, default=str, allow_nan=False))
    if "error" in report:
        print(f"solver error: {report['error']}", file=sys.stderr)
        return EXIT_SOLVER
    if report["checks_passed"] is False:
        print("asserted checks failed; see report.json", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _run_sweep(config: dict, out: str, threads: int):
    values, k = config["sweep"]["values"], config["k"]
    basis = enumerate_basis(k, config["N"])
    grid = tensor_grid(quad_order(config, config["N"]), k)

    def solve_point(u: float):
        """(density, None), or (None, the failure message)."""
        try:
            v = drift_from_block(sweep_drift(config["sweep"], k, u), k)
            return solve_stationary(v, basis, grid, config["fixed_point"])[0], None
        except GfpkError as exc:
            return None, str(exc)

    if threads == 1:  # a one-worker pool would only hand the GIL back and forth
        results, failures = zip(*map(solve_point, values))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results, failures = zip(*pool.map(solve_point, values))

    rows = []
    for j, u in enumerate(values):
        row = {"u": u, "failed": failures[j]}
        if results[j] is not None:
            row["density"] = _write(os.path.join(out, f"density_{j:03d}.json"), results[j].to_json())
            row["l2_norm_sq"] = results[j].l2_norm_sq()
            if j > 0 and results[j - 1] is not None:
                row["distance_to_previous"] = l2_distance(results[j], results[j - 1])
        rows.append(row)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # quotes the commas of failure messages
    columns = ("u", "failed", "l2_norm_sq", "distance_to_previous")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(key) for key in columns])
    _write(os.path.join(out, "sweep.csv"), buf.getvalue())
    return rows, all(f is None for f in failures)


def _run_oracle_compare(config: dict):
    oc = config["oracle_compare"]
    which = oc["oracle"]
    rho, trace, v, grid = _solve_one(config)
    p_frozen = v.read_measure(rho, grid)
    result = {"oracle": which}
    tol = oc["tolerance"]
    if which == "1d":
        kernel = read_kind(config["drift"], DRIFTS, "drift", 1)[1].get("kernel")
        if kernel is not None:  # a Vlasov drift: the self-consistent problem
            oracle = oracle_1d_selfconsistent(lambda z: kernel.component(0, z), span=oc["span"])
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
    moments = oracle_sde(v, p_frozen, dt=oc["dt"], n_steps=oc["n_steps"], n_particles=oc["n_particles"], seed=config["seed"])
    gaps = []
    for i in range(config["k"]):
        target = integrate(rho, lambda x, i=i: x[:, i], grid)
        gaps.append(abs(moments.mean[i] - target) / max(moments.mean_se[i], 1e-15))
        target2 = integrate(rho, lambda x, i=i: x[:, i] ** 2, grid)
        gaps.append(abs(moments.second[i, i] - target2) / max(moments.second_se[i, i], 1e-15))
    worst = float(max(gaps))  # a numpy bool verdict is never `is False`: a failure would exit 0
    result.update({"max_gap_in_se": worst, "tolerance_se": tol})
    return result, worst <= tol


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gfpk", description=__doc__)
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        config = load_config(args.config, seed=args.seed)
        if config["mode"] != args.mode:
            raise ConfigError(f"config mode {config['mode']!r} does not match the command-line mode {args.mode!r}")
        return run(config, out_dir=args.out, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
