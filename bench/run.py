"""Benchmark of the gfpk CLI: one workload per run, one interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gfpk checkout; the package is imported from its
`src/`.  A run measures set-up (`import gfpk.cli` in fresh interpreters),
does one untimed warm-up pass over the workload's operations, then timed
passes until S seconds are spent, checking every operation's output.
With `--trace 1` it alternates untraced and traced passes and reports
per-layer metrics instead of end-to-end ones.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import os

# One thread everywhere: the BLAS pool is sized when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
IMPORT_LAYERS = ("gfpk.oracles", "gfpk.diagnostics", "scipy.signal")
CHILD_TIMEOUT_S = 120

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gfpk.cli; "
    "d = time.perf_counter() - t; import gfpk; print(gfpk.__file__); print(d)"
)


def _child_env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src)


def fresh_import_seconds(src: str) -> float:
    """Seconds to `import gfpk.cli` in a new interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=_child_env(src),
        capture_output=True,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    ).stdout.split()
    if not out[0].startswith(src):
        raise RuntimeError(f"fresh interpreter imported gfpk from {out[0]}")
    return float(out[1])


def import_layer_seconds(src: str) -> dict:
    """Cumulative `-X importtime` seconds of IMPORT_LAYERS in a new interpreter."""
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gfpk.cli"],
        env=_child_env(src),
        capture_output=True,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    ).stderr
    found = {}
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in IMPORT_LAYERS:
            found[parts[2].strip()] = int(parts[1]) / 1e6
    return found


class Runner:
    """Runs whole passes over a workload's operations and tallies them."""

    def __init__(self, cli, ops, seed: int, out_dir: str):
        self.cli = cli
        self.ops = ops
        self.seed = seed
        self.out_dir = out_dir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.config_paths = []
        os.makedirs(out_dir, exist_ok=True)
        for j, op in enumerate(ops):
            path = os.path.join(out_dir, f"config_{j}.json")
            with open(path, "w") as fh:
                json.dump(op.config, fh)
            self.config_paths.append(path)

    def run_op(self, j: int) -> float:
        """One CLI call; returns its wall time, artifact writes included."""
        op = self.ops[j]
        op_dir = os.path.join(self.out_dir, f"op_{j}")
        shutil.rmtree(op_dir, ignore_errors=True)
        argv = [op.config["mode"], "--config", self.config_paths[j], "--out", op_dir,
                "--seed", str(self.seed), "--threads", "1"]
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        try:
            problems = op.check(rc, op_dir) if isinstance(rc, int) else [f"raised {rc}"]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if rc != 0 or problems:
            self.failed += 1
        self.problems += [f"{op.name}: {p}" for p in problems]
        return elapsed

    def run_pass(self) -> float:
        order = list(range(len(self.ops)))
        self.rng.shuffle(order)
        return sum(self.run_op(j) for j in order)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_benchmark(workload: str, ops, seed: int, seconds: float, trace: bool,
                  root: str, setup_repeats: int = SETUP_REPEATS) -> dict:
    src = os.path.join(root, "src")
    metrics = {}
    if not trace:
        setup = [fresh_import_seconds(src) for _ in range(setup_repeats)]
        metrics["setup_s"] = _metric(statistics.median(setup), "s")
    if src not in sys.path:
        sys.path.insert(0, src)
    import gfpk.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src):
        raise RuntimeError(f"gfpk imported from {cli.__file__}, not from {src}")
    run_dir = os.path.join(OUT_DIR, f"run-{workload}-{os.getpid()}")
    runner = Runner(cli, ops, seed, run_dir)
    runner.run_pass()  # warm-up

    plain, traced = [], []
    tracer = tracing.Tracer() if trace else None
    started = time.perf_counter()
    while not plain or time.perf_counter() - started < seconds:
        plain.append(runner.run_pass())
        if trace:
            with tracer.active():
                traced.append(runner.run_pass())
    shutil.rmtree(run_dir, ignore_errors=True)

    if trace:
        metrics.update(_trace_metrics(workload, seed, tracer, plain, traced, src))
    else:
        metrics["run_s"] = _metric(statistics.median(plain), "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = _metric(peak_kb / 1024.0, "MB")
    for problem in runner.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{workload}: {len(plain)} untraced passes, median {statistics.median(plain):.4f} s")
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def _trace_metrics(workload, seed, tracer, plain, traced, src) -> dict:
    passes = len(traced)
    metrics = {k: _metric(v, u) for k, (v, u) in tracing.layer_metrics(tracer, passes).items()}
    rows, root = tracer.summary()
    traced_total = sum(traced)
    metrics["trace.run_s"] = _metric(statistics.median(traced), "s")
    metrics["trace.untraced_run_s"] = _metric(statistics.median(plain), "s")
    metrics["trace.overhead_s"] = _metric(statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.coverage"] = _metric(root / traced_total, "share")
    runs = [import_layer_seconds(src) for _ in range(IMPORTTIME_REPEATS)]
    for name in IMPORT_LAYERS:
        values = [r[name] for r in runs if name in r]
        metrics[f"import.{name}_s"] = _metric(statistics.median(values) if values else 0.0, "s")

    print(f"{'span':32s} {'calls/pass':>11s} {'self s/pass':>12s} {'incl s/pass':>12s} {'self share':>10s}")
    for name, row in sorted(rows.items(), key=lambda item: -item[1]["self_s"]):
        print(f"{name:32s} {row['calls'] / passes:11.1f} {row['self_s'] / passes:12.4f} "
              f"{row['incl_s'] / passes:12.4f} {row['self_s'] / traced_total:10.1%}")
    print(f"root spans cover {root / traced_total:.1%} of {passes} traced passes")
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({
            "workload": workload,
            "seed": seed,
            "traced_passes": traced,
            "untraced_passes": plain,
            "metrics": metrics,
            "spans": [[n, s - origin, e - origin, p] for n, s, e, p in tracer.spans],
        }, fh)
    print(f"spans written to {os.path.relpath(path)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gfpk", "cli.py")):
        print(f"no gfpk sources under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload]()
    result = run_benchmark(args.workload, ops, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
