"""Compare what two gfpk source trees write, config by config.

    python tools/compare_artifacts.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the `src` directories (the ones holding `gfpk`) of
two checkouts.  Each config below runs once per tree, as
`python -m gfpk.cli MODE --config NAME.json --out NAME` with PYTHONPATH set
to that tree, in a temporary directory that is removed afterwards.  The
paths are relative, so both trees see the same ones.

The exit codes and stderr must be equal, and so must every file written,
byte for byte.  A `report.json` is compared as JSON without what records
when and where a run happened: `timestamps`, `wall_seconds`, `artifacts`
and each sweep row's `density` path.  Every difference is printed, and the
exit code is 1 if there is any, else 0.

The configs are the operations of the benchmark's workloads
(`bench/workloads.WORKLOADS`), the README's JSON config blocks, the
acceptance gate's criterion-12 config, Vlasov configs that reach every
kernel kind, the self-consistent `1d` oracle, the `sde` oracle and a sweep,
and ladders over a Vlasov tanh drift and a clipped potential.
The benchmark and README are read from the checkout holding this file.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT_KEYS_IGNORED = ("timestamps", "wall_seconds", "artifacts")


def _vlasov(kernel: dict) -> dict:
    return {"kind": "vlasov", "kernel": kernel}


# the acceptance gate's determinism criterion (tests/test_acceptance.py)
CRITERION_12 = {
    "mode": "solve-nonlinear", "k": 1, "N": 16, "Q": 32, "seed": 5,
    "drift": _vlasov({"kind": "tanh", "scale": 0.2}),
    "fixed_point": {"damping": 0.5, "tolerance": 1e-10},
}
KERNEL_CONFIGS = {
    "vlasov-gaussian-lobe-k2": {"mode": "solve-nonlinear", "k": 2, "N": 8, "Q": 16,
                                "drift": _vlasov({"kind": "gaussian-lobe", "scale": 0.8})},
    "vlasov-clipped-linear-k2": {"mode": "solve-nonlinear", "k": 2, "N": 8, "Q": 16,
                                 "drift": _vlasov({"kind": "clipped-linear", "scale": 1.0, "cap": 0.5})},
    "vlasov-constant-k2": {"mode": "solve-nonlinear", "k": 2, "N": 8, "Q": 16,
                           "drift": _vlasov({"kind": "constant", "h": [0.3, -0.2]})},
    "compare-1d-vlasov-tanh": {"mode": "oracle-compare", "k": 1, "N": 16, "Q": 32,
                               "drift": _vlasov({"kind": "tanh", "scale": 0.3}), "oracle_compare": {"oracle": "1d"}},
    "compare-sde-gaussian-lobe": {"mode": "oracle-compare", "k": 2, "N": 6, "Q": 12, "seed": 3,
                                  "drift": _vlasov({"kind": "gaussian-lobe", "scale": 0.8}),
                                  "oracle_compare": {"oracle": "sde", "n_steps": 400}},
    "sweep-vlasov-k1": {"mode": "sweep", "k": 1, "N": 12, "Q": 24,
                        "sweep": {"family": "vlasov-tanh-scale", "values": [0.1, 0.5, 1.0]}},
}
# the benchmark's ladder-k5 schedule over the two drifts bounded by 0.5 in every
# component that are not componentwise kinds
LADDER_K5_SCHEDULE = {"weights": [1.0, 0.5, 0.25, 0.125, 0.0625], "component_bound": 0.5, "levels": [1, 2, 3, 4, 5],
                      "degrees": [8, 6, 5, 4, 4], "quad_orders": [10, 8, 6, 6, 6]}
LADDER_CONFIGS = {
    "ladder-vlasov-tanh": {"mode": "ladder", "drift": _vlasov({"kind": "tanh", "scale": 0.5}),
                           "ladder": LADDER_K5_SCHEDULE},
    "ladder-clipped-potential": {"mode": "ladder", "drift": {"kind": "clipped-potential", "lam": 0.5},
                                 "ladder": LADDER_K5_SCHEDULE},
}


def configs() -> dict[str, dict]:
    """Every config compared, by a name that is also its file and output name."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    out = {f"{workload}-{op.name}": op.config for workload, ops in workloads.WORKLOADS.items() for op in ops()}
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```json\n(.*?)^```", fh.read(), re.M | re.S)
    out.update({f"readme-{j}": json.loads(text) for j, text in enumerate(blocks)})
    out["criterion-12"] = CRITERION_12
    out.update(KERNEL_CONFIGS)
    out.update(LADDER_CONFIGS)
    return out


def run(src: str, cwd: str, name: str, config: dict) -> tuple[int, str]:
    """Run one config on the tree src in cwd; its exit code and stderr."""
    with open(os.path.join(cwd, f"{name}.json"), "w") as fh:
        json.dump(config, fh)
    argv = [sys.executable, "-m", "gfpk.cli", config["mode"], "--config", f"{name}.json", "--out", name]
    done = subprocess.run(argv, cwd=cwd, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    return done.returncode, done.stderr


def _report(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    for key in REPORT_KEYS_IGNORED:
        doc.pop(key, None)
    for row in doc.get("sweep", []):
        row.pop("density", None)
    return doc


def _files(top: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), top) for d, _, files in os.walk(top) for f in files}


def compare_outputs(old: str, new: str) -> list[str]:
    """The differences between the files under the output directories old and new."""
    old_files, new_files = _files(old), _files(new)
    problems = [f"{f}: only in OLD" for f in sorted(old_files - new_files)]
    problems += [f"{f}: only in NEW" for f in sorted(new_files - old_files)]
    for f in sorted(old_files & new_files):
        a, b = os.path.join(old, f), os.path.join(new, f)
        if os.path.basename(f) == "report.json":
            if _report(a) != _report(b):
                problems.append(f"{f}: differs beyond {', '.join(REPORT_KEYS_IGNORED)} and paths")
        else:
            with open(a, "rb") as fa, open(b, "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{f}: bytes differ")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = [os.path.abspath(src) for src in argv]
    for src in trees:
        if not os.path.isfile(os.path.join(src, "gfpk", "__init__.py")):
            print(f"{src} holds no gfpk package", file=sys.stderr)
            return 2
    cases, n_files, n_differences = configs(), 0, 0
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        work = [os.path.join(tmp, side) for side in ("old", "new")]
        for cwd in work:
            os.mkdir(cwd)
        for name, config in cases.items():
            (old_rc, old_err), (new_rc, new_err) = (run(src, cwd, name, config) for src, cwd in zip(trees, work))
            problems = [] if old_rc == new_rc else [f"exit code {old_rc} -> {new_rc}"]
            old_lines, new_lines = old_err.splitlines(), new_err.splitlines()
            if old_lines != new_lines:
                problems.append("stderr differs:")
                problems += [f"  - {line}" for line in old_lines if line not in new_lines]
                problems += [f"  + {line}" for line in new_lines if line not in old_lines]
            problems += compare_outputs(*(os.path.join(cwd, name) for cwd in work))
            n_files += len(_files(os.path.join(work[1], name)))
            n_differences += len(problems)
            print(f"{name}: exit {old_rc}/{new_rc}, {'equal' if not problems else 'DIFFERENT'}")
            for problem in problems:
                print(f"  {problem}")
    print(f"{len(cases)} configs, {n_files} files on NEW: {n_differences} difference(s)")
    return 1 if n_differences else 0


if __name__ == "__main__":
    sys.exit(main())
