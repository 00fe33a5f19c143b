"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest bench -q

Run from the root of a checkout; they import gfpk from `src/`.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import reference as ref
import run
import workloads

ROOT = os.path.dirname(run.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gfpk.cli  # noqa: E402
import gfpk.linear  # noqa: E402
from gfpk.basis import enumerate_multi_indices  # noqa: E402

TINY_OPS = [
    workloads.sweep_op((0.3, 0.6), k=1, degree=8, quad=16),
    workloads.ladder_op(levels=(1, 2), degrees=(6, 4), quads=(8, 6)),
    workloads.vlasov_solve_op(0.2, degree=8, quad=16),
    workloads.rotational_solve_op(degree=6, quad=12),
    workloads.clipped_solve_op(k=2, degree=6, quad=12),
]


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_prints_every_declared_metric(trace, kind):
    originals = (gfpk.linear.assemble, gfpk.linear.residual)
    result = run.run_benchmark("tiny", TINY_OPS, seed=3, seconds=0, trace=trace,
                               root=ROOT, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0
    # warm-up and one timed pass, plus one traced pass when tracing
    assert result["attempted"] == len(TINY_OPS) * (3 if trace else 2)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert (gfpk.linear.assemble, gfpk.cli.residual) == originals
    json.dumps(result)


def _solve(op, tmp_name):
    runner = run.Runner(gfpk.cli, [op], seed=0, out_dir=os.path.join(run.OUT_DIR, tmp_name))
    runner.run_op(0)
    assert runner.problems == [] and runner.failed == 0
    return os.path.join(runner.out_dir, "op_0")


@pytest.mark.parametrize("op_index,alpha", [(2, 2), (3, 1), (4, 3)])
def test_perturbed_density_fails_its_check(op_index, alpha):
    op = TINY_OPS[op_index]
    op_dir = _solve(op, f"test-perturb-{os.getpid()}-{op_index}")
    path = os.path.join(op_dir, "density.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["coefficients"][alpha] += 1e-3
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert op.check(0, op_dir)


def test_unit_mass_defect_fails_density_check():
    c1 = workloads.vlasov_reference(0.3)
    doc = {"k": 2, "N": 8, "ordering": "grlex",
           "coefficients": [1.0] + list(ref.product_coefficients(c1, 2, 8)[1:])}
    assert workloads.density_problems(doc, 2, 8, c1) == []
    doc["coefficients"][0] = 1.0 + 1e-12
    assert workloads.density_problems(doc, 2, 8, c1)


def test_ladder_moment_check_rejects_shifted_moment():
    op = TINY_OPS[1]
    op_dir = _solve(op, f"test-ladder-{os.getpid()}")
    path = os.path.join(op_dir, "ladder.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["levels"][0]["moment"] += 1e-2
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert op.check(0, op_dir)


def test_reference_grid_is_converged():
    wide = ref.gaussian_grid(span=16.0, n=2561)
    for scale in (0.2, 1.5):
        fine = ref.chaos_coefficients(ref.selfconsistent_tanh(scale, *wide), *wide)
        assert np.max(np.abs(fine - workloads.vlasov_reference(scale))) < 1e-9


def test_grlex_matches_the_file_format_order():
    for k, degree in ((1, 5), (2, 4), (3, 3)):
        assert ref.grlex(k, degree) == enumerate_multi_indices(k, degree)


def test_refuses_to_run_without_sources():
    empty = os.path.join(run.OUT_DIR, f"test-empty-{os.getpid()}")
    os.makedirs(empty, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "certify",
         "--seed", "1", "--seconds", "1"],
        cwd=empty, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
