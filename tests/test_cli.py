"""Config parsing, mode dispatch, artifacts and the exit-code contract."""
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfpk.cli
from gfpk import ChaosDensity, ConfigError, FixedPointOptions, LadderConfig, NumericError, load_config, parse_config
from gfpk.cli import DEFAULT_BUMP_CENTERS, default_bumps, main
from gfpk.config import MODE_KEYS, MODE_PARAMS, MODES, quad_order
from helpers import cell_holds


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def linear_config(out):
    return {
        "mode": "solve-linear",
        "k": 1,
        "N": 12,
        "Q": 24,
        "drift": {"kind": "constant", "h": [0.3]},
        "output": {"dir": out},
    }


# -- config parsing --------------------------------------------------------


def test_parse_minimal_config():
    cfg = parse_config(
        {"mode": "solve-linear", "k": 1, "N": 12, "Q": 24, "drift": {"kind": "constant", "h": [0.3]}}
    )
    assert cfg["mode"] == "solve-linear"
    assert quad_order(cfg, cfg["N"]) == 24


def test_default_quadrature_order():
    cfg = parse_config(
        {"mode": "solve-linear", "k": 1, "N": 10, "drift": {"kind": "constant", "h": [0.1]}}
    )
    assert quad_order(cfg, cfg["N"]) == 20


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"mode": "solve-linear", "nope": 1, "drift": {"kind": "constant", "h": [0.1]}})


def test_unknown_drift_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(
            {"mode": "solve-linear", "drift": {"kind": "constant", "h": [0.1], "extra": 2}}
        )


def test_out_of_range_rejected():
    with pytest.raises(ConfigError, match="range"):
        parse_config({"mode": "solve-linear", "k": 99, "drift": {"kind": "constant", "h": [0.1]}})


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="mode"):
        parse_config({"mode": "fly"})


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(path))


# -- mode dispatch ---------------------------------------------------------


def test_solve_linear_cameron_martin(tmp_path):
    out = tmp_path / "out"
    code = main(["solve-linear", "--config", write_config(tmp_path, linear_config(str(out)))])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks_passed"] is True
    assert report["residuals"]["hermite_pass"] and report["residuals"]["bump_pass"]
    rho = ChaosDensity.from_json((out / "density.json").read_text())
    expected = [0.3**n / math.sqrt(math.factorial(n)) for n in range(13)]
    assert np.max(np.abs(rho.coefficients - expected)) <= 1e-10


def test_verify_is_idempotent(tmp_path):
    out = tmp_path / "out"
    main(["solve-linear", "--config", write_config(tmp_path, linear_config(str(out)))])
    verify = {
        "mode": "verify",
        "k": 1,
        "N": 12,
        "Q": 24,
        "drift": {"kind": "constant", "h": [0.3]},
        "verify": {"density": str(out / "density.json")},
        "output": {"dir": str(tmp_path / "ver")},
    }
    code = main(["verify", "--config", write_config(tmp_path, verify, "ver.json")])
    assert code == 0


def test_verify_takes_default_q_from_the_density_degree(tmp_path):
    """With N and Q left out, Q comes from the density's degree (16 -> 32),
    not from the default N=8, so the checks run instead of a config error."""
    out = tmp_path / "out"
    solve = dict(linear_config(str(out)), N=16, Q=32)
    assert main(["solve-linear", "--config", write_config(tmp_path, solve)]) == 0
    verify = {
        "mode": "verify",
        "k": 1,
        "drift": {"kind": "constant", "h": [0.3]},
        "verify": {"density": str(out / "density.json")},
        "output": {"dir": str(tmp_path / "ver")},
    }
    code = main(["verify", "--config", write_config(tmp_path, verify, "ver.json")])
    assert code in (0, 1)
    report = json.loads((tmp_path / "ver" / "report.json").read_text())
    assert report["checks_passed"] is (code == 0)


HEAVY_SCIPY = (
    "scipy.linalg", "scipy.signal", "scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special", "scipy.stats",
)
# no mode reads a hash, and a --threads 1 sweep starts no pool
UNREAD = ("hashlib", "concurrent.futures")


def run_fresh(code):
    """stdout of `code` run by a fresh interpreter on this checkout's src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


@pytest.mark.parametrize("module", ["gfpk.cli", "gfpk"])
def test_import_loads_no_heavy_scipy_subpackage(module):
    """Every CLI call pays for this import: numpy and scipy's LAPACK
    extension scipy.linalg._flapack only, neither the scipy package nor
    scipy.linalg; only the level-set mass imports more, scipy.optimize, on
    first use."""
    loaded = run_fresh(f"import sys, {module}; print(' '.join(sorted(sys.modules)))").split()
    assert module in loaded and "scipy.linalg._flapack" in loaded
    assert [m for m in ("scipy",) + HEAVY_SCIPY + UNREAD if m in loaded] == []


def test_solves_never_import_scipy_linalg(tmp_path):
    """The saving is not a deferred import: a whole solve-linear, a whole
    sweep and two whole fd2d oracle-compare runs, one on a box so wide that
    the 1-D stationary vectors underflow, run to exit 0 without scipy.linalg
    or scipy.sparse, and without UNREAD or numpy.random (with which
    secrets and OpenSSL's _hashlib come).  Only an sde oracle-compare run,
    which draws its particles, then loads numpy.random."""
    rotation = {"kind": "rotational", "scale": 0.3, "offset": [0.2, 0.0]}
    runs = []
    for name, mode, extra in [
        ("solve-linear", "solve-linear", {"drift": {"kind": "clipped-potential", "lam": 0.5}}),
        ("sweep", "sweep", {"sweep": {"family": "vlasov-tanh-scale", "values": [0.3]}}),
        ("fd2d", "oracle-compare", {"drift": rotation, "oracle_compare": {"oracle": "fd2d"}}),
        (
            "fd2d-wide",
            "oracle-compare",
            {"drift": rotation, "oracle_compare": {"oracle": "fd2d", "span": 60, "n_cells": 161}},
        ),
    ]:
        cfg = {"mode": mode, "k": 2, "N": 8, "Q": 16, **extra, "output": {"dir": str(tmp_path / name)}}
        runs.append([mode, "--config", write_config(tmp_path, cfg, f"{name}.json")])
    sde = {"mode": "oracle-compare", "k": 1, "N": 6, "drift": {"kind": "constant", "h": [0.3]},
           "oracle_compare": {"oracle": "sde", "n_steps": 10, "n_particles": 50}, "output": {"dir": str(tmp_path / "sde")}}
    unwanted = ("scipy.linalg", "scipy.sparse", "numpy.random", "secrets", "_hashlib") + UNREAD
    probe = (
        "import json, sys\nfrom gfpk.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        f"loaded = [m for m in {unwanted!r} if m in sys.modules]\n"
        f"codes.append(main(['oracle-compare', '--config', {write_config(tmp_path, sde, 'sde.json')!r}]))\n"
        "print(json.dumps([codes, loaded, 'numpy.random' in sys.modules]))"
    )
    codes, loaded, sde_loads_random = json.loads(run_fresh(probe).splitlines()[-1])
    assert codes == [0] * 5 and loaded == [] and sde_loads_random
    assert (tmp_path / "solve-linear" / "density.json").exists()
    assert (tmp_path / "sweep" / "sweep.csv").exists()
    for name in ("fd2d", "fd2d-wide"):
        assert json.loads((tmp_path / name / "report.json").read_text())["oracle"]["oracle"] == "fd2d"


@pytest.mark.parametrize(
    "first, second", [("gfpk.cli", "scipy.linalg.lapack"), ("scipy.linalg.lapack", "gfpk.cli")]
)
def test_one_copy_of_lapack_in_either_import_order(first, second):
    """gfpk registers the extension under scipy's own name, so scipy.linalg
    reuses it, and gfpk reuses scipy.linalg's copy when that came first."""
    probe = (
        f"import sys\nimport {first}\nloaded = sys.modules.get('scipy.linalg._flapack')\nimport {second}\n"
        "import json, gfpk.linear, scipy.linalg.lapack as lapack\n"
        "same = [getattr(gfpk.linear, r) is getattr(lapack, r) for r in ('dgetrf', 'dgecon', 'dgetrs')]\n"
        "print(json.dumps(same + [sys.modules['scipy.linalg._flapack'] is loaded]))"
    )
    assert json.loads(run_fresh(probe)) == [True, True, True, True]


def test_lapack_loader_names_the_directory_it_searched(tmp_path, monkeypatch):
    from gfpk import linear

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        linear._lapack_routines(str(tmp_path))


def test_malformed_config_exit_2_no_outputs(tmp_path):
    cfg = linear_config(str(tmp_path / "should_not_exist"))
    cfg["bogus"] = True
    code = main(["solve-linear", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert not (tmp_path / "should_not_exist").exists()


@pytest.mark.parametrize("where", ["file", "below-file"])
def test_an_output_path_that_cannot_be_a_directory_exits_2_before_solving(tmp_path, capsys, monkeypatch, where):
    (tmp_path / "taken").write_text("a file")
    out = tmp_path / "taken" if where == "file" else tmp_path / "taken" / "sub"
    monkeypatch.setattr(gfpk.cli, "solve_stationary", lambda *args: pytest.fail("solved before the output check"))
    code = main(["solve-linear", "--config", write_config(tmp_path, linear_config(str(out)))])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("config error:")
    assert (tmp_path / "taken").read_text() == "a file"


def test_a_zero_drift_report_is_strict_json(tmp_path):
    """sigma_inf = C0^-2 is infinite at zero drift: the tail entry records it
    as null, and the report holds no NaN or Infinity token."""
    out = tmp_path / "out"
    cfg = dict(linear_config(str(out)), drift={"kind": "constant", "h": [0.0]})
    assert main(["solve-linear", "--config", write_config(tmp_path, cfg)]) == 0

    report = json.loads((out / "report.json").read_text(), parse_constant=_refuse_non_finite)
    tail = next(b for b in report["bounds"] if b["name"] == "tail")
    assert tail["inputs"]["sigma_inf"] is None and tail["right"] == 0.0


def test_mode_mismatch_exit_2(tmp_path):
    code = main(["verify", "--config", write_config(tmp_path, linear_config(str(tmp_path)))])
    assert code == 2


def test_solver_failure_exit_3(tmp_path):
    cfg = {
        "mode": "solve-nonlinear",
        "k": 1,
        "N": 12,
        "Q": 24,
        "drift": {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.2}},
        "fixed_point": {"max_iterations": 1, "tolerance": 1e-12},
        "output": {"dir": str(tmp_path / "out")},
    }
    code = main(["solve-nonlinear", "--config", write_config(tmp_path, cfg)])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "error" in report


def test_nonlinear_writes_trace(tmp_path):
    cfg = {
        "mode": "solve-nonlinear",
        "k": 1,
        "N": 12,
        "Q": 24,
        "drift": {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.2}},
        "output": {"dir": str(tmp_path / "out")},
    }
    code = main(["solve-nonlinear", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    trace = (tmp_path / "out" / "trace.csv").read_text()
    assert trace.startswith("iteration,delta,psi_residual")


def test_k2_vlasov_checks_finish_in_seconds(tmp_path):
    """The bump residuals read the drift through the measure on the solve
    grid; re-reading p on a 201^2-node bump grid took minutes."""
    cfg = {
        "mode": "solve-nonlinear",
        "k": 2,
        "N": 6,
        "Q": 12,
        "drift": {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.3}},
        "output": {"dir": str(tmp_path / "out")},
    }
    start = time.monotonic()
    code = main(["solve-nonlinear", "--config", write_config(tmp_path, cfg)])
    elapsed = time.monotonic() - start
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["residuals"]["bumps"]) == 2 * len(DEFAULT_BUMP_CENTERS)
    assert report["residuals"]["bump_pass"]
    assert elapsed < 30.0


@pytest.mark.parametrize(
    "k, degree, quad, drift",
    [
        (3, 6, 7, {"kind": "constant", "h": [0.0, 0.0, 0.0]}),
        (3, 10, 14, {"kind": "clipped-potential", "lam": 0.5}),
        (4, 8, 9, {"kind": "clipped-potential", "lam": 0.5}),
    ],
    ids=["zero-k3", "clipped-k3", "clipped-k4"],
)
def test_exact_solutions_pass_their_bumps_for_k_above_2(tmp_path, k, degree, quad, drift):
    """rho = 1 and the product of cosh powers solve these exactly, so every
    bump residual is quadrature and truncation error."""
    cfg = {"mode": "solve-linear", "k": k, "N": degree, "Q": quad, "drift": drift,
           "output": {"dir": str(tmp_path / "out")}}
    assert main(["solve-linear", "--config", write_config(tmp_path, cfg)]) == 0
    residuals = json.loads((tmp_path / "out" / "report.json").read_text())["residuals"]
    assert len(residuals["bumps"]) == k * len(DEFAULT_BUMP_CENTERS)
    assert residuals["bump_pass"] and max(abs(b) for b in residuals["bumps"]) <= 1e-3


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_default_bumps_test_every_coordinate(k):
    bumps = default_bumps(k)
    assert {phi.active for phi in bumps} == {(i,) for i in range(k)}
    for i in range(k):
        assert [phi.center[0] for phi in bumps if phi.active == (i,)] == list(DEFAULT_BUMP_CENTERS)


def test_sweep_constant_family(tmp_path):
    cfg = {
        "mode": "sweep",
        "k": 1,
        "N": 12,
        "Q": 24,
        "sweep": {"family": "constant-scale", "values": [0.0, 0.1, 0.2]},
        "output": {"dir": str(tmp_path / "out")},
    }
    code = main(["sweep", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    for j, u in enumerate([0.0, 0.1, 0.2]):
        rho = ChaosDensity.from_json((tmp_path / "out" / f"density_{j:03d}.json").read_text())
        expected = [u**n / math.sqrt(math.factorial(n)) for n in range(13)]
        assert np.max(np.abs(rho.coefficients - expected)) <= 1e-8
    # adjacent distance vs the closed-form coefficient series
    table = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    d01 = float(table[2].split(",")[3])
    cm = lambda u: np.array([u**n / math.sqrt(math.factorial(n)) for n in range(13)])
    assert d01 == pytest.approx(np.linalg.norm(cm(0.1) - cm(0.0)), abs=1e-6)


def test_sweep_direction_is_read_by_constant_scale_only():
    sweep = {"family": "vlasov-tanh-scale", "values": [0.5], "direction": [1, 0]}
    with pytest.raises(ConfigError, match=re.escape("unknown key(s) ['direction'] in sweep of family 'vlasov-tanh-scale'")):
        parse_config({"mode": "sweep", "k": 2, "N": 4, "sweep": sweep})
    parse_config({"mode": "sweep", "k": 2, "N": 4, "sweep": {**sweep, "family": "constant-scale"}})


def test_failing_sweep_points_keep_four_columns(tmp_path):
    # one iteration cannot converge; the failure message holds commas
    cfg = {
        "mode": "sweep",
        "k": 1,
        "N": 6,
        "fixed_point": {"max_iterations": 1},
        "sweep": {"family": "vlasov-tanh-scale", "values": [0.3, 0.5]},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "failed", "l2_norm_sq", "distance_to_previous"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [row[:2] for row in rows[1:]] == [["0.3", report["sweep"][0]["failed"]], ["0.5", report["sweep"][1]["failed"]]]
    assert all(len(row) == 4 for row in rows) and all("," in row[1] for row in rows[1:])


def test_sweep_csv_holds_the_report_rows_exactly(tmp_path):
    """One LF row per point: u, the failure message or an empty cell, and
    l2_norm_sq and distance_to_previous, each the report's float or an empty
    cell where the report has none.  Scale 2.0 fails to converge in three
    iterations, so the point after it has no distance."""
    cfg = {
        "mode": "sweep",
        "k": 1,
        "N": 6,
        "fixed_point": {"max_iterations": 3},
        "sweep": {"family": "vlasov-tanh-scale", "values": [0.0, 0.05, 2.0, 0.1]},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
    text = (tmp_path / "out" / "sweep.csv").read_bytes().decode()
    rows = list(csv.reader(io.StringIO(text)))
    points = json.loads((tmp_path / "out" / "report.json").read_text())["sweep"]
    assert "\r" not in text and text.count("\n") == len(rows) == len(points) + 1
    columns = ("u", "failed", "l2_norm_sq", "distance_to_previous")
    assert tuple(rows[0]) == columns
    assert all(cell_holds(cell, point.get(key)) for row, point in zip(rows[1:], points)
               for cell, key in zip(row, columns, strict=True))
    assert [point["failed"] is None for point in points] == [True, True, False, True]
    assert "distance_to_previous" in points[1] and "distance_to_previous" not in points[3]


def test_sweep_point_without_a_finite_ball_radius_is_solved(tmp_path):
    # Vlasov tanh 4.0 at k=2 has C0 = 35.5, beyond a finite b1_bound
    cfg = {
        "mode": "sweep",
        "k": 2,
        "N": 8,
        "Q": 16,
        "sweep": {"family": "vlasov-tanh-scale", "values": [4.0]},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [row["failed"] for row in report["sweep"]] == [None]
    assert (tmp_path / "out" / "density_000.json").exists()


def test_a_check_that_cannot_run_keeps_the_artifacts(tmp_path, capsys, monkeypatch):
    # a certificate that raises is exit 3, but the converged density and its
    # trace are written first
    def unreadable(*args):
        raise NumericError("tail levels cannot be read")

    monkeypatch.setattr(gfpk.cli, "tail_check", unreadable)
    out = tmp_path / "out"
    cfg = {**_vlasov(2, {"kind": "tanh", "scale": 4.0}), "N": 8, "Q": 16, "output": {"dir": str(out)}}
    assert main(["solve-nonlinear", "--config", write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err.startswith("solver error:")
    report = json.loads((out / "report.json").read_text())
    assert "error" in report and report["artifacts"] == {
        "density": str(out / "density.json"), "trace": str(out / "trace.csv")
    }
    assert ChaosDensity.from_json((out / "density.json").read_text()).k == 2
    assert (out / "trace.csv").read_text().startswith("iteration,delta,psi_residual")


def _refuse_non_finite(token):
    raise ValueError(f"non-finite token {token} in report.json")


def test_running_out_of_memory_is_exit_3_with_a_report(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 9.08 GiB for an array with shape (34902, 34902)")

    monkeypatch.setattr(gfpk.cli, "solve_stationary", exhausted)
    out = tmp_path / "out"
    assert main(["solve-linear", "--config", write_config(tmp_path, linear_config(str(out)))]) == 3
    assert capsys.readouterr().err.startswith("solver error: Unable to allocate")
    report = json.loads((out / "report.json").read_text())
    assert report["error"].startswith("Unable to allocate") and report["checks_passed"] is False


def test_ladder_mode(tmp_path):
    cfg = {
        "mode": "ladder",
        "drift": {"kind": "componentwise-tanh", "scale": 0.5, "n_components": 3, "mean_shift": True},
        "ladder": {
            "weights": [0.25, 0.0625, 0.015625],
            "component_bound": 0.5,
            "levels": [1, 2, 3],
            "degrees": [6, 5, 4],
            "quad_orders": [8, 6, 5],
        },
        "fixed_point": {"damping": 0.5, "tolerance": 1e-9},
        "output": {"dir": str(tmp_path / "out")},
    }
    code = main(["ladder", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "ladder.json").read_text())
    assert doc["completed"] and len(doc["levels"]) == 3


def test_ladder_builds_and_validates_each_level_drift_once(tmp_path, monkeypatch):
    import gfpk.drift

    validated = []
    for cls in (gfpk.drift.DriftField, gfpk.drift.SeparableField):
        original = cls.__dict__["_validate_by_sampling"]
        monkeypatch.setattr(cls, "_validate_by_sampling", lambda self, f=original: validated.append(self.k) or f(self))
    cfg = {**_ladder(), "output": {"dir": str(tmp_path / "out")}}
    assert main(["ladder", "--config", write_config(tmp_path, cfg)]) == 0
    assert validated == LADDER["levels"]
    # the check stays: a drift beyond the component bound is still refused
    assert main(["ladder", "--config", write_config(tmp_path, _ladder(drift={"scale": 2.0}, component_bound=0.1))]) == 2


def test_determinism_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, linear_config(str(tmp_path / "a")))
    main(["solve-linear", "--config", cfg_path, "--out", str(tmp_path / "a")])
    main(["solve-linear", "--config", cfg_path, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "density.json").read_bytes() == (
        tmp_path / "b" / "density.json"
    ).read_bytes()
    # reports agree modulo the timestamp fields
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    for r in (ra, rb):
        r.pop("timestamps")
        r.pop("wall_seconds")
        r.pop("artifacts")
    assert ra == rb


def test_seed_flag_parses_the_config_once(tmp_path, monkeypatch):
    """--seed replaces the document's seed before the one parse; a ladder
    config builds and sample-validates the drift of every level at parse
    time."""
    import gfpk.config

    calls = []

    def counted(doc):
        calls.append(doc)
        return parse_config(doc)

    monkeypatch.setattr(gfpk.config, "parse_config", counted)
    monkeypatch.setattr(gfpk.cli, "parse_config", counted, raising=False)
    cfg = {**_ladder(), "seed": 4, "output": {"dir": str(tmp_path / "out")}}
    assert main(["ladder", "--config", write_config(tmp_path, cfg), "--seed", "7"]) == 0
    assert [doc["seed"] for doc in calls] == [7]
    assert json.loads((tmp_path / "out" / "report.json").read_text())["config"]["seed"] == 7
    # a document that is not an object still exits 2
    assert main(["ladder", "--config", write_config(tmp_path, [cfg], "list.json"), "--seed", "7"]) == 2


def test_oracle_compare_1d(tmp_path):
    cfg = {
        "mode": "oracle-compare",
        "k": 1,
        "N": 16,
        "Q": 32,
        "drift": {"kind": "clipped-potential", "lam": 0.8},
        "oracle_compare": {"oracle": "1d", "tolerance": 1e-6},
        "output": {"dir": str(tmp_path / "out")},
    }
    code = main(["oracle-compare", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["oracle"]["l2_gamma_distance"] <= 1e-6


CLIPPED_ONE = {"kind": "clipped-potential", "lam": 1.0}


@pytest.mark.parametrize("cfg", [
    {"mode": "solve-linear", "k": 1, "N": 64, "Q": 512, "drift": CLIPPED_ONE},
    {"mode": "oracle-compare", "k": 1, "N": 64, "Q": 100, "drift": CLIPPED_ONE, "oracle_compare": {"oracle": "1d", "span": 12}},
], ids=["solve-q512", "oracle-1d-q100"])
def test_the_largest_rules_keep_the_galerkin_matrix_conditioned(tmp_path, cfg):
    """N = 64 with Q = 512 and Q = 100 exited 3 (condition estimates of
    3e74 and 5e19) while the rule's weights came from the eigenvectors of
    its Jacobi matrix."""
    out = tmp_path / "out"
    assert main([cfg["mode"], "--config", write_config(tmp_path, {**cfg, "output": {"dir": str(out)}})]) == 0
    assert "error" not in json.loads((out / "report.json").read_text())


def test_oracle_compare_1d_vlasov_takes_the_self_consistent_oracle(tmp_path, monkeypatch):
    """A Vlasov drift is compared against the self-consistent 1-D fixed
    point, not the closed form for a frozen drift."""
    import gfpk.cli

    calls = []
    for name in ("oracle_1d", "oracle_1d_selfconsistent"):
        oracle = getattr(gfpk.cli, name)
        monkeypatch.setattr(gfpk.cli, name, lambda *a, name=name, oracle=oracle, **kw: calls.append(name) or oracle(*a, **kw))
    cfg = {
        "mode": "oracle-compare",
        "k": 1,
        "N": 16,
        "Q": 32,
        "drift": {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.5}},
        "oracle_compare": {"oracle": "1d", "tolerance": 1e-6},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["oracle-compare", "--config", write_config(tmp_path, cfg)]) == 0
    assert calls == ["oracle_1d_selfconsistent"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["oracle"]["l2_gamma_distance"] <= 1e-6


def test_oracle_compare_sde_honours_its_tolerance(tmp_path):
    cfg = {
        **_solve(1, CONSTANT, "oracle-compare"),
        "oracle_compare": {"oracle": "sde", "tolerance": 1e-6, "n_steps": 400, "n_particles": 100},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert main(["oracle-compare", "--config", write_config(tmp_path, cfg)]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["oracle"]["tolerance_se"] == 1e-6
    assert report["oracle"]["max_gap_in_se"] > 1e-6
    assert report["checks_passed"] is False


def test_sweep_threads_give_identical_artifacts(tmp_path):
    cfg = {"mode": "sweep", "k": 1, "N": 8, "sweep": {"family": "vlasov-tanh-scale", "values": [0.1, 0.3, 0.5]}}
    path = write_config(tmp_path, cfg)
    for threads in ("1", "2"):
        assert main(["sweep", "--config", path, "--out", str(tmp_path / threads), "--threads", threads]) == 0
    names = ["sweep.csv"] + [f"density_{j:03d}.json" for j in range(3)]
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_sweep_on_one_thread_starts_no_thread(tmp_path, monkeypatch):
    import threading

    def refuse(thread):
        raise AssertionError(f"a --threads 1 sweep started {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = {"mode": "sweep", "k": 1, "N": 8, "sweep": {"family": "vlasov-tanh-scale", "values": [0.1, 0.3]}}
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"), "--threads", "1"]) == 0
    assert (tmp_path / "out" / "density_001.json").exists()


def test_oracle_compare_sde_reads_the_density_once(tmp_path, monkeypatch):
    """After the fixed point, the solved density is read as a measure once;
    the SDE oracle's steps reuse that measure instead of re-reading it.
    as_measure and marginal_measure are called only by read_measure."""
    import gfpk.density
    import gfpk.drift

    calls, reads = [], []  # the module calling read_measure; that calling as_measure or marginal_measure

    def counted(original, log):
        def read(*args):
            log.append(sys._getframe(1).f_globals["__name__"])
            return original(*args)

        return read

    for cls in (gfpk.drift.DriftField, gfpk.drift.SeparableField):
        monkeypatch.setattr(cls, "read_measure", counted(cls.__dict__["read_measure"], calls))
    for name in ("as_measure", "marginal_measure"):
        original = getattr(gfpk.density, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("gfpk") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(original, reads))
    cfg = {
        **_vlasov(1, {"kind": "tanh", "scale": 0.2}),
        "mode": "oracle-compare",
        "oracle_compare": {"oracle": "sde", "n_steps": 400, "n_particles": 100},
        "output": {"dir": str(tmp_path / "out")},
    }
    code = main(["oracle-compare", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    assert "gfpk.nonlinear" in calls
    assert [name for name in calls if name != "gfpk.nonlinear"] == ["gfpk.cli"]
    assert reads == ["gfpk.drift"] * len(calls)


# -- malformed inputs exit 2 ------------------------------------------------

CONSTANT = {"kind": "constant", "h": [0.3]}
COMPONENTWISE = {"kind": "componentwise-tanh", "scale": 0.5, "n_components": 3}
LADDER = {
    "weights": [0.25, 0.0625, 0.015625],
    "component_bound": 0.5,
    "levels": [1, 2, 3],
    "degrees": [4, 4, 4],
    "quad_orders": [6, 6, 6],
}


def _solve(k, drift, mode="solve-linear", **extra):
    return {"mode": mode, "k": k, "N": 4, "Q": 8, "drift": drift, **extra}


def _ladder(drift=None, **ladder):
    return {"mode": "ladder", "drift": {**COMPONENTWISE, **(drift or {})}, "ladder": {**LADDER, **ladder}}


def _verify(density):
    return {"mode": "verify", "drift": CONSTANT, "verify": {"density": density}}


def _vlasov(k, kernel):
    return _solve(k, {"kind": "vlasov", "kernel": kernel}, "solve-nonlinear")


MALFORMED = {
    "rotational-odd-k": _solve(3, {"kind": "rotational", "scale": 0.3}),
    "rotational-scalar-offset": _solve(2, {"kind": "rotational", "scale": 0.3, "offset": 0.2}),
    "rotational-offset-length": _solve(2, {"kind": "rotational", "scale": 0.3, "offset": [0.1] * 3}),
    "componentwise-k-above-n-components": _solve(3, {**COMPONENTWISE, "n_components": 2}, "solve-nonlinear"),
    "constant-kernel-h-short": _vlasov(2, {"kind": "constant", "h": [0.3]}),
    "constant-kernel-h-scalar": _vlasov(1, {"kind": "constant", "h": 0.3}),
    "tanh-kernel-without-scale": _vlasov(1, {"kind": "tanh"}),
    "clipped-linear-kernel-cap-negative": _vlasov(1, {"kind": "clipped-linear", "scale": 1.0, "cap": -0.5}),
    "q-below-n-plus-1": {**_solve(1, CONSTANT), "N": 64, "Q": 8},
    "basis-above-cap": {**_solve(8, {"kind": "clipped-potential", "lam": 0.5}), "N": 20, "Q": 21},
    "grid-above-cap": {**_solve(4, {"kind": "clipped-potential", "lam": 0.5}), "Q": 40},
    "verify-missing-density": _verify("{tmp}/missing.json"),
    "verify-unreadable-density": _verify("{tmp}/bad.json"),
    "verify-wrong-coefficient-count": _verify("{tmp}/short.json"),
    "verify-q-below-density-degree": {**_verify("{tmp}/high.json"), "Q": 8},
    "verify-k-differs-from-density": {**_verify("{tmp}/high.json"), "k": 2},
    "verify-with-fixed-point": {**_verify("{tmp}/high.json"), "fixed_point": {"damping": 0.5}},
    "verify-density-k-2000": _verify("{tmp}/k2000.json"),
    "verify-density-k-5000": _verify("{tmp}/k5000.json"),
    "verify-density-list": _verify("{tmp}/list.json"),
    "verify-density-k-fraction": _verify("{tmp}/k-fraction.json"),
    "verify-density-k-bool": _verify("{tmp}/k-bool.json"),
    "verify-density-nan": _verify("{tmp}/nan.json"),
    "verify-density-infinity": _verify("{tmp}/infinity.json"),
    "fixed-point-memory-negative": {**_vlasov(1, {"kind": "tanh", "scale": 0.2}), "fixed_point": {"memory": -1}},
    "ladder-levels-string": _ladder(levels="ab"),
    "ladder-weights-flat": _ladder(weights=[1, 1], levels=[1, 2], degrees=[4, 4], quad_orders=[6, 6]),
    "ladder-too-few-weights": _ladder(weights=[0.25, 0.0625]),
    "ladder-single-weight": _ladder(weights=[0.5], levels=[1], degrees=[4], quad_orders=[6]),
    "ladder-level-above-n-components": _ladder(drift={"n_components": 2}),
    "ladder-q-below-degree": _ladder(quad_orders=[6, 4, 6]),
    "ladder-constant-drift": {**_ladder(), "drift": {"kind": "constant", "h": [0.1, 0.2, 0.3]}},
    "ladder-with-k": {**_ladder(), "k": 7},
    "ladder-component-bound-below-drift": _ladder(drift={"scale": 2.0}, component_bound=0.1),
    "oracle-n-cells-string": _solve(
        2, {"kind": "rotational", "scale": 0.3}, "oracle-compare", oracle_compare={"oracle": "fd2d", "n_cells": "x"}
    ),
    "oracle-n-particles-not-batched": _solve(
        1, CONSTANT, "oracle-compare", oracle_compare={"oracle": "sde", "n_particles": 75}
    ),
    "oracle-1d-with-k-2": _solve(2, {"kind": "clipped-potential", "lam": 0.5}, "oracle-compare",
                                 oracle_compare={"oracle": "1d"}),
    "oracle-n-points": _solve(1, CONSTANT, "oracle-compare", oracle_compare={"oracle": "1d", "n_points": 9}),
    "oracle-sde-with-span": _solve(1, CONSTANT, "oracle-compare", oracle_compare={"oracle": "sde", "span": 6.0}),
    "oracle-1d-with-n-cells": _solve(1, CONSTANT, "oracle-compare", oracle_compare={"oracle": "1d", "n_cells": 41}),
    "solve-with-sweep-block": {**_solve(1, CONSTANT), "sweep": {"family": "constant-scale", "values": [0.1]}},
    "sweep-with-drift-block": {
        "mode": "sweep", "k": 1, "N": 4, "sweep": {"family": "constant-scale", "values": [0.1]}, "drift": {"kind": "bogus"}
    },
    "sweep-direction-length": {
        "mode": "sweep", "k": 2, "N": 4, "sweep": {"family": "constant-scale", "values": [0.1], "direction": [1.0]}
    },
    "sweep-kernel-scale-max": {
        "mode": "sweep", "k": 1, "N": 4, "sweep": {"family": "constant-scale", "values": [0.1], "kernel_scale_max": 2}
    },
    "sweep-point-outside-range": {
        "mode": "sweep", "k": 1, "N": 4, "sweep": {"family": "constant-scale", "values": [60.0], "direction": [2.0]}
    },
}


def _tiny(mode, scale, bound, density=None, oracle="1d"):
    """A valid tiny config of one solving mode with the drift scale
    `scale` (and, for the ladder, the component bound `bound`); verify
    checks `density` under the Vlasov drift of kernel scale `scale`, and
    oracle-compare runs `oracle` at a tiny size: the 1-D one on a
    clipped-potential drift, the FD and SDE ones on the Vlasov drift, whose
    fixed point can fail (exit 3)."""
    if mode == "ladder":
        return _ladder(drift={"scale": scale}, component_bound=bound, degrees=[4, 3, 2], quad_orders=[5, 4, 3])
    if mode == "sweep":
        return {"mode": "sweep", "k": 1, "N": 4, "sweep": {"family": "vlasov-tanh-scale", "values": [scale]}}
    vlasov = {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": scale}}
    if mode == "verify":
        return {"mode": "verify", "k": 1, "drift": vlasov, "verify": {"density": density}}
    if mode == "oracle-compare":
        tiny = {"1d": {}, "fd2d": {"n_cells": 12}, "sde": {"n_steps": 10, "n_particles": 50}}[oracle]
        drift = {"kind": "clipped-potential", "lam": scale} if oracle == "1d" else vlasov
        return _solve(2 if oracle == "fd2d" else 1, drift, mode, oracle_compare={"oracle": oracle, **tiny})
    return _solve(1, {"kind": "constant", "h": [scale]} if mode == "solve-linear" else vlasov, mode)


def _run_tiny(doc, out):
    """Run doc, writing to out, and check the exit-code contract; the exit code."""
    doc = {**doc, "output": {"dir": out}}
    path = out + ".json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([doc["mode"], "--config", path])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert not os.path.exists(out)
    if code == 3:
        with open(os.path.join(out, "report.json")) as fh:
            assert "error" in json.load(fh)
    return code


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["solve-linear", "solve-nonlinear", "ladder", "sweep", "oracle-compare", "verify"]),
    scale=st.floats(-100.0, 100.0),
    bound=st.floats(0.0, 100.0),
    iterations=st.integers(1, 30),
    memory=st.sampled_from([0, 1, 5, 20]),
    oracle=st.sampled_from(["1d", "fd2d", "sde"]),
)
def test_tiny_runs_keep_the_exit_code_contract(mode, scale, bound, iterations, memory, oracle):
    """Wide drift scales and budgets down to one iteration, damped or
    Anderson-mixed, reach the solver failures of exit 3, which the config
    fuzzing never does.  verify checks the density of a tiny linear solve
    (C0 = 2 pi bound / 25, below the last finite ball radius, so the
    density is always written) under a Vlasov drift of any scale;
    oracle-compare runs each oracle, the FD and SDE ones at tiny sizes."""
    with tempfile.TemporaryDirectory() as tmp:
        if mode == "verify":
            solved = os.path.join(tmp, "solved")
            assert _run_tiny(_tiny("solve-linear", bound / 25.0, bound), solved) in (0, 1)
            doc = _tiny(mode, scale, bound, density=os.path.join(solved, "density.json"))
        else:
            doc = {**_tiny(mode, scale, bound, oracle=oracle),
                   "fixed_point": {"max_iterations": iterations, "memory": memory}}
        _run_tiny(doc, os.path.join(tmp, "out"))


@pytest.mark.parametrize("oracle", ["fd2d", "sde"])
def test_oracle_compare_exits_3_when_the_fixed_point_fails(tmp_path, oracle):
    doc = {**_tiny("oracle-compare", 2.0, 0.0, oracle=oracle), "fixed_point": {"max_iterations": 1, "memory": 0}}
    assert _run_tiny(doc, str(tmp_path / "out")) == 3


def _density_text(k, degree, coefficients=(1.0,)):
    return json.dumps({"k": k, "N": degree, "ordering": "grlex", "coefficients": list(coefficients)})


# the density files MALFORMED's verify configs read from {tmp}
DENSITY_FILES = {
    "bad.json": "{not json",
    "short.json": _density_text(1, 4, [1.0, 0.0]),
    "high.json": _density_text(1, 12, [1.0] + [0.0] * 12),
    "k2000.json": _density_text(2000, 1),
    "k5000.json": _density_text(5000, 0),
    "list.json": json.dumps([1.0, 0.0]),
    "k-fraction.json": _density_text(1.7, 1, [1.0, 0.0]),
    "k-bool.json": _density_text(True, 1, [1.0, 0.0]),
    "nan.json": _density_text(1, 1, [1.0, math.nan]),
    "infinity.json": _density_text(1, 1, [1.0, math.inf]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, name):
    for file_name, text in DENSITY_FILES.items():
        (tmp_path / file_name).write_text(text)
    doc = json.loads(json.dumps(MALFORMED[name]).replace("{tmp}", str(tmp_path)))
    doc["output"] = {"dir": str(tmp_path / "out")}
    code = main([doc["mode"], "--config", write_config(tmp_path, doc)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not (tmp_path / "out").exists()


# drifts whose C0 (26.6 to 35.5) puts the a-priori radius B(C0) above the
# largest float; each is admitted, and its solve converges
UNBOUNDED_BALL = {
    "vlasov-tanh-5": {**_vlasov(1, {"kind": "tanh", "scale": 5.0}), "N": 16, "Q": 32},
    "vlasov-tanh-4-k2": {**_vlasov(2, {"kind": "tanh", "scale": 4.0}), "N": 8, "Q": 16},
    "clipped-potential-5": {**_solve(1, {"kind": "clipped-potential", "lam": 5.0}), "N": 16, "Q": 32},
    "constant-5": {**_solve(1, {"kind": "constant", "h": [5.0]}), "N": 12, "Q": 24},
    "rotational-9": {**_solve(2, {"kind": "rotational", "scale": 9.0}), "N": 10, "Q": 20},
    "componentwise-tanh-3": {**_solve(2, {"kind": "componentwise-tanh", "scale": 3.0, "n_components": 2}), "N": 8,
                             "Q": 16},
}


@pytest.mark.parametrize("name", sorted(UNBOUNDED_BALL))
def test_a_ball_radius_beyond_the_float_range_passes_with_right_null(tmp_path, name):
    """sum c^2 is finite and B(C0) exceeds every float, so the ball bound
    holds: the l2_ball entry passes with right null, and the run does not
    exit 3 after its solve."""
    out = tmp_path / "out"
    cfg = {**UNBOUNDED_BALL[name], "output": {"dir": str(out)}}
    code = main([cfg["mode"], "--config", write_config(tmp_path, cfg)])
    report = json.loads((out / "report.json").read_text(), parse_constant=_refuse_non_finite)
    ball = next(b for b in report["bounds"] if b["name"] == "l2_ball")
    assert code != 3 and "error" not in report
    assert ball["pass"] is True and ball["right"] is None and ball["left"] >= 1.0


# a valid config of each mode without the keys it may leave out, and a valid
# value of every top-level key some mode reads
MINIMAL_MODES = {
    "solve-linear": {"drift": CONSTANT},
    "solve-nonlinear": {"drift": {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.2}}},
    "ladder": {"drift": COMPONENTWISE, "ladder": LADDER},
    "sweep": {"sweep": {"family": "constant-scale", "values": [0.1]}},
    "verify": {"drift": CONSTANT, "verify": {"density": "rho.json"}},
    "oracle-compare": {"drift": CONSTANT, "oracle_compare": {"oracle": "1d"}},
}
KEY_VALUES = {**{key: value for doc in MINIMAL_MODES.values() for key, value in doc.items()},
              "k": 1, "N": 4, "Q": 16, "seed": 3, "fixed_point": {"memory": 0}, "output": {"dir": "out"}}


@pytest.mark.parametrize("key", sorted(set().union(*MODE_KEYS.values())))
@pytest.mark.parametrize("mode", MODES)
def test_each_mode_reads_exactly_its_declared_keys(mode, key):
    doc = {key: KEY_VALUES[key], "mode": mode, **MINIMAL_MODES[mode]}
    if key in MODE_KEYS[mode]:
        assert parse_config(doc)["mode"] == mode
    else:
        with pytest.raises(ConfigError, match=re.escape(f"unknown key(s) [{key!r}] in config of mode {mode!r}")):
            parse_config(doc)


@pytest.mark.parametrize("mode", MODES)
def test_the_parsed_config_is_the_read_document(mode):
    """parse_config returns the values the mode reads under the document's
    own names, each key left out at its declared default, plus the mode, the
    document and, for the ladder, the drift of each level."""
    doc = {"mode": mode, **MINIMAL_MODES[mode]}
    config = parse_config(doc)
    assert set(config) == {*MODE_KEYS[mode], "mode", "raw", *(["ladder_drifts"] if mode == "ladder" else [])}
    assert config["mode"] == mode and config["raw"] is doc
    for param in MODE_PARAMS[mode].params:
        if param.name not in doc and isinstance(param.type, str):
            assert config[param.name] == param.default
    assert config["output"] == {}
    defaults = {"sweep": FixedPointOptions(damping=1.0), "ladder": FixedPointOptions(max_iterations=200)}
    if "fixed_point" in config:
        assert config["fixed_point"] == defaults.get(mode, FixedPointOptions())
    if "Q" in config:
        assert config["Q"] == 0 and [quad_order(config, n) for n in (0, 1, 8)] == [1, 2, 16]
    if mode == "ladder":
        assert isinstance(config["ladder"], LadderConfig) and config["ladder"].fixed_point == config["fixed_point"]
        assert sorted(config["ladder_drifts"]) == list(config["ladder"].levels)
    assert config.get("sweep", {"family": "constant-scale"})["family"] == "constant-scale"
    assert config.get("oracle_compare", {"oracle": "1d"})["oracle"] == "1d"


@pytest.mark.parametrize("flag", ["-3", "0", "2"])  # 2: only sweep runs on more than one thread
def test_bad_thread_count_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "out"
    argv = ["solve-linear", "--config", write_config(tmp_path, linear_config(str(out))), "--threads", flag]
    code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_parses_to_its_run(monkeypatch, mode):
    """The one parser hands the mode, the config path and every flag on."""
    import gfpk.cli

    seen = []
    monkeypatch.setattr(gfpk.cli, "load_config", lambda path, seed: seen.append((path, seed)) or {"mode": mode})
    monkeypatch.setattr(gfpk.cli, "run", lambda config, out_dir, threads: seen.append((config["mode"], out_dir, threads)) or 0)
    assert main([mode, "--config", "cfg.json", "--out", "dir", "--seed", "7", "--threads", "2"]) == 0
    assert seen == [("cfg.json", 7), (mode, "dir", 2)]


@pytest.mark.parametrize("argv", [["no-such-mode", "--config", "cfg.json"], ["ladder"]], ids=["unknown-mode", "no-config"])
def test_bad_command_line_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and capsys.readouterr().err.startswith("usage: gfpk")
