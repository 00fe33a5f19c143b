"""Config parsing, mode dispatch, artifacts and the exit-code contract."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfpk import ChaosDensity, ConfigError, load_config, parse_config
from gfpk.cli import DEFAULT_BUMP_CENTERS, default_bumps, main


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
    assert cfg.mode == "solve-linear"
    assert cfg.effective_quad_order == 24


def test_default_quadrature_order():
    cfg = parse_config(
        {"mode": "solve-linear", "k": 1, "N": 10, "drift": {"kind": "constant", "h": [0.1]}}
    )
    assert cfg.effective_quad_order == 20


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


HEAVY_SCIPY = ("scipy.signal", "scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special", "scipy.stats")


@pytest.mark.parametrize("module", ["gfpk.cli", "gfpk"])
def test_import_loads_no_heavy_scipy_subpackage(module):
    """Every CLI call pays for this import: numpy and scipy.linalg.lapack
    only; the oracles and the level-set mass import the rest on first use."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert module in loaded
    assert [m for m in HEAVY_SCIPY if m in loaded] == []


def test_malformed_config_exit_2_no_outputs(tmp_path):
    cfg = linear_config(str(tmp_path / "should_not_exist"))
    cfg["bogus"] = True
    code = main(["solve-linear", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert not (tmp_path / "should_not_exist").exists()


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
    grid; re-reading p on the 201^2-node bump grid took minutes."""
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


def test_a_check_that_cannot_run_keeps_the_artifacts(tmp_path, capsys):
    # the l2_ball certificate has no finite radius at C0 = 35.5: exit 3, but
    # the converged density and its trace are written first
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
    config builds and sample-validates its deepest drift at parse time."""
    import gfpk.cli
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


def test_oracle_compare_sde_reads_the_density_once(tmp_path, monkeypatch):
    """After the fixed point, the solved density is read as a measure once;
    the SDE oracle's steps reuse that measure instead of re-reading it."""
    import gfpk.density

    calls = []
    original = gfpk.density.as_measure

    def counted(name):
        def as_measure(rho, grid):
            calls.append(name)
            return original(rho, grid)

        return as_measure

    for name, module in list(sys.modules.items()):
        if name.startswith("gfpk") and getattr(module, "as_measure", None) is original:
            monkeypatch.setattr(module, "as_measure", counted(name))
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
    "q-below-n-plus-1": {**_solve(1, CONSTANT), "N": 64, "Q": 8},
    "basis-above-cap": {**_solve(8, {"kind": "clipped-potential", "lam": 0.5}), "N": 20, "Q": 21},
    "grid-above-cap": {**_solve(4, {"kind": "clipped-potential", "lam": 0.5}), "Q": 40},
    "verify-missing-density": _verify("{tmp}/missing.json"),
    "verify-unreadable-density": _verify("{tmp}/bad.json"),
    "verify-wrong-coefficient-count": _verify("{tmp}/short.json"),
    "verify-q-below-density-degree": {**_verify("{tmp}/high.json"), "Q": 8},
    "verify-k-differs-from-density": {**_verify("{tmp}/high.json"), "k": 2},
    "verify-with-fixed-point": {**_verify("{tmp}/high.json"), "fixed_point": {"damping": 0.5}},
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
    oracle-compare runs `oracle` at a tiny size."""
    if mode == "ladder":
        return _ladder(drift={"scale": scale}, component_bound=bound, degrees=[4, 3, 2], quad_orders=[5, 4, 3])
    if mode == "sweep":
        return {"mode": "sweep", "k": 1, "N": 4, "sweep": {"family": "vlasov-tanh-scale", "values": [scale]}}
    vlasov = {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": scale}}
    if mode == "verify":
        return {"mode": "verify", "k": 1, "drift": vlasov, "verify": {"density": density}}
    if mode == "oracle-compare":
        tiny = {"1d": {}, "fd2d": {"n_cells": 12}, "sde": {"n_steps": 10, "n_particles": 50}}[oracle]
        drift = {"kind": "clipped-potential", "lam": scale}
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


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, name):
    (tmp_path / "bad.json").write_text("{not json")
    short = {"k": 1, "N": 4, "ordering": "grlex", "coefficients": [1.0, 0.0]}
    (tmp_path / "short.json").write_text(json.dumps(short))
    high = {"k": 1, "N": 12, "ordering": "grlex", "coefficients": [1.0] + [0.0] * 12}
    (tmp_path / "high.json").write_text(json.dumps(high))
    doc = json.loads(json.dumps(MALFORMED[name]).replace("{tmp}", str(tmp_path)))
    doc["output"] = {"dir": str(tmp_path / "out")}
    code = main([doc["mode"], "--config", write_config(tmp_path, doc)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, env",
    [
        (None, "abc"),
        (None, "2.5"),
        (None, "0"),
        (None, "-1"),
        ("-3", None),
        ("0", None),
        ("0", "4"),
    ],
)
def test_bad_thread_count_exits_2(tmp_path, capsys, monkeypatch, flag, env):
    if env is None:
        monkeypatch.delenv("GFPK_THREADS", raising=False)
    else:
        monkeypatch.setenv("GFPK_THREADS", env)
    out = tmp_path / "out"
    argv = ["solve-linear", "--config", write_config(tmp_path, linear_config(str(out)))]
    if flag is not None:
        argv += ["--threads", flag]
    code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not out.exists()


def test_thread_flag_overrides_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GFPK_THREADS", "abc")
    argv = ["solve-linear", "--config", write_config(tmp_path, linear_config(str(tmp_path / "out")))]
    assert main(argv + ["--threads", "2"]) == 0
