"""Config parsing, mode dispatch, artifacts and the exit-code contract."""
import json
import math
import time

import numpy as np
import pytest

from gfpk import ChaosDensity, ConfigError, load_config, parse_config
from gfpk.cli import DEFAULT_BUMP_CENTERS, main


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
    assert len(report["residuals"]["bumps"]) == len(DEFAULT_BUMP_CENTERS)
    assert report["residuals"]["bump_pass"]
    assert elapsed < 30.0


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
