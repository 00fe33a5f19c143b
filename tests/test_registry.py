"""The drift/kernel registry: round trips from config blocks to fields, the
README tables that document it, and config fuzzing against the rule that
every rejected input is a ConfigError."""
import copy
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gfpk import ConfigError, PointMeasure, enumerate_basis, parse_config, tensor_grid
from gfpk.config import MODE_KEYS, MODE_PARAMS, MODES, ORACLES, SWEEPS, quad_order, sweep_drift
from gfpk.drift import DRIFTS, KERNELS, drift_from_block
from gfpk.schema import REQUIRED, read_kind

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# smallest valid block of each kind at k = 2
MINIMAL_DRIFTS = {
    "constant": {"h": [0.3, -0.1]},
    "clipped-potential": {"lam": 0.5},
    "rotational": {"scale": 0.3},
    "vlasov": {"kernel": {"kind": "tanh", "scale": 0.4}},
    "componentwise-tanh": {"scale": 0.5, "n_components": 2},
    "componentwise-decoupled-tanh": {"scale": 0.5, "n_components": 2},
}
MINIMAL_KERNELS = {
    "constant": {"h": [0.2, 0.1]},
    "tanh": {"scale": 0.4},
    "gaussian-lobe": {"scale": 0.4},
    "clipped-linear": {"scale": 2.0, "cap": 0.3},
}


def _blocks():
    for kind, params in MINIMAL_DRIFTS.items():
        yield {"kind": kind, **params}
    for kind, params in MINIMAL_KERNELS.items():
        yield {"kind": "vlasov", "kernel": {"kind": kind, **params}}


def _cloud(seed):
    rng = np.random.default_rng(seed)
    return PointMeasure(points=rng.normal(0.5, 1.0, (40, 2)), masses=np.full(40, 1 / 40), clip_defect=0.0)


def test_every_kind_has_a_minimal_block():
    assert set(MINIMAL_DRIFTS) == set(DRIFTS)
    assert set(MINIMAL_KERNELS) == set(KERNELS)


def _block_id(block):
    return f"vlasov-{block['kernel']['kind']}" if "kernel" in block else block["kind"]


@pytest.mark.parametrize("block", list(_blocks()), ids=_block_id)
def test_minimal_block_round_trip(block):
    mode = "solve-nonlinear" if drift_from_block(block, 2).reads_measure else "solve-linear"
    cfg = parse_config({"mode": mode, "k": 2, "N": 4, "Q": 8, "drift": block})
    v = drift_from_block(cfg["drift"], 2)
    assert v.k == 2
    assert 0.0 <= v.h_bound < math.inf
    assert v.component_bound is None or 0.0 <= v.component_bound <= v.h_bound
    x = np.random.default_rng(0).standard_normal((25, 2))
    if not v.reads_measure:
        assert np.array_equal(v.eval_v(_cloud(1), x), v.eval_v(_cloud(2), x))


# -- the README tables ------------------------------------------------------


def _cells(line):
    return [c.strip() for c in line.strip().strip("|").split("|")]


def _table_rows(first_cell):
    with open(README) as fh:
        cells = [_cells(line) for line in fh if line.startswith("|")]
    return [c for c in cells if c[0].startswith(first_cell)]


def _table(header):
    """The body rows of the README table whose header cells are `header`."""
    with open(README) as fh:
        lines = [line.strip() for line in fh]
    start = [_cells(line) if line.startswith("|") else None for line in lines].index(header)
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append(_cells(line))
    return rows


def _param_row(block, kind, p):
    kernel = isinstance(p.type, dict)
    if kernel or p.type == "bool":
        span = "-"
    else:
        span = f"[{p.low:g}, {p.high:g}]"
    if p.default is REQUIRED:
        default = "required"
    else:
        default = "optional" if p.default is None else json.dumps(p.default)
    return [f"{block} `{kind}`", f"`{p.name}`", "kernel block" if kernel else p.type, span, default]


def test_readme_parameter_table_matches_registry():
    expected = [
        _param_row(block, kind, p)
        for block, registry in (("drift", DRIFTS), ("kernel", KERNELS))
        for kind, entry in registry.items()
        for p in entry.params
    ]
    documented = _table_rows("drift `") + _table_rows("kernel `")
    assert documented == expected


def test_readme_oracle_table_matches_config():
    expected = [_param_row("oracle", which, p) for which, entry in ORACLES.items() for p in entry.params]
    assert _table_rows("oracle `") == expected


def test_readme_sweep_table_matches_config():
    expected = [_param_row("sweep", family, p) for family, entry in SWEEPS.items() for p in entry.params]
    assert _table_rows("sweep `") == expected


def test_readme_mode_keys_table_matches_config():
    rows = _table(["mode", "keys it reads besides `mode`"])
    documented = {row[0].strip("`"): re.findall(r"`([^`]+)`", row[1]) for row in rows}
    assert documented == {mode: list(keys) for mode, keys in MODE_KEYS.items()}


def test_readme_report_entries_table_matches_a_run(tmp_path):
    """The certificate entries of two real solve-linear reports, one whose
    Fisher functional runs (h = 0.3) and one that skips it (h = 3, N = 2)."""
    from gfpk.cli import main

    keys = {"bounds": set(), "residuals": set(), "monitored": set()}
    for h, degree in ((0.3, 12), (3.0, 2)):
        out = tmp_path / f"h{h}"
        doc = {"mode": "solve-linear", "k": 1, "N": degree, "drift": {"kind": "constant", "h": [h]},
               "output": {"dir": str(out)}}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert main(["solve-linear", "--config", str(tmp_path / "cfg.json")]) in (0, 1)
        report = json.loads((out / "report.json").read_text())
        assert [b["name"] for b in report["bounds"]] == ["l2_ball", "tail"]
        assert report["monitored"]["fisher_skipped"] is (h == 3.0)
        for bound in report["bounds"]:
            keys["bounds"].update(bound)
        keys["residuals"].update(report["residuals"])
        keys["monitored"].update(report["monitored"])
    rows = _table(["report entry", "its keys"])
    documented = {re.findall(r"`([^`]+)`", row[0])[0]: re.findall(r"`([^`]+)`", row[1]) for row in rows}
    assert {entry: set(names) for entry, names in documented.items()} == keys
    assert all(len(names) == len(set(names)) for names in documented.values())


# the functions a bound cell of the drift-kind table names; an absent vector has norm 0
BOUND_CELL_FUNCTIONS = {"abs": np.abs, "max": np.max, "sqrt": math.sqrt,
                        "norm": lambda a: 0.0 if a is None else np.linalg.norm(a)}


def _bound_cell(cell, params, k):
    """A bound cell's value at params and k: None for "none", else its formula."""
    return None if cell == "none" else pytest.approx(eval(cell.strip("`"), BOUND_CELL_FUNCTIONS, {**params, "k": k}))


def test_readme_kind_table_matches_registry():
    """The "reads the measure" cell is yes or no, or names the bool parameter
    that makes the field read it.  The bound cells are formulas in the
    parameters and k, or "none"; a Vlasov drift states its kernel's bounds,
    with the H bound sqrt(k) times the componentwise one where the kernel
    states none."""
    documented = {row[0]: row[1:4] for row in _table_rows("`") if row[0].strip("`") in DRIFTS}
    assert set(documented) == {f"`{kind}`" for kind in DRIFTS}
    for kind, params in MINIMAL_DRIFTS.items():
        v = drift_from_block({"kind": kind, **params}, 2)
        switches = [f"with `{p.name}`" for p in DRIFTS[kind].params
                    if p.type == "bool" and drift_from_block({"kind": kind, **params, p.name: True}, 2).reads_measure]
        reads, component, h = documented[f"`{kind}`"]
        assert reads == ("yes" if v.reads_measure else " or ".join(switches) or "no")
        if kind == "vlasov":
            assert [component, h] == ["the kernel's", "the kernel's"]
            continue
        blocks = [{"kind": kind, **params}] + [{"kind": kind, **params, "offset": [0.1, -0.2]}] * (kind == "rotational")
        for block in blocks:
            # an absent optional parameter (rotational's offset) is None
            named = {p.name: None for p in DRIFTS[kind].params} | read_kind(block, DRIFTS, "drift", 2)[1]
            v = drift_from_block(block, 2)
            assert (v.component_bound, v.h_bound) == (_bound_cell(component, named, 2), _bound_cell(h, named, 2))
    for kind, params in MINIMAL_KERNELS.items():
        block = {"kind": "vlasov", "kernel": {"kind": kind, **params}}
        v, kernel = drift_from_block(block, 2), read_kind(block, DRIFTS, "drift", 2)[1]["kernel"]
        assert v.component_bound == kernel.component_bound
        assert v.h_bound == (kernel.component_bound * math.sqrt(2) if kernel.h_bound is None else kernel.h_bound)


def test_readme_fixed_point_defaults_match_config():
    rows = _table(["mode", "`damping`", "`tolerance`", "`max_iterations`", "`memory`"])
    documented = {row[0].strip("`"): row[1:] for row in rows}
    expected = {
        mode: [f"{p.default:g}" for p in block.type]
        for mode, entry in MODE_PARAMS.items()
        for block in entry.params
        if block.name == "fixed_point"
    }
    assert documented == expected


# -- config fuzzing ----------------------------------------------------------

VALID = [
    {"mode": "solve-linear", "k": 1, "N": 6, "Q": 12, "drift": {"kind": "constant", "h": [0.3]}},
    {"mode": "solve-linear", "k": 2, "N": 4, "drift": {"kind": "rotational", "scale": 0.3, "offset": [0.2, 0.0]}},
    {"mode": "solve-linear", "k": 2, "N": 4, "drift": {"kind": "rotational", "scale": 0.3}},
    {"mode": "solve-nonlinear", "k": 2, "N": 4, "Q": 8,
     "drift": {"kind": "vlasov", "kernel": {"kind": "constant", "h": [0.1, 0.2]}},
     "fixed_point": {"damping": 0.5, "tolerance": 1e-9, "max_iterations": 50}},
    {"mode": "solve-nonlinear", "k": 1, "N": 4,
     "drift": {"kind": "vlasov", "kernel": {"kind": "clipped-linear", "scale": 2.0, "cap": 0.3}}},
    {"mode": "ladder",
     "drift": {"kind": "componentwise-tanh", "scale": 0.5, "n_components": 3, "mean_shift": True},
     "ladder": {"weights": [0.25, 0.0625, 0.015625], "component_bound": 0.5, "levels": [1, 2, 3],
                "degrees": [4, 3, 2], "quad_orders": [6, 5, 4], "tail_levels": [1.0, 2.0]}},
    {"mode": "sweep", "k": 2, "N": 4, "sweep": {"family": "constant-scale", "values": [0.1, 0.2],
                                                 "direction": [1.0, 0.5]}},
    {"mode": "sweep", "k": 1, "N": 4, "sweep": {"family": "vlasov-tanh-scale", "values": [0.3]}},
    {"mode": "oracle-compare", "k": 2, "N": 4, "drift": {"kind": "clipped-potential", "lam": 0.5},
     "oracle_compare": {"oracle": "fd2d", "n_cells": 41, "span": 6.0, "tolerance": 1e-2}},
    {"mode": "oracle-compare", "k": 1, "N": 4, "drift": {"kind": "componentwise-decoupled-tanh",
                                                         "scale": 0.5, "n_components": 1},
     "oracle_compare": {"oracle": "sde", "dt": 0.005, "n_steps": 100, "n_particles": 100}},
    {"mode": "verify", "drift": {"kind": "constant", "h": [0.3]}, "verify": {"density": "rho.json"}},
]

KIND_NAMES = sorted(set(DRIFTS) | set(KERNELS)) + ["bogus"]
leaves = st.one_of(
    st.integers(min_value=-1, max_value=9),
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=600),
    st.integers(),
    st.floats(),
    st.sampled_from(KIND_NAMES + list(MODES)),
    st.text(max_size=3),
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """The key path of every value nested in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(data, doc):
    doc = copy.deepcopy(doc)
    if data.draw(st.booleans()):  # the dimension, degree or quadrature order
        doc[data.draw(st.sampled_from(["k", "N", "Q"]))] = data.draw(st.integers(-1, 9) | st.integers(-1, 600))
    for _ in range(data.draw(st.integers(0, 2))):
        paths = list(_paths(doc))
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = data.draw(st.sampled_from(["set", "kind", "delete", "resize", "add"]))
        if action == "set":
            parent[key] = data.draw(json_values)
        elif action == "kind":
            parent[key] = data.draw(st.sampled_from(KIND_NAMES))
        elif action == "delete" and isinstance(parent, dict):
            del parent[key]
        elif action == "resize" and isinstance(parent[key], list):
            value = parent[key]
            parent[key] = value[:-1] if data.draw(st.booleans()) else value + value[-1:]
        elif action == "add" and isinstance(parent, dict):
            parent[data.draw(st.sampled_from(["kind", "k", "N", "Q", "extra", "n_points"]))] = data.draw(
                json_values
            )
    return doc


def _build(cfg):
    """Everything a run builds from the config before its first solve."""
    if cfg["mode"] == "verify":
        return
    if cfg["mode"] == "ladder":
        assert drift_from_block(cfg["drift"], cfg["ladder"].levels[-1]).k == cfg["ladder"].levels[-1]
        for k, degree, q in zip(cfg["ladder"].levels, cfg["ladder"].degrees, cfg["ladder"].quad_orders):
            enumerate_basis(k, degree)
            tensor_grid(q, k)
        return
    enumerate_basis(cfg["k"], cfg["N"])
    tensor_grid(quad_order(cfg, cfg["N"]), cfg["k"])
    if cfg["mode"] == "sweep":
        blocks = [sweep_drift(cfg["sweep"], cfg["k"], u) for u in cfg["sweep"]["values"]]
    else:
        blocks = [cfg["drift"]]
    for block in blocks:
        assert drift_from_block(block, cfg["k"]).k == cfg["k"]


def test_ladder_component_bound_below_the_drift_is_a_config_error():
    doc = {
        "mode": "ladder",
        "drift": {"kind": "componentwise-tanh", "scale": 2.0, "n_components": 2},
        "ladder": {"weights": [0.25, 0.0625], "component_bound": 0.1, "levels": [1, 2],
                   "degrees": [5, 4], "quad_orders": [6, 6]},
    }
    with pytest.raises(ConfigError, match="component_bound=0.1 is below"):
        parse_config(doc)
    doc["drift"] = {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.5}}
    with pytest.raises(ConfigError, match="component_bound=0.1 is below the drift's bound 0.5"):
        parse_config(doc)
    # a rotational drift bounds only |v|_H, so no C certifies it
    rotational = {**doc, "drift": {"kind": "rotational", "scale": 0.1},
                  "ladder": {**doc["ladder"], "levels": [2], "degrees": [4], "quad_orders": [6]}}
    with pytest.raises(ConfigError, match="componentwise-bounded drift; a rotational drift bounds only"):
        parse_config(rotational)
    # the Vlasov tanh drift and the clipped potential within C, once refused as H-bounded, are admitted
    for drift, bound in (({"kind": "vlasov", "kernel": {"kind": "tanh", "scale": 0.05}}, 0.05),
                         ({"kind": "clipped-potential", "lam": 0.1}, 0.1)):
        drifts = parse_config({**doc, "drift": drift})["ladder_drifts"]
        assert [v.component_bound for v in drifts.values()] == [bound, bound]


@pytest.mark.parametrize("doc", VALID, ids=lambda d: d["mode"])
def test_fuzz_base_configs_are_valid(doc):
    _build(parse_config(doc))


def test_every_dimension_is_rejected_or_built():
    for doc in VALID:
        for k in range(-1, 10):
            try:
                _build(parse_config({**doc, "k": k}))
            except ConfigError:
                pass


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_config_fuzz_rejects_only_with_config_error(data):
    doc = _mutate(data, data.draw(st.sampled_from(VALID)))
    try:
        _build(parse_config(doc))
    except ConfigError:
        pass
