"""The drift/kernel registry: round trips from config blocks to fields, the
README tables that document it, and config fuzzing against the rule that
every rejected input is a ConfigError."""
import copy
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gfpk import ConfigError, PointMeasure, enumerate_basis, parse_config, tensor_grid
from gfpk.config import MODES, fixed_point_params, sweep_drift
from gfpk.drift import DRIFTS, KERNELS, drift_from_block
from gfpk.schema import REQUIRED

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
    mode = "solve-nonlinear" if DRIFTS[block["kind"]].reads_measure else "solve-linear"
    cfg = parse_config({"mode": mode, "k": 2, "N": 4, "Q": 8, "drift": block})
    v, reads_measure = drift_from_block(cfg.drift, 2)
    entry = DRIFTS[block["kind"]]
    assert v.k == 2
    assert reads_measure is entry.reads_measure
    assert v.bound_kind == entry.bound
    x = np.random.default_rng(0).standard_normal((25, 2))
    if not reads_measure:
        assert np.array_equal(v.eval_v(_cloud(1), x), v.eval_v(_cloud(2), x))


# -- the README tables ------------------------------------------------------


def _table_rows(first_cell):
    with open(README) as fh:
        rows = [line.strip() for line in fh if line.startswith("|")]
    cells = [[c.strip() for c in row.strip("|").split("|")] for row in rows]
    return [c for c in cells if c[0].startswith(first_cell)]


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


def test_readme_kind_table_matches_registry():
    documented = {row[0]: row[1:3] for row in _table_rows("`") if row[0].strip("`") in DRIFTS}
    expected = {
        f"`{kind}`": ["yes" if e.reads_measure else "no", e.bound] for kind, e in DRIFTS.items()
    }
    assert documented == expected


def test_readme_fixed_point_defaults_match_config():
    documented = {row[0].strip("`"): row[1:] for row in _table_rows("`") if row[0].strip("`") in MODES}
    expected = {mode: [f"{p.default:g}" for p in fixed_point_params(mode)] for mode in MODES}
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
    if cfg.mode == "verify":
        return
    if cfg.mode == "ladder":
        assert drift_from_block(cfg.drift, cfg.ladder.levels[-1])[0].k == cfg.ladder.levels[-1]
        for k, degree, q in zip(cfg.ladder.levels, cfg.ladder.degrees, cfg.ladder.quad_orders):
            enumerate_basis(k, degree)
            tensor_grid(q, k)
        return
    enumerate_basis(cfg.k, cfg.degree)
    tensor_grid(cfg.effective_quad_order, cfg.k)
    if cfg.mode == "sweep":
        blocks = [sweep_drift(cfg.sweep, cfg.k, u) for u in cfg.sweep["values"]]
    else:
        blocks = [cfg.drift]
    for block in blocks:
        assert drift_from_block(block, cfg.k)[0].k == cfg.k


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
