"""Strict run-configuration parsing for the batch front door.

Configs are JSON documents with a fixed schema: each mode declares the keys
it reads, and a key the mode does not read or an out-of-range value aborts
before any computation.  The parsed config is the read document under its
own key names and carries everything a mode needs, so a run is a pure
function of (config, seed).
"""
from __future__ import annotations

import json
import math
from dataclasses import replace

from .basis import BASIS_CAP
from .drift import DRIFTS, drift_from_block
from .errors import ConfigError
from .ladder import LadderConfig
from .nonlinear import FixedPointOptions
from .oracles import SDE_BATCHES
from .schema import REQUIRED, Kind, Param, read_kind

# a tensor rule with more nodes than this is not built from a config
MAX_GRID_NODES = 1_000_000


def _fixed_point(damping: float = 0.5, max_iterations: int = 100) -> Param:
    """The fixed_point block with a mode's defaults."""
    return Param("fixed_point", (
        Param("damping", "number", 1e-6, 1.0, damping),
        Param("tolerance", "number", 1e-16, 1.0, 1e-10),
        Param("max_iterations", "integer", 1, 100_000, max_iterations),
        Param("memory", "integer", 0, 20, 5),
    ), default={})


_LADDER = (
    Param("weights", "numbers", 1e-12, 1e6),
    Param("component_bound", "number", 0.0, 100.0),
    Param("levels", "integers", 1, 8),
    Param("degrees", "integers", 2, 64),
    Param("quad_orders", "integers", 1, 512),
    Param("tail_levels", "numbers", 0.0, 1e6, [1.0, 2.0, 4.0]),
)
_SIZES = (Param("k", "integer", 1, 8, 1), Param("N", "integer", 0, 64, 8), Param("Q", "integer", 0, 512, 0))
# the density file verify reads (ChaosDensity.to_json_dict), its k and N in the config's ranges
DENSITY_FILE = (*(replace(p, default=REQUIRED) for p in _SIZES[:2]),
                Param("ordering", "text", choices=("grlex",)), Param("coefficients", "numbers"))
_DRIFT = Param("drift", "object")
_COMMON = (Param("seed", "integer", 0, 2**64 - 1, 0), Param("output", (Param("dir", "text", default=None),), default={}))
_SOLVE = (*_SIZES, _DRIFT, _fixed_point())

_VALUES = Param("values", "numbers", -100.0, 100.0)

# each sweep family builds the map u -> drift block of its points
SWEEPS = {
    "constant-scale": Kind(
        (_VALUES, Param("direction", "vector", -100.0, 100.0, None)),
        lambda q, k: lambda u: {"kind": "constant", "h": [u * d for d in q.get("direction") or [1.0] + [0.0] * (k - 1)]},
    ),
    "vlasov-tanh-scale": Kind((_VALUES,), lambda q, k: lambda u: {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": u}}),
}


def _oracle(dim, tolerance, *params) -> Kind:
    """An oracle_compare entry: the default tolerance (in standard errors for
    sde), the other keys it reads besides "oracle", and its one k (None: any)."""
    return Kind((Param("tolerance", "number", 0.0, 1e6, tolerance),) + params,
                dims=lambda q, k: "" if dim in (None, k) else f"requires k = {dim}")


ORACLES = {
    "1d": _oracle(1, 1e-6, Param("span", "number", 1.0, 100.0, 10.0)),
    "fd2d": _oracle(2, 5e-3, Param("span", "number", 1.0, 100.0, 6.0), Param("n_cells", "integer", 8, 1000, 161)),
    "sde": _oracle(None, 3.0, Param("dt", "number", 1e-6, 0.01, 5e-3), Param("n_steps", "integer", 10, 10_000_000, 2000),
                   Param("n_particles", "integer", 50, 1_000_000, 500)),
}


def check_sizes(context: str, k: int, degree: int, quad_order: int):
    """Reject a (k, N, Q) the solver cannot run: Q < N + 1, a basis above
    the size cap or a tensor grid above MAX_GRID_NODES."""
    if quad_order < degree + 1:
        raise ConfigError(f"{context}: Q={quad_order} must be at least N+1={degree + 1}")
    if math.comb(degree + k, k) > BASIS_CAP:
        raise ConfigError(f"{context}: the basis of k={k}, N={degree} exceeds {BASIS_CAP} elements")
    if quad_order**k > MAX_GRID_NODES:
        raise ConfigError(f"{context}: the grid of k={k}, Q={quad_order} exceeds {MAX_GRID_NODES} nodes")


def sweep_drift(sweep: dict, k: int, u) -> dict:
    """The drift block of the sweep point with parameter value u."""
    return SWEEPS[sweep["family"]].build(sweep, k)(u)


def quad_order(config: dict, degree: int) -> int:
    """The configured Q, else the default max(2N, N + 1) for degree N."""
    return config["Q"] or max(2 * degree, degree + 1)


def _sized(top: dict, k: int) -> dict:
    check_sizes("config", k, top["N"], quad_order(top, top["N"]))
    return top


def _solve(top: dict, k: int) -> dict:
    read_kind(top["drift"], DRIFTS, "drift", k)
    return _sized(top, k)


def _ladder(top: dict, k) -> dict:
    """top with the LadderConfig and the drift of each level, built once (ladder_drifts)."""
    q = top["ladder"]
    q["component_bound"] = float(q["component_bound"])  # ladder.json prints a float
    try:
        ladder = LadderConfig(fixed_point=top["fixed_point"], **q)
        for level, degree, order in zip(ladder.levels, ladder.degrees, ladder.quad_orders):
            check_sizes(f"ladder level k={level}", level, degree, order)
        drifts = {level: drift_from_block(top["drift"], level) for level in ladder.levels}
        for v in drifts.values():
            ladder.check_drift(v)
    except ValueError as exc:
        raise ConfigError(f"ladder: {exc}") from exc
    return {**top, "ladder": ladder, "ladder_drifts": drifts}


def _sweep(top: dict, k: int) -> dict:
    block = top["sweep"]
    sweep = top["sweep"] = {"family": block.get("family"), **read_kind(block, SWEEPS, "sweep", k, key="family")[1]}
    for u in sweep["values"]:
        read_kind(sweep_drift(sweep, k, u), DRIFTS, f"sweep point {u!r}: drift", k)
    return _sized(top, k)


def _verify(top: dict, k: int) -> dict:
    read_kind(top["drift"], DRIFTS, "drift")  # at the density's k in cli._read_density
    return top


def _oracle_compare(top: dict, k: int) -> dict:
    read_kind(top["drift"], DRIFTS, "drift", k)
    block = top["oracle_compare"]
    oracle = top["oracle_compare"] = {"oracle": block.get("oracle"), **read_kind(block, ORACLES, "oracle_compare", k, key="oracle")[1]}
    if oracle["oracle"] == "sde" and oracle["n_particles"] % SDE_BATCHES:
        raise ConfigError(f"oracle_compare.n_particles must be a multiple of {SDE_BATCHES}")
    return _sized(top, k)


# each mode's entry declares the top-level keys it reads besides "mode" (a
# config with any other key is rejected), and its build runs the mode's
# cross-field checks on the values read and their k
MODE_PARAMS = {
    "solve-linear": Kind(_SOLVE + _COMMON, _solve),
    "solve-nonlinear": Kind(_SOLVE + _COMMON, _solve),
    "ladder": Kind((_DRIFT, _fixed_point(max_iterations=200), Param("ladder", _LADDER)) + _COMMON, _ladder),
    "sweep": Kind((*_SIZES, _fixed_point(damping=1.0), Param("sweep", "object")) + _COMMON, _sweep),
    "verify": Kind((*_SIZES, _DRIFT, Param("verify", (Param("density", "text"),))) + _COMMON, _verify),  # k, N must match the density
    "oracle-compare": Kind(_SOLVE + (Param("oracle_compare", "object"),) + _COMMON, _oracle_compare),
}
MODES = tuple(MODE_PARAMS)
MODE_KEYS = {mode: tuple(p.name for p in entry.params) for mode, entry in MODE_PARAMS.items()}


def parse_config(doc: dict) -> dict:
    """{"mode", "raw": doc, **values}: the values of the document its mode's
    MODE_PARAMS entry reads (strict on keys) and builds, under its own names."""
    entry, top = read_kind(doc, MODE_PARAMS, "config", key="mode")
    if "fixed_point" in top:
        top["fixed_point"] = FixedPointOptions(**top["fixed_point"])
    return {"mode": doc["mode"], "raw": doc, **entry.build(top, top.get("k"))}


def load_config(path: str, seed: int | None = None) -> dict:
    """Read and parse the config file at path; a seed given here replaces
    the document's before the one parse."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if seed is not None and isinstance(doc, dict):  # parse_config rejects any other document
        doc["seed"] = seed
    return parse_config(doc)
