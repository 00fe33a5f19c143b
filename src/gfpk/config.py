"""Strict run-configuration parsing for the batch front door.

Configs are JSON documents with a fixed schema: a key the mode does not
read and an out-of-range value abort before any computation.  The parsed
RunConfig carries everything a mode needs, so a run is a pure function of
(config, seed).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .basis import BASIS_CAP
from .drift import DRIFTS, drift_from_block
from .errors import ConfigError
from .ladder import LadderConfig
from .nonlinear import FixedPointOptions
from .oracles import SDE_BATCHES
from .schema import Kind, Param, read_block, read_kind

# the top-level keys every mode reads, and those each mode reads besides;
# a config with any other key is rejected
COMMON_KEYS = ("mode", "seed", "output")
_SOLVE_KEYS = ("k", "N", "Q", "drift", "fixed_point")
MODE_KEYS = {
    "solve-linear": _SOLVE_KEYS,
    "solve-nonlinear": _SOLVE_KEYS,
    "ladder": ("drift", "fixed_point", "ladder"),
    "sweep": ("k", "N", "Q", "fixed_point", "sweep"),
    "verify": ("k", "N", "Q", "drift", "verify"),  # k and N must match the density
    "oracle-compare": _SOLVE_KEYS + ("oracle_compare",),
}
MODES = tuple(MODE_KEYS)

# a tensor rule with more nodes than this is not built from a config
MAX_GRID_NODES = 1_000_000

_TOP = (
    Param("mode", "text", choices=MODES),
    Param("k", "integer", 1, 8, 1),
    Param("N", "integer", 0, 64, 8),
    Param("Q", "integer", 0, 512, 0),
    Param("seed", "integer", 0, 2**64 - 1, 0),
    *(
        Param(name, "object", default=None)
        for name in ("drift", "fixed_point", "ladder", "sweep", "verify", "oracle_compare", "output")
    ),
)


def fixed_point_params(mode: str) -> tuple:
    """The fixed_point block; its defaults depend on the mode."""
    return (
        Param("damping", "number", 1e-6, 1.0, 1.0 if mode == "sweep" else 0.5),
        Param("tolerance", "number", 1e-16, 1.0, 1e-10),
        Param("max_iterations", "integer", 1, 100_000, 200 if mode == "ladder" else 100),
        Param("memory", "integer", 0, 20, 5),
    )


_LADDER = (
    Param("weights", "numbers", 1e-12, 1e6),
    Param("component_bound", "number", 0.0, 100.0),
    Param("levels", "integers", 1, 8),
    Param("degrees", "integers", 2, 64),
    Param("quad_orders", "integers", 1, 512),
    Param("tail_levels", "numbers", 0.0, 1e6, (1.0, 2.0, 4.0)),
)
_SWEEP = (
    Param("family", "text", choices=("constant-scale", "vlasov-tanh-scale")),
    Param("values", "numbers", -100.0, 100.0),
    Param("direction", "vector", -100.0, 100.0, None),
)
_VERIFY = (Param("density", "text"),)


def _oracle(dim, tolerance, *params) -> Kind:
    """An oracle_compare entry: the default tolerance (in standard errors for
    sde), the other keys it reads besides "oracle", and its one k (None: any)."""
    return Kind((Param("tolerance", "number", 0.0, 1e6, tolerance),) + params, lambda q, k: q,
                dims=lambda q, k: "" if dim in (None, k) else f"requires k = {dim}")


ORACLES = {
    "1d": _oracle(1, 1e-6, Param("span", "number", 1.0, 100.0, 10.0)),
    "fd2d": _oracle(2, 5e-3, Param("span", "number", 1.0, 100.0, 6.0), Param("n_cells", "integer", 8, 1000, 161)),
    "sde": _oracle(None, 3.0, Param("dt", "number", 1e-6, 0.01, 5e-3), Param("n_steps", "integer", 10, 10_000_000, 2000),
                   Param("n_particles", "integer", 50, 1_000_000, 500)),
}
_OUTPUT = (Param("dir", "text", default=None),)


@dataclass(frozen=True)
class RunConfig:
    mode: str
    k: int = 1
    degree: int = 8
    quad_order: int = 0  # 0: default 2 * degree
    seed: int = 0
    drift: dict = field(default_factory=dict)
    fixed_point: FixedPointOptions = FixedPointOptions()
    ladder: LadderConfig | None = None
    ladder_drifts: dict = field(default_factory=dict, compare=False, repr=False)  # level k -> drift, built once
    sweep: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    oracle_compare: dict = field(default_factory=dict)
    output_dir: str | None = None
    raw: dict = field(default_factory=dict)

    @property
    def effective_quad_order(self) -> int:
        return self.quad_order_for(self.degree)

    def quad_order_for(self, degree: int) -> int:
        """The configured Q, else the default max(2N, N + 1) for degree N."""
        return self.quad_order if self.quad_order else max(2 * degree, degree + 1)


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
    if sweep["family"] == "constant-scale":
        direction = sweep.get("direction") or [1.0] + [0.0] * (k - 1)
        return {"kind": "constant", "h": [u * d for d in direction]}
    return {"kind": "vlasov", "kernel": {"kind": "tanh", "scale": u}}


def _read_ladder(block, fixed_point: FixedPointOptions) -> LadderConfig:
    q = read_block(block, _LADDER, "ladder")
    q["component_bound"] = float(q["component_bound"])  # ladder.json prints a float
    try:
        ladder = LadderConfig(fixed_point=fixed_point, **q)
    except ValueError as exc:
        raise ConfigError(f"ladder: {exc}") from exc
    for k, degree, quad_order in zip(ladder.levels, ladder.degrees, ladder.quad_orders):
        check_sizes(f"ladder level k={k}", k, degree, quad_order)
    return ladder


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig; strict on keys:
    a mode accepts only COMMON_KEYS and its MODE_KEYS."""
    top = read_block(doc, _TOP, "config")
    mode, k = top["mode"], top["k"]
    unread = set(doc) - set(COMMON_KEYS + MODE_KEYS[mode])
    if unread:
        raise ConfigError(f"{mode} mode does not read the key(s) {sorted(unread)}")
    fixed_point = FixedPointOptions(
        **read_block(top.get("fixed_point", {}), fixed_point_params(mode), "fixed_point")
    )

    def required(name):
        if name not in top:
            raise ConfigError(f"{mode} mode requires a {name} block")
        return top[name]

    ladder, ladder_drifts, sweep, verify, oracle = None, {}, {}, {}, {}
    if mode in ("solve-linear", "solve-nonlinear", "oracle-compare"):
        read_kind(top.get("drift"), DRIFTS, "drift", k)
    if mode == "verify":
        verify = read_block(required("verify"), _VERIFY, "verify")
        read_kind(top.get("drift"), DRIFTS, "drift")
    if mode == "ladder":
        ladder = _read_ladder(required("ladder"), fixed_point)
        ladder_drifts = {k: drift_from_block(top.get("drift"), k) for k in ladder.levels}
        try:
            for v in ladder_drifts.values():
                ladder.check_drift(v)
        except ValueError as exc:
            raise ConfigError(f"ladder: {exc}") from exc
    if mode == "sweep":
        sweep = read_block(required("sweep"), _SWEEP, "sweep", k)
        if "direction" in sweep and sweep["family"] != "constant-scale":
            raise ConfigError(f"sweep family {sweep['family']!r} does not read sweep.direction; only constant-scale does")
        for u in sweep["values"]:
            read_kind(sweep_drift(sweep, k, u), DRIFTS, f"sweep point {u!r}: drift", k)
    if mode == "oracle-compare":
        block = required("oracle_compare")
        oracle = {"oracle": block.get("oracle"), **read_kind(block, ORACLES, "oracle_compare", k, key="oracle")[1]}
        if oracle["oracle"] == "sde" and oracle["n_particles"] % SDE_BATCHES:
            raise ConfigError(f"oracle_compare.n_particles must be a multiple of {SDE_BATCHES}")
    output = read_block(top.get("output", {}), _OUTPUT, "output")

    config = RunConfig(
        mode=mode,
        k=k,
        degree=top["N"],
        quad_order=top["Q"],
        seed=int(top["seed"]),
        drift=top.get("drift", {}),
        fixed_point=fixed_point,
        ladder=ladder,
        ladder_drifts=ladder_drifts,
        sweep=sweep,
        verify=verify,
        oracle_compare=oracle,
        output_dir=output.get("dir"),
        raw=doc,
    )
    if mode not in ("ladder", "verify"):  # these two size their own grids
        check_sizes("config", k, config.degree, config.effective_quad_order)
    return config


def load_config(path: str, seed: int | None = None) -> RunConfig:
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
