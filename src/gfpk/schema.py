"""Typed parameter declarations for the JSON config blocks.

`read_block` checks a block against a tuple of Params, `read_kind` a
{"kind": ...} block against a registry of Kinds.  Every violation is a
ConfigError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError

REQUIRED = "required"


@dataclass(frozen=True)
class Param:
    """A key with its type, inclusive range [low, high] (of finite numbers) and default
    (REQUIRED, or None for an optional key without one).  Types: "number",
    "integer", "bool", "text" (one of `choices` if given), "object" (a block
    read on its own), "vector" (numbers, one per coordinate), "numbers" and
    "integers" (non-empty lists), a tuple of Params (a nested block) or a
    registry of Kinds (a nested {"kind": ...} block, read into the object
    its entry builds)."""

    name: str
    type: object
    low: float = -math.inf
    high: float = math.inf
    default: object = REQUIRED
    choices: tuple = ()


@dataclass(frozen=True)
class Kind:
    """A registry entry: parameters, constructor (params, k) -> object (by
    default the params) and a dimension check (params, k) -> "" or what is
    wrong with k."""

    params: tuple
    build: Callable = lambda params, k: params
    dims: Callable = lambda params, k: ""


def _number(value, name, low, high, integer):
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if not -math.inf < value < math.inf:  # NaN or an infinity
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if not low <= value <= high:
        raise ConfigError(f"{name}={value!r} outside the documented range [{low}, {high}]")
    return value


def _read_value(param: Param, value, name: str, k):
    ptype = param.type
    if isinstance(ptype, tuple):
        return read_block(value, ptype, name, k)
    if isinstance(ptype, dict):
        entry, params = read_kind(value, ptype, name, k)
        return entry.build(params, k)
    if ptype in ("number", "integer"):
        return _number(value, name, param.low, param.high, ptype == "integer")
    python_type = {"bool": bool, "text": str, "object": dict}.get(ptype, list)
    if not isinstance(value, python_type) or (param.choices and value not in param.choices):
        raise ConfigError(f"{name} must be {' or '.join(param.choices) or 'of type ' + ptype}, got {value!r}")
    if python_type is not list:
        return value
    if not value:
        raise ConfigError(f"{name} must not be empty")
    if ptype == "vector" and k is not None and len(value) != k:
        raise ConfigError(f"{name} has length {len(value)}, expected one entry per coordinate (k={k})")
    return tuple(_number(x, f"{name} entry", param.low, param.high, ptype == "integers") for x in value)


def read_block(block, params: tuple, context: str, k: int | None = None) -> dict:
    """The block's values (lists as tuples); an absent key with a default
    is read as if given its default, and an optional key without one stays
    absent.  A known k fixes the length of vectors."""
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be an object, got {block!r}")
    unknown = set(block) - {p.name for p in params}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")
    out = {}
    for param in params:
        if param.name in block or param.default not in (REQUIRED, None):
            out[param.name] = _read_value(param, block.get(param.name, param.default), f"{context}.{param.name}", k)
        elif param.default is REQUIRED:
            raise ConfigError(f"missing required key {param.name!r} in {context}")
    return out


def read_kind(block, registry: dict, context: str, k: int | None = None, key: str = "kind") -> tuple[Kind, dict]:
    """(entry, params) of a {key: name, ...} block, checked against the
    registry entry of that name and, when k is known, the dimension."""
    kind = block.get(key) if isinstance(block, dict) else None
    if not isinstance(kind, str) or kind not in registry:
        raise ConfigError(f"{context} needs a {key!r} out of {sorted(registry)}, got {kind!r}")
    entry = registry[kind]
    rest = {name: value for name, value in block.items() if name != key}
    if set(rest) - {p.name for p in entry.params}:  # an unknown key is named with this entry
        context = f"{context} of {key} {kind!r}"
    params = read_block(rest, entry.params, context, k)
    problem = "" if k is None else entry.dims(params, k)
    if problem:
        raise ConfigError(f"{context} of {key} {kind!r} {problem}")
    return entry, params
