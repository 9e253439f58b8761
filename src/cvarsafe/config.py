"""Run configuration: JSON file loading, validation, canonical hashing.

A config is a nested JSON object; every field is optional and defaults to
the baseline stormwater tables, so ``{}`` reproduces design a exactly.
Validation errors name the offending field path (``model.params.a1: ...``).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import fields as dataclass_fields

from .cvar import Pmf
from .grids import AugmentedGrid
from .models import (StormwaterParams, SystemModel, default_disturbance,
                     design_params, make_stormwater_model, smoke_disturbance)

__all__ = ["ConfigError", "load_config", "resolve_config", "config_hash",
           "sweep_hash", "build_model", "build_grid"]


class ConfigError(ValueError):
    """Invalid configuration; the message carries the field path."""


_DEFAULTS = {
    "model": {
        "design": "a",
        "params": {},
        "disturbance": "default",  # "default" | "smoke" | [[value, prob], ...]
    },
    "grid": {"x": [25, 25], "z": 11, "action": 11, "s": 21},
    "alphas": [0.99, 0.05, 0.005],
    "rs": [0.2, 1.0, 1.8],
    "seed": 0,
    "threads": 1,
    "deploy": {
        "x0": [2.5, 3.0],
        "alpha": 0.05,
        "rollouts": 1000,
        "reoptimize": False,
        "csv_max": 1000,
    },
    "flags": {"persist_tables": False},
}

_PARAM_NAMES = {f.name for f in dataclass_fields(StormwaterParams)} - {"design", "pump"}
_PUMP_NAMES = {"q_max", "eps", "z_elev"}


def _merge(base: dict, override: dict, path: str) -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"{where}: unknown field")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected an object")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def load_config(path=None) -> dict:
    """Read a JSON config file and resolve it against the defaults."""
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    return resolve_config(raw)


def resolve_config(raw: dict) -> dict:
    # A copy, so that callers may edit the result without editing the defaults.
    cfg = _merge(copy.deepcopy(_DEFAULTS), raw, "")
    _validate(cfg)
    return cfg


def _require(cond, where, msg):
    if not cond:
        raise ConfigError(f"{where}: {msg}")


def _count(value, where, minimum):
    """``value`` as an int; a non-integral value or one below ``minimum``
    is a ConfigError naming ``where``."""
    try:
        n = int(value)
        integral = not isinstance(value, bool) and n == float(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    _require(integral, where, f"expected an integer count, got {value!r}")
    _require(n >= minimum, where, f"count must be >= {minimum}")
    return n


def _number(value, where):
    """``value`` as written (so the config hash does not change) if it is a
    finite int or float and not a bool, else a ConfigError naming ``where``."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    _require(ok and abs(value) < math.inf, where,
             f"expected a finite number, got {value!r}")
    return value


def _validate(cfg: dict) -> None:
    """Check every field, naming its path on failure; counts are converted
    to ints in place."""
    design = cfg["model"]["design"]
    _require(design in ("a", "b", "c", "d"), "model.design",
             f"must be one of a/b/c/d, got {design!r}")
    params = cfg["model"]["params"]
    for name in params:
        if name == "pump":
            _require(isinstance(params[name], dict), "model.params.pump",
                     "expected an object")
            for sub in params[name]:
                _require(sub in _PUMP_NAMES, f"model.params.pump.{sub}",
                         "unknown pump field")
        else:
            _require(name in _PARAM_NAMES, f"model.params.{name}",
                     "unknown parameter")
    dist = cfg["model"]["disturbance"]
    if isinstance(dist, str):
        _require(dist in ("default", "smoke"), "model.disturbance",
                 f"must be 'default', 'smoke', or [[value, prob], ...], got {dist!r}")
    else:
        _require(isinstance(dist, list) and dist, "model.disturbance",
                 "atom list must be nonempty")
        for i, pair in enumerate(dist):
            _require(isinstance(pair, (list, tuple)) and len(pair) == 2,
                     f"model.disturbance[{i}]", "expected a [value, prob] pair")
    grid = cfg["grid"]
    x = grid["x"]
    _require(isinstance(x, list) and len(x) == 2, "grid.x",
             "expected two counts")
    grid["x"] = [_count(c, f"grid.x[{i}]", 2) for i, c in enumerate(x)]
    for axis in ("z", "action", "s"):
        grid[axis] = _count(grid[axis], f"grid.{axis}", 2)
    _require(isinstance(cfg["alphas"], list) and cfg["alphas"], "alphas",
             "must be a nonempty list")
    _require(isinstance(cfg["rs"], list) and cfg["rs"], "rs",
             "must be a nonempty list")
    x0 = cfg["deploy"]["x0"]
    _require(isinstance(x0, list) and len(x0) == 2, "deploy.x0",
             "expected two coordinates")
    for field, values in (("alphas", cfg["alphas"]), ("rs", cfg["rs"]),
                          ("deploy.x0", x0)):
        for i, v in enumerate(values):
            _number(v, f"{field}[{i}]")
    for i, a in enumerate(cfg["alphas"]):
        _require(0.0 < a <= 1.0, f"alphas[{i}]", f"must be in (0, 1], got {a!r}")
    cfg["threads"] = _count(cfg["threads"], "threads", 1)
    for key in ("rollouts", "csv_max"):
        cfg["deploy"][key] = _count(cfg["deploy"][key], f"deploy.{key}", 0)
    _require(0.0 < _number(cfg["deploy"]["alpha"], "deploy.alpha") <= 1.0,
             "deploy.alpha", "must be in (0, 1]")


def _digest(obj) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def config_hash(cfg: dict) -> str:
    """Hash of the semantic config: execution knobs (thread count) excluded
    so an artifact's identity does not depend on the parallelism degree."""
    return _digest({k: v for k, v in cfg.items() if k != "threads"})


def sweep_hash(cfg: dict) -> str:
    """Hash of the fields that define a dual sweep (``model`` and ``grid``).

    Risk levels, thresholds and deploy settings are left out, so a sweep
    stays reusable under ``--alpha``/``--r`` overrides."""
    return _digest({"model": cfg["model"], "grid": cfg["grid"]})


def build_model(cfg: dict) -> SystemModel:
    params_cfg = dict(cfg["model"]["params"])
    if "pump" in params_cfg:
        from .models import PumpParams

        params_cfg["pump"] = PumpParams(**params_cfg["pump"])
    try:
        params = design_params(cfg["model"]["design"], **params_cfg)
    except ValueError as exc:
        raise ConfigError(f"model.params: {exc}") from exc
    dist_cfg = cfg["model"]["disturbance"]
    if dist_cfg == "default":
        dist = default_disturbance()
    elif dist_cfg == "smoke":
        dist = smoke_disturbance()
    else:
        try:
            dist = Pmf([p[0] for p in dist_cfg], [p[1] for p in dist_cfg])
        except ValueError as exc:
            raise ConfigError(f"model.disturbance: {exc}") from exc
    return make_stormwater_model(params, dist)


def build_grid(cfg: dict, model: SystemModel) -> AugmentedGrid:
    g = cfg["grid"]
    return AugmentedGrid.uniform(model, g["x"], g["z"], g["action"], g["s"])


def rs_within_range(cfg: dict, model: SystemModel) -> None:
    """Check the threshold list against [g_lower, g_lower + c_bar]."""
    lo = model.g_lower
    hi = model.g_lower + model.c_bar
    for i, r in enumerate(cfg["rs"]):
        _require(lo <= float(r) <= hi, f"rs[{i}]",
                 f"must be in [{lo}, {hi}], got {r!r}")


def x0_within_bounds(cfg: dict, model: SystemModel) -> None:
    """Check ``deploy.x0`` against the model's state box."""
    for d, (v, (lo, hi)) in enumerate(zip(cfg["deploy"]["x0"], model.state_bounds)):
        _require(lo <= v <= hi, f"deploy.x0[{d}]",
                 f"must be in [{lo}, {hi}], got {v!r}")
