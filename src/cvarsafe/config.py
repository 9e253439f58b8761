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

from .cvar import Pmf, _check_alpha
from .grids import AugmentedGrid
from .models import (DESIGNS, PumpParams, StormwaterParams, SystemModel,
                     default_disturbance, design_params, make_stormwater_model,
                     smoke_disturbance)

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
        "csv_max": 1000,
    },
    "flags": {"persist_tables": False},
}

_PARAM_NAMES = {f.name for f in dataclass_fields(StormwaterParams)} - {"design", "pump"}
_COUNT_PARAMS = {"horizon", "n_cso1", "n_cso2"}
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
            # model.params is open: _validate checks its names and values.
            out[key] = (dict(value) if where == "model.params"
                        else _merge(base[key], value, where))
        else:
            out[key] = value
    return out


def load_config(path=None) -> dict:
    """Read a JSON config file and resolve it against the defaults. A file
    that is not UTF-8 JSON is a ConfigError naming the path; one that cannot
    be opened raises OSError."""
    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config root must be a JSON object")
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
    """``value`` as an int if it is a number (``_number``) with an integral
    value of at least ``minimum``, else a ConfigError naming ``where``."""
    _require(_number(value, where) == int(value), where,
             f"expected an integer count, got {value!r}")
    _require(value >= minimum, where, f"count must be >= {minimum}")
    return int(value)


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
    _require(design in DESIGNS, "model.design",
             f"must be one of {'/'.join(DESIGNS)}, got {design!r}")
    params = cfg["model"]["params"]
    for name, value in params.items():
        where = f"model.params.{name}"
        if name == "pump":
            _require(isinstance(value, dict), where, "expected an object")
            for sub in value:
                _require(sub in _PUMP_NAMES, f"{where}.{sub}",
                         "unknown pump field")
                _number(value[sub], f"{where}.{sub}")
        elif name in _COUNT_PARAMS:
            params[name] = _count(value, where, 1)
        else:
            _require(name in _PARAM_NAMES, where, "unknown parameter")
            _number(value, where)
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
            for j, v in enumerate(pair):
                _number(v, f"model.disturbance[{i}][{j}]")
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
    for field, values in (("rs", cfg["rs"]), ("deploy.x0", x0)):
        for i, v in enumerate(values):
            _number(v, f"{field}[{i}]")
    risk_levels = [(f"alphas[{i}]", a) for i, a in enumerate(cfg["alphas"])]
    for where, a in risk_levels + [("deploy.alpha", cfg["deploy"]["alpha"])]:
        _number(a, where)
        try:
            _check_alpha(a)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    cfg["threads"] = _count(cfg["threads"], "threads", 1)
    cfg["seed"] = _count(cfg["seed"], "seed", 0)
    for key in ("rollouts", "csv_max"):
        cfg["deploy"][key] = _count(cfg["deploy"][key], f"deploy.{key}", 0)
    persist = cfg["flags"]["persist_tables"]
    _require(isinstance(persist, bool), "flags.persist_tables",
             f"expected true or false, got {persist!r}")


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
    try:
        if "pump" in params_cfg:
            params_cfg["pump"] = PumpParams(**params_cfg["pump"])
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
    """Check the threshold list against the cost range [0, c_bar]."""
    for i, r in enumerate(cfg["rs"]):
        _require(0.0 <= float(r) <= model.c_bar, f"rs[{i}]",
                 f"must be in [0.0, {model.c_bar}], got {r!r}")


def x0_within_bounds(cfg: dict, model: SystemModel) -> None:
    """Check ``deploy.x0`` against the model's state box."""
    for d, (v, (lo, hi)) in enumerate(zip(cfg["deploy"]["x0"], model.state_bounds)):
        _require(lo <= v <= hi, f"deploy.x0[{d}]",
                 f"must be in [{lo}, {hi}], got {v!r}")
