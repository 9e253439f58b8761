"""Deterministic artifact writers and readers.

Every file is byte-reproducible: floats are written with ``repr`` (shortest
round-trip form), JSON keys are sorted, and each artifact embeds the
resolved configuration hash. Values arrive as the plain arrays the solver
returns: the sweep's ``v0`` (one row per s of ``grid.s_axis``) and the risk
value's ``w_star`` and ``s_star`` (one entry per state node). Every CSV goes
through ``write_csv``, the one place that lays out its lines and formats its
cells. Timing never goes into artifacts; it is printed to stderr by the CLI
instead.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .grids import AugmentedGrid
from .rollout import RolloutBatch

__all__ = [
    "fmt",
    "write_csv",
    "write_json",
    "write_sweep",
    "read_sweep",
    "write_surface_csv",
    "write_mask_csv",
    "write_rollouts_csv",
    "write_tables_csv",
]

SCHEMA_VERSION = 1


def fmt(v) -> str:
    """Shortest exact decimal form of a float (round-trips through float())."""
    return repr(float(v))


def _cell(v) -> str:
    if isinstance(v, float):
        return fmt(v)
    return "" if v is None else str(v)


def write_csv(path, config_hash: str, columns, rows, comments=()) -> None:
    """Write a CSV artifact: a ``# config=<hash>`` line, one ``# key=value``
    line per ``(key, value)`` pair of ``comments``, the header, then one line
    per row. A float cell is written with ``fmt``, ``None`` as an empty cell
    and anything else with ``str``; pass ``.tolist()`` values so that array
    entries arrive as Python ints and floats."""
    with open(path, "w") as fh:
        fh.write(f"# config={config_hash}\n")
        for key, value in comments:
            fh.write(f"# {key}={_cell(value)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _x_columns(grid: AugmentedGrid):
    return [f"x{d + 1}" for d in range(grid.state_dim)]


def _grid_axes(grid: AugmentedGrid) -> dict:
    return {"x_axes": [ax.tolist() for ax in grid.x_axes],
            "z_axis": grid.z_axis.tolist(),
            "action_axis": grid.action_axis.tolist(),
            "s_axis": grid.s_axis.tolist()}


def write_sweep(out_dir, v0: np.ndarray, grid: AugmentedGrid,
                config_hash: str, sweep_hash: str) -> None:
    """Persist a dual sweep ``v0``: sweep.csv (one row per s of the grid's s
    axis, one column per state node in row-major order) plus sweep_meta.json
    carrying the grid axes and the hash of the sweep-defining config fields
    (``config.sweep_hash``)."""
    columns = ["s"] + [f"v{j}" for j in range(v0.shape[1])]
    rows = ((s, *v) for s, v in zip(grid.s_axis.tolist(), v0.tolist()))
    write_csv(f"{out_dir}/sweep.csv", config_hash, columns, rows)
    meta = {"schema_version": SCHEMA_VERSION, "config_hash": config_hash,
            **_grid_axes(grid), "sweep_hash": sweep_hash}
    write_json(f"{out_dir}/sweep_meta.json", meta)


def read_sweep(out_dir, grid: AugmentedGrid, sweep_hash: str) -> np.ndarray:
    """The ``v0`` that ``write_sweep`` stored in ``out_dir``, if made on ``grid``
    for the config whose ``config.sweep_hash`` is ``sweep_hash``: the one check
    that a stored sweep may be used. FileNotFoundError if a file is missing;
    else ValueError naming the file if one does not parse, if a field of
    sweep_meta.json (schema version, axes, sweep hash) does not read as JSON
    exactly as ``write_sweep`` writes it here (``true`` is not ``1``, nor ``1``
    the node ``1.0``), or unless sweep.csv holds one row per s of the axis, in
    order, each that s and one finite value >= 0 per state node, as every
    V^s is."""
    meta_path, csv_path = f"{out_dir}/sweep_meta.json", f"{out_dir}/sweep.csv"
    path = meta_path
    try:
        with open(path) as fh:
            meta = json.load(fh)
        path = csv_path
        with open(path) as fh:
            rows = [[float(tok) for tok in line.split(",")]
                    for line in fh if not line.startswith(("#", "s,"))]
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"no sweep found in {out_dir} (run `cvarsafe "
                                f"sweep` first): {exc}") from exc
    except ValueError as exc:  # not JSON, not text, or a cell not a number
        raise ValueError(f"{path} does not parse: {exc}") from exc
    meta = meta if isinstance(meta, dict) else {}
    differs = lambda key, value: json.dumps(meta.get(key)) != json.dumps(value)
    if differs("schema_version", SCHEMA_VERSION):
        raise ValueError(f"{meta_path} has schema version "
                         f"{meta.get('schema_version')!r}, expected {SCHEMA_VERSION}")
    axes = _grid_axes(grid)
    other = [key for key, value in axes.items() if differs(key, value)]
    if other:
        raise ValueError(f"{meta_path}: the sweep was made on another grid "
                         f"({', '.join(other)} missing or not as configured)")
    if differs("sweep_hash", sweep_hash):
        raise ValueError(f"{meta_path}: the sweep was made for another model or "
                         f"grid config (sweep hash {meta.get('sweep_hash')!r}, "
                         f"configured {sweep_hash!r}); re-run `cvarsafe sweep`")
    n_x = grid.n_xnodes
    if (any(len(row) != 1 + n_x for row in rows)
            or [row[0] for row in rows] != axes["s_axis"]):
        raise ValueError(f"{csv_path} does not match {meta_path}: expected one "
                         f"row per s, in order, each that s and {n_x} values")
    data = np.asarray(rows)
    bad = np.argwhere(~((data[:, 1:] >= 0.0) & (data[:, 1:] < np.inf)))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{csv_path}: v{j} at s={fmt(data[i, 0])} is "
                         f"{fmt(data[i, 1 + j])}; every V^s value is finite and >= 0")
    return data[:, 1:]


def write_surface_csv(path, w_star: np.ndarray, s_star: np.ndarray,
                      grid: AugmentedGrid, config_hash: str) -> None:
    """The risk value and its minimizing s (``solver.risk_value``), one row
    per state node: ``x1,...,w_star,s_star``."""
    rows = zip(*grid.x_nodes().T.tolist(), w_star.tolist(), s_star.tolist())
    write_csv(path, config_hash, _x_columns(grid) + ["w_star", "s_star"], rows)


def write_mask_csv(path, mask: np.ndarray, grid: AugmentedGrid,
                   config_hash: str) -> None:
    """A safe-set mask (``solver.extract_safe_set``), one row per state node."""
    rows = zip(*grid.x_nodes().T.tolist(), mask.astype(int).tolist())
    write_csv(path, config_hash, _x_columns(grid) + ["in_set"], rows)


def write_rollouts_csv(path, batch: RolloutBatch, config_hash: str) -> None:
    """Trajectory records, one row per (recorded rollout, t); the terminal
    row has no action or disturbance. ``rollout(..., keep=k)`` caps how many
    trajectories the batch records, and so the file size."""
    _, num, dim = batch.states.shape

    def rows():  # one rollout's values at a time
        for i in range(num):
            us = batch.actions[:, i].tolist() + [None]
            ws = batch.shocks[:, i].tolist() + [None]
            for t, (x, z, u, w) in enumerate(zip(batch.states[:, i].tolist(),
                                                 batch.zs[:, i].tolist(), us, ws)):
                yield (i, t, *x, z, u, w)

    cols = ["rollout_id", "t"] + [f"x{d + 1}" for d in range(dim)] + ["z", "u", "w"]
    write_csv(path, config_hash, cols, rows())


def write_tables_csv(path, s: float, values: np.ndarray, action_idx: np.ndarray,
                     grid: AugmentedGrid, config_hash: str) -> None:
    """The tables ``value_iteration`` returns at ``s`` in a stable long format,
    one row per (t, state indices..., z index): ``t,i0,...,iz,value,action``
    where ``action`` is the grid action value (empty at the terminal step,
    which has no policy)."""
    horizon = action_idx.shape[0]
    nodes = list(itertools.product(*map(range, grid.x_shape),
                                   range(grid.z_axis.size)))

    def rows():  # one time layer's values at a time
        for t, table in enumerate(values):
            actions = (grid.action_axis[action_idx[t]].ravel().tolist()
                       if t < horizon else [None] * len(nodes))
            for node, value, action in zip(nodes, table.ravel().tolist(), actions):
                yield (t, *node, value, action)

    columns = (["t"] + [f"i{d}" for d in range(grid.state_dim)]
               + ["iz", "value", "action"])
    write_csv(path, config_hash, columns, rows(), comments=[("s", float(s))])
