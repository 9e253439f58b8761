"""Deterministic artifact writers and readers.

Every file is byte-reproducible: floats are written with ``repr`` (shortest
round-trip form), JSON keys are sorted, and each artifact embeds the
resolved configuration hash. Timing never goes into artifacts; it is
printed to stderr by the CLI instead.
"""

from __future__ import annotations

import json

import numpy as np

from .grids import AugmentedGrid
from .rollout import RolloutBatch
from .solver import DualSweep, RiskSurface, SafeSetMask

__all__ = [
    "fmt",
    "write_json",
    "write_sweep",
    "read_sweep_meta",
    "read_sweep",
    "write_surface_csv",
    "write_mask_csv",
    "write_rollouts_csv",
]

SCHEMA_VERSION = 1


def fmt(v) -> str:
    """Shortest exact decimal form of a float (round-trips through float())."""
    return repr(float(v))


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _x_columns(grid: AugmentedGrid):
    return [f"x{d + 1}" for d in range(grid.state_dim)]


def write_sweep(out_dir, dsweep: DualSweep, grid: AugmentedGrid,
                config_hash: str, sweep_hash: str) -> None:
    """Persist a dual sweep: sweep.csv (one row per s, one column per state
    node in row-major order) plus sweep_meta.json carrying the grid axes and
    the hash of the sweep-defining config fields (``config.sweep_hash``)."""
    csv_path = f"{out_dir}/sweep.csv"
    with open(csv_path, "w") as fh:
        fh.write(f"# config={config_hash}\n")
        header = ",".join(["s"] + [f"v{j}" for j in range(dsweep.v0.shape[1])])
        fh.write(header + "\n")
        for i, s in enumerate(dsweep.s_values):
            row = ",".join([fmt(s)] + [fmt(v) for v in dsweep.v0[i]])
            fh.write(row + "\n")
    meta = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash,
        "x_axes": [ax.tolist() for ax in grid.x_axes],
        "z_axis": grid.z_axis.tolist(),
        "action_axis": grid.action_axis.tolist(),
        "s_axis": grid.s_axis.tolist(),
        "sweep_hash": sweep_hash,
    }
    write_json(f"{out_dir}/sweep_meta.json", meta)


def read_sweep_meta(out_dir) -> dict:
    """The contents of sweep_meta.json; ValueError unless its schema version
    is ``SCHEMA_VERSION``."""
    with open(f"{out_dir}/sweep_meta.json") as fh:
        meta = json.load(fh)
    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{out_dir}/sweep_meta.json has schema version "
                         f"{version!r}, expected {SCHEMA_VERSION}")
    return meta


def read_sweep(out_dir):
    """Reconstruct (DualSweep, AugmentedGrid, config_hash) from a sweep dir.

    Raises ValueError on another schema version, or unless sweep.csv holds
    one row per s value of the stored s axis, each with one value per stored
    state node."""
    meta = read_sweep_meta(out_dir)
    grid = AugmentedGrid(
        x_axes=tuple(np.asarray(ax) for ax in meta["x_axes"]),
        z_axis=np.asarray(meta["z_axis"]),
        action_axis=np.asarray(meta["action_axis"]),
        s_axis=np.asarray(meta["s_axis"]),
    )
    rows = []
    with open(f"{out_dir}/sweep.csv") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("s,"):
                continue
            rows.append([float(tok) for tok in line.rstrip("\n").split(",")])
    n_s, n_x = grid.s_axis.size, grid.n_xnodes
    if len(rows) != n_s or any(len(row) != 1 + n_x for row in rows):
        raise ValueError(
            f"{out_dir}/sweep.csv does not match sweep_meta.json: expected "
            f"{n_s} rows of s and {n_x} values")
    data = np.asarray(rows)
    dsweep = DualSweep(data[:, 0], data[:, 1:])
    return dsweep, grid, meta["config_hash"]


def write_surface_csv(path, surface: RiskSurface, grid: AugmentedGrid,
                      config_hash: str) -> None:
    nodes = grid.x_nodes()
    with open(path, "w") as fh:
        fh.write(f"# config={config_hash}\n")
        fh.write(",".join(_x_columns(grid) + ["v_star", "w_star", "s_star"]) + "\n")
        for j in range(nodes.shape[0]):
            coords = [fmt(c) for c in nodes[j]]
            fh.write(",".join(coords + [fmt(surface.v_star[j]),
                                        fmt(surface.w_star[j]),
                                        fmt(surface.s_star[j])]) + "\n")


def write_mask_csv(path, mask: SafeSetMask, grid: AugmentedGrid,
                   config_hash: str) -> None:
    nodes = grid.x_nodes()
    with open(path, "w") as fh:
        fh.write(f"# config={config_hash}\n")
        fh.write(",".join(_x_columns(grid) + ["in_set"]) + "\n")
        for j in range(nodes.shape[0]):
            coords = [fmt(c) for c in nodes[j]]
            fh.write(",".join(coords + [str(int(mask.mask[j]))]) + "\n")


def write_rollouts_csv(path, batch: RolloutBatch, config_hash: str,
                       max_rollouts: int = None) -> None:
    """Trajectory records, one row per (rollout, t); the terminal row has no
    action or disturbance. ``max_rollouts`` caps the file size for large
    batches (summary statistics always cover the whole batch)."""
    num = batch.num if max_rollouts is None else min(batch.num, int(max_rollouts))
    dim = batch.states.shape[2]
    horizon = batch.actions.shape[1]
    cols = ["rollout_id", "t"] + [f"x{d + 1}" for d in range(dim)] + ["z", "u", "w"]
    with open(path, "w") as fh:
        fh.write(f"# config={config_hash}\n")
        fh.write(",".join(cols) + "\n")
        for i in range(num):
            for t in range(horizon + 1):
                coords = [fmt(c) for c in batch.states[i, t]]
                if t < horizon:
                    tail = [fmt(batch.actions[i, t]), fmt(batch.shocks[i, t])]
                else:
                    tail = ["", ""]
                fh.write(",".join([str(i), str(t)] + coords +
                                  [fmt(batch.zs[i, t])] + tail) + "\n")
