"""Augmented-state value iteration for a fixed dual parameter.

Solves the backward recursion

    J_N(x, z) = max(max(c_N(x), z) - s, 0)
    J_t(x, z) = min_u  E_w[ J_{t+1}(f(x, u, w), max(z, c(x, u))) ]

on a rectilinear (x, z) grid, interpolating J_{t+1} multilinearly between
nodes. Transition geometry (interpolation corners, stage costs, disturbance
atoms) does not depend on s, so it is precomputed once and shared across a
whole dual-parameter sweep.

One Bellman step over every (state node, running-max node) pair is the hot
loop of the solver; ``sweep_kernel`` runs it in numpy. Below the stage cost
the expectation, linear in J_{t+1}, is interpolated once at z' = c(x, u).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import AugmentedGrid, locate_batch
from .models import SystemModel

__all__ = [
    "ValueTable",
    "PolicyTable",
    "TransitionTables",
    "precompute_transitions",
    "value_iteration",
]


@dataclass(frozen=True)
class ValueTable:
    """J_t sampled on the grid for one dual parameter.

    ``values[t]`` is the flat (n_xnodes, n_z) table at time t in 0..N.
    Entries lie in [0, max(c_bar - s, 0)] and are nondecreasing along z.
    """

    s: float
    values: np.ndarray  # (N + 1, n_xnodes, n_z)


@dataclass(frozen=True)
class PolicyTable:
    """Argmin action indices per time and augmented-grid node.

    ``action_idx[t]`` is the flat (n_xnodes, n_z) index table at time t in
    0..N-1; indices point into the grid's action axis.
    """

    s: float
    action_idx: np.ndarray  # (N, n_xnodes, n_z), int64


@dataclass(frozen=True)
class TransitionTables:
    """Precomputed, s-independent transition geometry for one (model, grid)."""

    cost: np.ndarray        # (n_x, n_u)
    probs: np.ndarray       # (n_x, n_u, n_w), zero-padded
    corner_idx: np.ndarray  # (n_x, n_u, n_w, n_corners), int64
    corner_wt: np.ndarray   # (n_x, n_u, n_w, n_corners)
    cz_idx: np.ndarray      # (n_x, n_u), int64
    cz_frac: np.ndarray     # (n_x, n_u)
    terminal: np.ndarray    # (n_x,)


def precompute_transitions(model: SystemModel, grid: AugmentedGrid) -> TransitionTables:
    """Evaluate dynamics, costs, and interpolation corners on the grid.

    Raises if a stage or terminal cost leaves [0, c_bar] or a next state
    leaves the grid box after the model's own clipping, NaN included: each
    indicates a model bug rather than a condition to paper over.
    """
    nodes = grid.x_nodes()
    actions = grid.action_axis
    n_x, n_u = nodes.shape[0], actions.size
    dim = grid.state_dim

    cost = np.asarray(model.stage_cost(nodes[:, None, :], actions[None, :]),
                      dtype=np.float64)
    cost = np.broadcast_to(cost, (n_x, n_u)).copy()
    if not ((cost >= 0.0) & (cost <= model.c_bar)).all():  # NaN fails too
        raise ValueError(
            f"stage costs must lie in [0, {model.c_bar}], got range "
            f"[{cost.min()}, {cost.max()}]")

    w_vals, probs = model.disturbance_rows(nodes[:, None, :], actions[None, :])
    n_w = w_vals.shape[2]
    nxt = np.asarray(
        model.dynamics(nodes[:, None, None, :], actions[None, :, None], w_vals),
        dtype=np.float64)
    nxt = np.broadcast_to(nxt, (n_x, n_u, n_w, dim))

    idxs, fracs = [], []
    for d, ax in enumerate(grid.x_axes):
        coord = nxt[..., d]
        if not ((coord >= ax[0]) & (coord <= ax[-1])).all():
            raise RuntimeError(
                f"transition left the grid along dimension {d}: "
                f"[{coord.min()}, {coord.max()}] vs [{ax[0]}, {ax[-1]}]")
        idx, frac = locate_batch(ax, coord)
        idxs.append(idx)
        fracs.append(frac)

    n_corners = 1 << dim
    strides = grid._x_strides
    corner_idx = np.zeros((n_x, n_u, n_w, n_corners), dtype=np.int64)
    corner_wt = np.ones((n_x, n_u, n_w, n_corners))
    for c in range(n_corners):
        for d in range(dim):
            size = grid.x_axes[d].size
            if c >> d & 1:
                corner_wt[..., c] *= fracs[d]
                corner_idx[..., c] += np.minimum(idxs[d] + 1, size - 1) * strides[d]
            else:
                corner_wt[..., c] *= 1.0 - fracs[d]
                corner_idx[..., c] += idxs[d] * strides[d]

    cz_idx, cz_frac = locate_batch(grid.z_axis, cost)
    terminal = np.asarray(model.terminal_cost(nodes), dtype=np.float64)
    if not ((terminal >= 0.0) & (terminal <= model.c_bar)).all():
        raise ValueError("terminal costs must lie in [0, c_bar]")
    return TransitionTables(cost, probs.copy(), corner_idx, corner_wt,
                            cz_idx.astype(np.int64), cz_frac, terminal)


def backend() -> str:
    """Name of the Bellman step implementation (there is one: numpy)."""
    return "numpy"


def sweep_kernel(J_next, z_axis, cost, probs, corner_idx, corner_wt, cz_idx, cz_frac):
    """One backward Bellman step over every (state node, z node) pair.

    Inputs are ``J_next`` (n_x, n_z), the z axis and the fields of
    ``TransitionTables`` (shapes listed there). One gather per (atom,
    corner) builds the z-major (n_z, n_x, n_u) expectation ``q`` of
    ``J_next`` at z' = z, the backup wherever z >= c(x, u). Below c(x, u)
    every z continues from z' = c(x, u), and the expectation is linear in
    ``J_next``, so the backup there is ``q`` interpolated at c. Entries at
    or above c are bit-identical to a scalar loop that interpolates inside
    every (atom, corner) term; the others differ from it by at most
    ``2 * gamma(n_w + n_c + 3) * max|J_next|`` per action, with
    ``gamma(k) = k u / (1 - k u)``, ``u = 2**-53`` and unit total weight.
    Returns the minimized values and the argmin action indices, both
    (n_x, n_z); ties go to the lowest action index.
    """
    n_z = J_next.shape[1]
    J_z = np.ascontiguousarray(J_next.T, dtype=np.float64)  # (n_z, n_x)
    q = np.zeros((n_z,) + cost.shape)
    v = np.empty_like(q)
    buf = np.empty_like(q)
    for iw in range(probs.shape[2]):
        v.fill(0.0)
        for c in range(corner_idx.shape[3]):
            # Contiguous copies: the gather and the broadcasts then run at stride 1.
            np.take(J_z, np.ascontiguousarray(corner_idx[:, :, iw, c]), axis=1,
                    out=buf)
            buf *= np.ascontiguousarray(corner_wt[:, :, iw, c])
            v += buf
        v *= np.ascontiguousarray(probs[:, :, iw])
        q += v
    lo = np.take_along_axis(q, cz_idx[None], axis=0)[0]
    hi = np.take_along_axis(q, np.minimum(cz_idx + 1, n_z - 1)[None], axis=0)[0]
    np.copyto(q, (1.0 - cz_frac) * lo + cz_frac * hi,
              where=z_axis[:, None, None] < cost)
    best_u = np.argmin(q, axis=2)  # first occurrence: lowest action index
    best = np.take_along_axis(q, best_u[..., None], axis=2)[..., 0]
    return np.ascontiguousarray(best.T), np.ascontiguousarray(best_u.T)


def value_iteration(s: float, model: SystemModel, grid: AugmentedGrid,
                    trans: TransitionTables = None):
    """Solve the full backward recursion for one dual parameter.

    Returns the (ValueTable, PolicyTable) pair over all time steps;
    ``values[0][:, 0]`` (the z = 0 column) is the swept value V^s on the
    state grid whenever the z axis starts at 0.
    """
    if trans is None:
        trans = precompute_transitions(model, grid)
    n_x, n_z = trans.terminal.size, grid.z_axis.size
    horizon = model.horizon
    values = np.empty((horizon + 1, n_x, n_z))
    action_idx = np.empty((horizon, n_x, n_z), dtype=np.int64)
    values[horizon] = np.maximum(
        np.maximum(trans.terminal[:, None], grid.z_axis[None, :]) - s, 0.0)
    J = values[horizon]
    for t in range(horizon - 1, -1, -1):
        J, U = sweep_kernel(J, grid.z_axis, trans.cost, trans.probs,
                            trans.corner_idx, trans.corner_wt,
                            trans.cz_idx, trans.cz_frac)
        values[t] = J
        action_idx[t] = U
    return ValueTable(float(s), values), PolicyTable(float(s), action_idx)
