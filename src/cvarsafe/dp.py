"""Augmented-state value iteration for a fixed dual parameter.

Solves the backward recursion

    J_N(x, z) = max(max(c_N(x), z) - s, 0)
    J_t(x, z) = min_u  E_w[ J_{t+1}(f(x, u, w), max(z, c(x, u))) ]

on a rectilinear (x, z) grid, interpolating J_{t+1} multilinearly between
nodes. Transition geometry (interpolation corners, stage costs, disturbance
atoms) does not depend on s, so it is precomputed once and shared across a
whole dual-parameter sweep.

One Bellman step over every (state node, running-max node) pair is the hot
loop of the solver; ``sweep_kernel`` runs it in numpy in the tables' own x-major
order. Below the stage cost the expectation is interpolated once at c(x, u).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import AugmentedGrid, locate_batch
from .models import SystemModel

__all__ = [
    "TransitionTables",
    "precompute_transitions",
    "value_iteration",
]


@dataclass(frozen=True)
class TransitionTables:
    """Precomputed, s-independent transition geometry for one (model, grid).

    ``probs``, ``corner_idx`` and ``corner_wt`` are stored atom- and corner-major
    behind these shapes: ``sweep_kernel`` runs at stride 1 only while every
    ``[:, :, iw]`` and ``[:, :, iw, c]`` slice is C-contiguous."""

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

    cost = np.broadcast_to(model.stage_cost(nodes[:, None, :], actions[None, :]),
                           (n_x, n_u)).astype(np.float64)
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

    located = []
    for d, ax in enumerate(grid.x_axes):
        coord = nxt[..., d]
        if not ((coord >= ax[0]) & (coord <= ax[-1])).all():
            raise RuntimeError(
                f"transition left the grid along dimension {d}: "
                f"[{coord.min()}, {coord.max()}] vs [{ax[0]}, {ax[-1]}]")
        located.append(locate_batch(ax, coord))
    idxs, fracs = zip(*located)

    n_corners = 1 << dim
    strides = grid._x_strides
    corner_idx = np.zeros((n_w, n_corners, n_x, n_u), np.int64).transpose(2, 3, 0, 1)
    corner_wt = np.ones((n_w, n_corners, n_x, n_u)).transpose(2, 3, 0, 1)
    for c in range(n_corners):
        for d in range(dim):  # bit d of c set: the upper node along d
            up = c >> d & 1
            corner_wt[..., c] *= fracs[d] if up else 1.0 - fracs[d]
            node = np.minimum(idxs[d] + up, grid.x_axes[d].size - 1)
            corner_idx[..., c] += node * strides[d]

    cz_idx, cz_frac = locate_batch(grid.z_axis, cost)
    terminal = np.asarray(model.terminal_cost(nodes), dtype=np.float64)
    if not ((terminal >= 0.0) & (terminal <= model.c_bar)).all():
        raise ValueError("terminal costs must lie in [0, c_bar]")
    probs = np.moveaxis(probs, 2, 0).copy().transpose(1, 2, 0)
    return TransitionTables(cost, probs, corner_idx, corner_wt,
                            cz_idx.astype(np.int64), cz_frac, terminal)


def backend() -> str:
    """Name of the Bellman step implementation (there is one: numpy)."""
    return "numpy"


def sweep_kernel(J_next, z_axis, cost, probs, corner_idx, corner_wt, cz_idx, cz_frac):
    """One backward Bellman step over every (state node, z node) pair.

    Inputs are ``J_next`` (n_x, n_z), the z axis and the fields of
    ``TransitionTables`` (shapes listed there). One gather of ``J_next``
    rows per (atom, corner) builds the x-major (n_x, n_u, n_z) expectation
    ``q`` of ``J_next`` at z' = z, the backup wherever z >= c(x, u). Below
    c(x, u) every z continues from z' = c(x, u), and the expectation is
    linear in ``J_next``, so the backup there is ``q`` interpolated at c.
    Entries at or above c are bit-identical to a scalar loop that
    interpolates inside every (atom, corner) term; the others differ from
    it by at most ``2 * gamma(n_w + n_c + 3) * max|J_next|`` per action,
    with ``gamma(k) = k u / (1 - k u)``, ``u = 2**-53`` and unit total
    weight. Returns the minimized values and the argmin action indices, both
    (n_x, n_z); ties go to the lowest action index.
    """
    n_z = J_next.shape[1]
    q = np.zeros(cost.shape + (n_z,))
    v = np.empty_like(q)
    buf = np.empty_like(q)
    for iw in range(probs.shape[2]):
        v.fill(0.0)
        for c in range(corner_idx.shape[3]):
            # In range by construction; mode "raise" would copy through a buffer.
            np.take(J_next, corner_idx[:, :, iw, c], axis=0, out=buf, mode="clip")
            buf *= corner_wt[:, :, iw, c, None]
            v += buf
        v *= probs[:, :, iw, None]
        q += v
    lo = np.take_along_axis(q, cz_idx[..., None], axis=2)
    hi = np.take_along_axis(q, np.minimum(cz_idx + 1, n_z - 1)[..., None], axis=2)
    np.copyto(q, (1.0 - cz_frac[..., None]) * lo + cz_frac[..., None] * hi,
              where=z_axis < cost[..., None])
    best = q.min(axis=1)  # np.argmin along axis 1 would copy q
    return best, np.argmax(q == best[:, None], axis=1)  # lowest action at the min


def value_iteration(s: float, model: SystemModel, grid: AugmentedGrid,
                    trans: TransitionTables = None):
    """Solve the full backward recursion for one dual parameter.

    Returns ``(values, action_idx)``. ``values[t]`` is J_t on the flat
    (n_xnodes, n_z) grid for t in 0..N; its entries lie in
    [0, max(c_bar - s, 0)] and are nondecreasing along z, and
    ``values[0][:, 0]`` (the z = 0 column) is the swept value V^s whenever
    the z axis starts at 0. ``action_idx[t]`` (int64, t in 0..N-1) holds the
    argmin indices into the grid's action axis at the same nodes.
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
    return values, action_idx
