"""Augmented-state value iteration for a fixed dual parameter.

Solves the backward recursion

    J_N(x, z) = max(max(c_N(x), z) - s, 0)
    J_t(x, z) = min_u  E_w[ J_{t+1}(f(x, u, w), max(z, c(x, u))) ]

on a rectilinear (x, z) grid, interpolating J_{t+1} multilinearly between
nodes. Transition geometry (interpolation corners, stage costs, disturbance
atoms) does not depend on s, so it is precomputed once, merged into one
weight per distinct next node of each (x, u), and shared across a whole
dual-parameter sweep.

One Bellman step over every (state node, running-max node) pair is the hot
loop of the solver; ``sweep_kernel`` runs it in numpy on z-major
(n_z, n_u, n_x) work arrays, reading the (x, u) tables, which are stored
u-major, without copies. Below the stage cost the expectation is
interpolated once at c(x, u).
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


# Actions whose backups lie within this of the minimum tie; the lowest index wins.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class TransitionTables:
    """Precomputed, s-independent transition geometry for one (model, grid).

    The transition operator is merged: row ``(x, u)`` has one slot per
    distinct next node among its (atom w, corner c) entries, weighted by the
    sum of their ``p_w * wt_c`` in (w, c) order. Entries of weight 0 get no
    slot. Each row is padded to ``k`` slots, the most any row needs, by
    copies of its first node with weight 0. The slots form one group of
    probability 1 in the kernel's (group, slot) shapes, so ``sweep_kernel``
    gathers ``J_next`` once per slot. Every table is stored u-major behind
    its shape: the transpose of each (x, u) slice, such as
    ``corner_idx[:, :, 0, j].T`` or ``cost.T``, is C-contiguous (n_u, n_x).

    Against the unmerged (atom, corner) sum, a merged backup differs only in
    rounding: per action and step by at most
    ``(gamma(n_w * n_c + k + 3) + gamma(n_w + n_c + 3)) * max|J_next|``,
    ``gamma`` as in ``sweep_kernel``, with ``n_c = 2**state_dim`` corners."""

    cost: np.ndarray        # (n_x, n_u)
    probs: np.ndarray       # (n_x, n_u, 1), ones
    corner_idx: np.ndarray  # (n_x, n_u, 1, k), int64: next node of each slot
    corner_wt: np.ndarray   # (n_x, n_u, 1, k): merged weight of each slot
    cz_idx: np.ndarray      # (n_x, n_u), int64
    cz_frac: np.ndarray     # (n_x, n_u)
    terminal: np.ndarray    # (n_x,)


def merge_entries(entries, shape):
    """Merge ``(node, weight)`` entries, arrays of ``shape`` holding one value
    per row, into per-row slots: an entry adds its weight to the row's slot
    of the same node, or opens the row's next slot, unless its weight is 0.
    Returns ``(corner_idx, corner_wt)`` of shape ``shape + (1, k)``, stored
    in reverse axis order (each ``[..., 0, j].T`` slice C-contiguous), each
    row padded to ``k`` by its first node with weight 0 (node 0 for a row
    without entries; ``k`` is 0 when no entry has weight)."""
    cols, wts = [], []  # one (node, summed weight) array pair per slot; -1: empty
    for node, wt in entries:
        pending = wt > 0.0
        j = 0
        while pending.any():
            if j == len(cols):
                cols.append(np.full(shape, -1, np.int64))
                wts.append(np.zeros(shape))
            # A row's filled slots come first, so it meets a slot holding its
            # node before its first empty one.
            hit = pending & ((cols[j] == node) | (cols[j] < 0))
            np.copyto(cols[j], node, where=hit)
            np.add(wts[j], wt, out=wts[j], where=hit)
            pending &= ~hit
            j += 1
    corner_idx = np.empty((len(cols), 1) + shape[::-1], np.int64)
    corner_wt = np.empty((len(cols), 1) + shape[::-1])
    for j, (col, wt) in enumerate(zip(cols, wts)):
        corner_idx[j, 0] = np.where(col < 0, np.maximum(cols[0], 0), col).T
        corner_wt[j, 0] = wt.T
    return corner_idx.T, corner_wt.T


def precompute_transitions(model: SystemModel, grid: AugmentedGrid) -> TransitionTables:
    """Evaluate dynamics, costs, and interpolation corners on the grid, and
    merge the (atom, corner) entries of each (x, u) by next node.

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

    def entries():
        """(next node, p_w * wt_c) of each (atom, corner), one atom at a time."""
        for iw in range(n_w):
            for c in range(1 << dim):
                node = np.zeros((n_x, n_u), np.int64)
                wt = np.ones((n_x, n_u))
                for d, ax in enumerate(grid.x_axes):  # bit d of c set: upper node
                    up = c >> d & 1
                    frac = fracs[d][:, :, iw]
                    wt *= frac if up else 1.0 - frac
                    upper = np.minimum(idxs[d][:, :, iw] + up, ax.size - 1)
                    node += upper * grid._x_strides[d]
                yield node, probs[:, :, iw] * wt

    corner_idx, corner_wt = merge_entries(entries(), (n_x, n_u))
    cz_idx, cz_frac = locate_batch(grid.z_axis, cost)
    terminal = np.asarray(model.terminal_cost(nodes), dtype=np.float64)
    if not ((terminal >= 0.0) & (terminal <= model.c_bar)).all():
        raise ValueError("terminal costs must lie in [0, c_bar]")
    cost, cz_idx, cz_frac = (np.ascontiguousarray(a.T).T  # u-major
                             for a in (cost, cz_idx.astype(np.int64), cz_frac))
    return TransitionTables(cost, np.ones((1, n_u, n_x)).T, corner_idx, corner_wt,
                            cz_idx, cz_frac, terminal)


def backend() -> str:
    """Name of the Bellman step implementation (there is one: numpy)."""
    return "numpy"


def sweep_kernel(J_next, z_axis, cost, probs, corner_idx, corner_wt, cz_idx, cz_frac):
    """One backward Bellman step over every (state node, z node) pair.

    Inputs are ``J_next`` (n_x, n_z), the z axis, and transition tables
    shaped like the fields of ``TransitionTables``: ``probs`` (n_x, n_u, n_g)
    weights groups of ``n_s`` (node, weight) slots in ``corner_idx`` and
    ``corner_wt`` (n_x, n_u, n_g, n_s). The merged operator is one group;
    the unmerged one has a group per atom and a slot per corner. One gather
    of ``J_next`` columns per (group, slot) builds the z-major
    (n_z, n_u, n_x) expectation ``q`` of ``J_next`` at z' = z, the backup
    wherever z >= c(x, u); tables stored u-major (each (x, u) slice's
    transpose C-contiguous) are read without copies. Below c(x, u) every z
    continues from z' = c(x, u), and the expectation is linear in
    ``J_next``, so the backup there is ``q`` interpolated at c. Entries at
    or above c are bit-identical to a scalar loop that interpolates inside
    every (group, slot) term; the others differ from it by at most
    ``2 * gamma(n_g + n_s + 3) * max|J_next|`` per action, with
    ``gamma(k) = k u / (1 - k u)``, ``u = 2**-53`` and unit total weight.
    Returns the minimized values and the action indices, both (n_x, n_z)
    and C-contiguous: the lowest index whose backup is within ``TIE_TOL``
    of the minimum.
    """
    n_z = J_next.shape[1]
    n_x, n_u = cost.shape
    n_g, n_s = corner_idx.shape[2:]
    JT = np.ascontiguousarray(J_next.T)
    # With no (group, slot) term every q is 0; otherwise the first slot of
    # the first group writes q, and later groups sum in v.
    q = (np.empty if n_g and n_s else np.zeros)((n_z, n_u, n_x))
    buf = np.empty_like(q)
    v = np.empty_like(q) if n_g > 1 else None
    for g in range(n_g if n_s else 0):
        acc = v if g else q
        for j in range(n_s):
            out = buf if j else acc
            # In range by construction; mode "raise" would copy through a buffer.
            np.take(JT, corner_idx[:, :, g, j].T, axis=1, out=out, mode="clip")
            out *= corner_wt[:, :, g, j].T
            if j:
                acc += buf
        acc *= probs[:, :, g].T
        if g:
            q += acc
    m = n_u * n_x
    at = cz_idx.T * m + np.arange(m).reshape(n_u, n_x)  # flat index of q at c
    lo = q.take(at)
    hi = q.take(np.minimum(cz_idx.T + 1, n_z - 1) * m + at % m)
    np.copyto(q, (1.0 - cz_frac.T) * lo + cz_frac.T * hi,
              where=z_axis[:, None, None] < cost.T)
    best = q.min(axis=1)
    action = np.argmax(q <= (best + TIE_TOL)[:, None], axis=1)
    return np.ascontiguousarray(best.T), np.ascontiguousarray(action.T)


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
