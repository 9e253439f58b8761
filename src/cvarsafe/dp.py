"""Augmented-state value iteration for a fixed dual parameter.

Solves the backward recursion

    J_N(x, z) = max(max(c_N(x), z) - s, 0)
    J_t(x, z) = min_u  E_w[ J_{t+1}(f(x, u, w), max(z, c(x, u))) ]

on a rectilinear (x, z) grid, interpolating J_{t+1} multilinearly between
nodes. Transition geometry (interpolation corners, stage costs, disturbance
atoms) does not depend on s, so it is precomputed once, one atom at a time,
merged into one weight per distinct next node of each (x, u), and shared
across a whole dual-parameter sweep.

One Bellman step over every (state node, running-max node) pair is the hot
loop of the solver; ``sweep_kernel`` runs it in numpy on z-major
(n_z, n_u, n_x) work arrays, one gather per merged slot, reading the (x, u)
tables, which are stored u-major, without copies. The z nodes below the
z bracket of c(x, u) move to c, where the expectation is interpolated once.
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
    copies of its first node with weight 0. ``corner_idx`` and ``corner_wt``
    keep an axis of length 1 before the slots, the shape that the benchmark's
    kernel counter reads. Every table is stored u-major behind its shape: the
    transpose of each (x, u) slice, such as ``corner_idx[:, :, 0, j].T`` or
    ``cz_idx.T``, is C-contiguous (n_u, n_x).

    Against the unmerged (atom, corner) sum, a merged backup differs only in
    rounding: per action and step by at most
    ``(gamma(n_w * n_c + k + 3) + gamma(n_w + n_c + 3)) * max|J_next|``,
    ``gamma`` as in ``sweep_kernel``, with ``n_c = 2**state_dim`` corners."""

    corner_idx: np.ndarray  # (n_x, n_u, 1, k), int64: next node of each slot
    corner_wt: np.ndarray   # (n_x, n_u, 1, k): merged weight of each slot
    cz_idx: np.ndarray      # (n_x, n_u), int64: c(x, u) bracketed on the z axis,
    cz_frac: np.ndarray     # (n_x, n_u)         the only form of c that is kept
    terminal: np.ndarray    # (n_x,)


def merge_entries(entries, shape):
    """Merge ``(node, weight)`` entries, arrays of the u-major row ``shape``
    (n_u, n_x) holding one value per row, into per-row slots: an entry adds
    its weight to the row's slot of the same node, or opens the row's next
    slot, unless its weight is 0. Returns ``(corner_idx, corner_wt)`` of
    shape (n_x, n_u, 1, k), each ``[:, :, 0, j].T`` slice C-contiguous, each
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
    first = np.maximum(cols[0], 0) if cols else None
    tables = []
    for slots, dtype in ((cols, np.int64), (wts, np.float64)):
        table = np.empty((len(slots), 1) + shape, dtype)
        for j, slot in enumerate(slots):
            table[j, 0] = slot
            if slots is cols:
                np.copyto(table[j, 0], first, where=slot < 0)
            slots[j] = None  # copied: release it, so the peak stays near the tables
        tables.append(table.T)
    return tuple(tables)


def precompute_transitions(model: SystemModel, grid: AugmentedGrid) -> TransitionTables:
    """Evaluate dynamics, costs, and interpolation corners on the grid, and
    merge the (atom, corner) entries of each (x, u) by next node, one atom
    at a time on u-major (n_u, n_x) arrays.

    Raises if a stage or terminal cost leaves [0, c_bar] or a next state
    leaves the grid box after the model's own clipping, NaN included: each
    indicates a model bug rather than a condition to paper over.
    """
    nodes = grid.x_nodes()
    n_x, n_u = nodes.shape[0], grid.action_axis.size
    x, u = nodes[None], grid.action_axis[:, None]

    cost = np.broadcast_to(model.stage_cost(x, u), (n_u, n_x)).astype(
        np.float64, order="C")
    if not ((cost >= 0.0) & (cost <= model.c_bar)).all():  # NaN fails too
        raise ValueError(
            f"stage costs must lie in [0, {model.c_bar}], got range "
            f"[{cost.min()}, {cost.max()}]")

    w_vals, probs = model.disturbance_rows(x, u)

    def entries():
        """(next node, p_w * wt_c) of each (atom, corner), one atom at a time."""
        for iw in range(w_vals.shape[-1]):
            nxt = np.asarray(model.dynamics(x, u, w_vals[..., iw]), dtype=np.float64)
            located = []
            for d, ax in enumerate(grid.x_axes):
                coord = np.broadcast_to(nxt[..., d], (n_u, n_x))
                if not ((coord >= ax[0]) & (coord <= ax[-1])).all():
                    raise RuntimeError(
                        f"transition left the grid along dimension {d}: "
                        f"[{coord.min()}, {coord.max()}] vs [{ax[0]}, {ax[-1]}]")
                located.append(locate_batch(ax, coord))
            for c in range(1 << grid.state_dim):
                node = np.zeros((n_u, n_x), np.int64)
                wt = np.ones((n_u, n_x))
                for d, (idx, frac) in enumerate(located):  # bit d of c set: upper node
                    up = c >> d & 1
                    wt *= frac if up else 1.0 - frac
                    upper = np.minimum(idx + up, grid.x_axes[d].size - 1)
                    node += upper * grid._x_strides[d]
                yield node, probs[..., iw] * wt

    corner_idx, corner_wt = merge_entries(entries(), (n_u, n_x))
    cz_idx, cz_frac = locate_batch(grid.z_axis, cost)
    terminal = np.asarray(model.terminal_cost(nodes), dtype=np.float64)
    if not ((terminal >= 0.0) & (terminal <= model.c_bar)).all():
        raise ValueError("terminal costs must lie in [0, c_bar]")
    return TransitionTables(corner_idx, corner_wt, cz_idx.T, cz_frac.T, terminal)


def backend() -> str:
    """Name of the Bellman step implementation (there is one: numpy)."""
    return "numpy"


def sweep_kernel(J_next, cz_idx, cz_frac, corner_idx, corner_wt):
    """One backward Bellman step over every (state node, z node) pair.

    Inputs are ``J_next`` (n_x, n_z) and the ``TransitionTables`` fields
    ``cz_idx``, ``cz_frac``, ``corner_idx``, ``corner_wt``, in the order
    that lets the benchmark's kernel counter read n_u, 1 and k from the 3rd
    to 5th arguments by position. One gather of ``J_next`` columns per slot
    builds the z-major (n_z, n_u, n_x) expectation ``q`` at z' = z from
    u-major tables without copies. The z nodes below c(x, u) are those below
    its bracket, ``j < cz_idx + (cz_frac > 0)`` (``z_j < c`` on a z axis
    that reaches c): they continue from z' = c, and the expectation is
    linear in ``J_next``, so their backup is ``q`` interpolated at c.
    Entries at or above c are bit-identical to a scalar loop that
    interpolates inside every slot term; the others differ from it by at
    most ``2 * gamma(k + 4) * max|J_next|`` per action, with
    ``gamma(n) = n u / (1 - n u)``, ``u = 2**-53`` and unit total weight.
    Returns the minimized values and the action indices, both (n_x, n_z)
    and C-contiguous: the lowest index whose backup is within ``TIE_TOL``
    of the minimum.
    """
    n_x, n_z = J_next.shape
    n_u = cz_idx.shape[1]
    JT = np.ascontiguousarray(J_next.T)
    # With no slot every q is 0; otherwise the first slot writes q.
    q = (np.empty if corner_idx.shape[3] else np.zeros)((n_z, n_u, n_x))
    buf = np.empty_like(q)
    for j in range(corner_idx.shape[3]):
        out = buf if j else q
        # In range by construction; mode "raise" would copy through a buffer.
        np.take(JT, corner_idx[:, :, 0, j].T, axis=1, out=out, mode="clip")
        out *= corner_wt[:, :, 0, j].T
        if j:
            q += buf
    m = n_u * n_x
    at = cz_idx.T * m + np.arange(m).reshape(n_u, n_x)  # flat index of q at c
    lo = q.take(at)
    hi = q.take(at + m, mode="clip")  # clips only if n_z = 1: no node below c
    np.copyto(q, (1.0 - cz_frac.T) * lo + cz_frac.T * hi,
              where=np.arange(n_z)[:, None, None] < cz_idx.T + (cz_frac.T > 0))
    best = q.min(axis=1)
    action = np.argmax(q <= (best + TIE_TOL)[:, None], axis=1)
    return np.ascontiguousarray(best.T), np.ascontiguousarray(action.T)


def value_iteration(s: float, model: SystemModel, grid: AugmentedGrid,
                    trans: TransitionTables = None):
    """Solve the full backward recursion for one dual parameter.

    Returns ``(values, action_idx)``. ``values[t]`` is J_t on the flat
    (n_xnodes, n_z) grid for t in 0..N; its entries lie in
    [0, max(c_bar - s, 0)] and are nondecreasing along z; J_0's z = 0 column
    is the swept value V^s that ``solver.sweep`` reads. ``action_idx[t]``
    (int64, t in 0..N-1) holds the argmin indices into the grid's action
    axis at the same nodes.
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
        J, U = sweep_kernel(J, trans.cz_idx, trans.cz_frac, trans.corner_idx,
                            trans.corner_wt)
        values[t] = J
        action_idx[t] = U
    return values, action_idx
