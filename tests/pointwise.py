"""Independent reference computations, used only by the tests.

The library computes backups with ``dp.sweep_kernel`` on merged
transition tables and brackets values with ``grids.locate_batch``. The
functions here do the same arithmetic one point at a time and share no
code with those two, so tests can compare the vectorized path against them.
``unmerged_transitions`` builds the tables before the merge, one entry per
(atom, corner), and ``stage_costs`` the cost table that the references'
``z >= c`` rule reads; only the tie rule's tolerance ``dp.TIE_TOL`` is shared.

``nearest_on_axis`` is the direct nearest-node rule (a ``searchsorted``
bracket, then the nearer end) that the grid's decision-point lookups must
reproduce index for index.

``expectation_dp`` is the independent expectation-minimizing grid DP
(scipy interpolation) used to cross-check the risk pipeline at alpha = 1.
"""

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from cvarsafe import AugmentedGrid, SystemModel
from cvarsafe.dp import TIE_TOL


def locate(axis: np.ndarray, v: float):
    """Bracket ``v`` on a sorted axis: (lower index, fraction in [0, 1]).

    The fraction is exactly 0.0 when ``v`` sits on a node, so interpolating
    at a node reproduces the stored value bit-exactly. Values outside the
    axis clamp to the ends.
    """
    n = axis.size
    if n == 1:
        return 0, 0.0
    if v <= axis[0]:
        return 0, 0.0
    if v >= axis[-1]:
        return n - 2, 1.0
    idx = int(np.searchsorted(axis, v, side="right")) - 1
    idx = min(idx, n - 2)
    frac = (v - axis[idx]) / (axis[idx + 1] - axis[idx])
    return idx, float(frac)


def nearest_on_axis(axis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Index of the node of a sorted axis nearest to each value; ties go to
    the lower node and values outside the axis go to its ends."""
    if axis.size == 1:
        return np.zeros(v.shape, dtype=np.int64)
    hi = np.clip(np.searchsorted(axis, v, side="left"), 0, axis.size - 1)
    lo = np.maximum(hi - 1, 0)
    pick_hi = (axis[hi] - v) < (v - axis[lo])
    return np.where(pick_hi, hi, lo).astype(np.int64)


def interp_xz(grid: AugmentedGrid, table: np.ndarray, x, z: float) -> float:
    """Multilinear interpolation of a flat (n_xnodes, n_z) table at one point."""
    x = np.asarray(x, dtype=np.float64).ravel()
    kz, fz = locate(grid.z_axis, float(z))
    locs = [locate(ax, x[d]) for d, ax in enumerate(grid.x_axes)]
    strides = grid._x_strides
    total = 0.0
    for corner in range(1 << grid.state_dim):
        wt = 1.0
        flat = 0
        for d, (idx, frac) in enumerate(locs):
            if corner >> d & 1:
                wt *= frac
                flat += min(idx + 1, grid.x_axes[d].size - 1) * strides[d]
            else:
                wt *= 1.0 - frac
                flat += idx * strides[d]
        if wt == 0.0:
            continue
        lo = table[flat, kz]
        if fz > 0.0:
            lo = (1.0 - fz) * lo + fz * table[flat, kz + 1]
        total += wt * lo
    return float(total)


def backup_q(x, z, u, s, J_next, model: SystemModel, grid: AugmentedGrid) -> float:
    """Expected interpolated continuation value for one (x, z, u).

    ``J_next`` is a flat (n_xnodes, n_z) table for the dual parameter ``s``
    (s itself enters only through that table).
    """
    x = np.asarray(x, dtype=np.float64)
    c = float(model.stage_cost(x, u))
    if not 0.0 <= c <= model.c_bar:
        raise ValueError(f"stage cost {c} outside [0, {model.c_bar}]")
    z_next = max(float(z), c)
    total = 0.0
    for w, p in zip(*model.disturbance_rows(x, u)):
        x_next = model.dynamics(x, u, w)
        total += p * interp_xz(grid, J_next, x_next, z_next)
    return total


def bellman_min(x, z, s, J_next, model: SystemModel, grid: AugmentedGrid):
    """Minimize ``backup_q`` over the action axis.

    Returns (value, action): the minimum and the smallest grid action whose
    backup is within ``TIE_TOL`` of it.
    """
    qs = [backup_q(x, z, float(u), s, J_next, model, grid) for u in grid.action_axis]
    best = min(qs)
    return best, float(next(u for u, q in zip(grid.action_axis, qs)
                            if q <= best + TIE_TOL))


def stage_costs(model: SystemModel, grid: AugmentedGrid) -> np.ndarray:
    """c(x, u) at every (state node, grid action), (n_x, n_u), one point at
    a time: the cost table of the references' ``z >= c`` rule."""
    return np.array([[float(model.stage_cost(x, float(u))) for u in grid.action_axis]
                     for x in grid.x_nodes()])


def unmerged_transitions(model: SystemModel, grid: AugmentedGrid):
    """``(probs, corner_idx, corner_wt)`` of shapes (n_x, n_u, n_w) and
    (n_x, n_u, n_w, 2**dim): every (atom, corner) entry of every (x, u)
    before the merge, each next state bracketed by ``locate`` one
    coordinate at a time and each corner weight multiplied up in dimension
    order."""
    nodes = grid.x_nodes()
    actions = grid.action_axis
    n_x, n_u, dim = nodes.shape[0], actions.size, grid.state_dim
    w_vals, probs = model.disturbance_rows(nodes[:, None, :], actions[None, :])
    n_w = w_vals.shape[-1]
    w_vals, probs = (np.broadcast_to(a, (n_x, n_u, n_w)) for a in (w_vals, probs))
    nxt = np.broadcast_to(
        model.dynamics(nodes[:, None, None, :], actions[None, :, None], w_vals),
        (n_x, n_u, n_w, dim))
    corner_idx = np.zeros((n_x, n_u, n_w, 1 << dim), np.int64)
    corner_wt = np.ones((n_x, n_u, n_w, 1 << dim))
    for d, ax in enumerate(grid.x_axes):
        bracket = np.vectorize(lambda v: locate(ax, v), otypes=[np.int64, np.float64])
        idx, frac = bracket(nxt[..., d])
        for c in range(1 << dim):
            up = c >> d & 1
            corner_wt[..., c] *= frac if up else 1.0 - frac
            corner_idx[..., c] += np.minimum(idx + up, ax.size - 1) * grid._x_strides[d]
    return np.array(probs), corner_idx, corner_wt


def expectation_dp(model: SystemModel, grid: AugmentedGrid) -> np.ndarray:
    """min over policies of E[Y] per state node, Y the maximum cost.

    Independent of the dual-parameter machinery: augmented DP with objective
    J_N = max(c_N, z), interpolating through scipy's grid interpolator.
    Returns the z = 0 slice of J_0 (one value per flat state node).
    """
    if grid.z_axis[0] != 0.0:
        raise ValueError("expectation_dp requires a z axis starting at 0")
    nodes = grid.x_nodes()
    n_x, n_z = nodes.shape[0], grid.z_axis.size
    axes = tuple(grid.x_axes) + (grid.z_axis,)
    table_shape = grid.x_shape + (n_z,)

    term = np.asarray(model.terminal_cost(nodes), dtype=np.float64)
    J = np.maximum(term[:, None], grid.z_axis[None, :])
    static = model.static_disturbance
    for _ in range(model.horizon):
        itp = RegularGridInterpolator(axes, J.reshape(table_shape), method="linear")
        best = np.full((n_x, n_z), np.inf)
        for u in grid.action_axis:
            c = np.broadcast_to(
                np.asarray(model.stage_cost(nodes, float(u)), dtype=np.float64),
                (n_x,))
            z_next = np.maximum(grid.z_axis[None, :], c[:, None])
            q = np.zeros((n_x, n_z))
            if static is not None:
                for w, p in zip(static.values, static.probs):
                    x_next = np.asarray(model.dynamics(nodes, float(u), float(w)),
                                        dtype=np.float64)
                    pts = np.concatenate(
                        [np.repeat(x_next[:, None, :], n_z, axis=1),
                         z_next[:, :, None]], axis=2)
                    q += p * itp(pts.reshape(-1, len(axes))).reshape(n_x, n_z)
            else:
                for i in range(n_x):
                    for w, p in zip(*model.disturbance_rows(nodes[i], float(u))):
                        x_next = np.asarray(
                            model.dynamics(nodes[i], float(u), float(w)),
                            dtype=np.float64).ravel()
                        pts = np.concatenate(
                            [np.repeat(x_next[None, :], n_z, axis=0),
                             z_next[i][:, None]], axis=1)
                        q[i] += p * itp(pts)
            np.minimum(best, q, out=best)
        J = best
    return J[:, 0]
