"""Dual-parameter sweep, outer minimization, and safe-set extraction.

The pipeline, on plain arrays:

  1. ``sweep``: solve value iteration for every s on the grid's s axis and
     collect the z = 0 slice of J_0, ``v0[i, j] = V^{s_i}(x_j)`` with s_i =
     ``grid.s_axis[i]``. Rows are nonincreasing in s, the row at s = c_bar is
     identically zero, and every column is 1-Lipschitz in s;
  2. ``risk_value``: per state node, minimize s + V^s(x) / alpha over the s
     axis with ``cvar.minimize_dual``, the same dual minimization as
     ``cvar_dual``, giving the risk value ``w_star`` and its argmin ``s_star``;
  3. ``extract_safe_set``: threshold ``w_star`` at r to get the boolean
     safe-set mask.

Dual-parameter solves are independent, so the sweep can split the s axis
across a thread pool; the numpy array operations of the Bellman step release
the GIL. Results are assembled by index, so outputs do not depend on the
worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .cvar import minimize_dual
from .dp import precompute_transitions, value_iteration
from .grids import AugmentedGrid
from .models import SystemModel

__all__ = ["sweep", "risk_value", "extract_safe_set"]


def sweep(model: SystemModel, grid: AugmentedGrid, threads: int = 1,
          on_solve=None) -> np.ndarray:
    """Run value iteration for every dual parameter on the s axis and return
    ``v0`` of shape (n_s, n_xnodes), row i at ``grid.s_axis[i]``.

    The z axis must start at 0 (the sweep reads the z = 0 column of J_0).
    ``threads`` bounds the worker count; any count yields identical output.
    The sweep prints nothing: ``on_solve(s, values, action_idx)``, when
    given, is called from each solve's worker thread as it finishes with the
    tables ``value_iteration`` returned, for a caller to report progress or
    keep them; ``sweep`` drops them.
    """
    if grid.z_axis[0] != 0.0:
        raise ValueError("sweep requires a z axis starting at 0")
    trans = precompute_transitions(model, grid)
    s_values = grid.s_axis
    v0 = np.empty((s_values.size, grid.n_xnodes))

    def solve_one(i: int):
        values, action_idx = value_iteration(float(s_values[i]), model, grid, trans)
        v0[i] = values[0][:, 0]
        if on_solve is not None:
            on_solve(s_values[i], values, action_idx)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            list(pool.map(solve_one, range(s_values.size)))
    else:
        for i in range(s_values.size):
            solve_one(i)
    return v0


def risk_value(s_values, v0, alpha):
    """``(w_star, s_star)``: per node, the minimum of s + V^s(x) / alpha over
    ``s_values`` (ascending, one per row of ``v0``) and the smallest
    minimizing s, both by ``cvar.minimize_dual``."""
    objective, best = minimize_dual(s_values[:, None], v0, alpha)
    return objective[best, np.arange(v0.shape[1])], s_values[best]


def extract_safe_set(w_star: np.ndarray, r: float) -> np.ndarray:
    """The safe set as a boolean mask, one entry per state node: the exact
    sub-level comparison w_star <= r (no tolerance)."""
    return w_star <= float(r)
