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

import threading
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

    The z axis must run from 0 to at least ``model.c_bar``, else ValueError:
    ``sweep`` alone reads J_0 at z = 0, and deploy takes s* and V^s from v0.
    ``threads`` bounds the number of solves run at once: the calling thread
    and ``min(threads, n_s) - 1`` helper threads each take the next s until
    none is left. Any count yields identical output. The sweep prints nothing:
    ``on_solve(s, values, action_idx)``, when given, is called from the
    thread that solved ``s`` as it finishes, with the tables
    ``value_iteration`` returned, for a caller to report progress or keep
    them; ``sweep`` drops them.
    """
    z_ends = grid.z_axis[[0, -1]]
    if z_ends[0] != 0.0 or z_ends[1] < model.c_bar:
        raise ValueError(f"sweep requires a z axis from 0 to at least c_bar="
                         f"{model.c_bar}, got {z_ends[0]} to {z_ends[1]}")
    trans = precompute_transitions(model, grid)
    s_values = grid.s_axis
    v0 = np.empty((s_values.size, grid.n_xnodes))

    def solve_one(i: int):
        values, action_idx = value_iteration(float(s_values[i]), model, grid, trans)
        v0[i] = values[0][:, 0]
        if on_solve is not None:
            on_solve(s_values[i], values, action_idx)

    todo = iter(range(s_values.size))
    lock = threading.Lock()

    def solve_rest():
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            solve_one(i)

    # The calling thread solves beside threads - 1 helpers rather than
    # waiting for threads workers. As many solves run at once, but glibc
    # keeps what a thread frees in that thread's own arena, so each extra
    # thread holds about one solve's memory (4 MB on the coarse baseline)
    # after the sweep, out of reach of the caller's later work.
    helpers = min(int(threads), s_values.size) - 1
    with ThreadPoolExecutor(max_workers=max(helpers, 1)) as pool:
        futures = [pool.submit(solve_rest) for _ in range(helpers)]
        solve_rest()
        for future in futures:
            future.result()
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
