"""Dual-parameter sweep, outer minimization, and safe-set extraction.

The pipeline:

  1. solve value iteration for every s on the grid's s axis and collect the
     z = 0 slice of J_0 (the ``DualSweep``),
  2. per state node, minimize s + V^s(x) / alpha over the s axis with
     ``cvar.minimize_dual``, the same dual minimization as ``cvar_dual``
     (the ``RiskSurface``: optimal value, its shift by g_lower, argmin s),
  3. threshold the surface at r to get the boolean safe-set mask.

Dual-parameter solves are independent, so the sweep can split the s axis
across a thread pool; the numpy array operations of the Bellman step release
the GIL. Results are assembled by index, so outputs do not depend on the
worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cvar import minimize_dual
from .dp import precompute_transitions, value_iteration
from .grids import AugmentedGrid
from .models import SystemModel

__all__ = ["DualSweep", "RiskSurface", "sweep", "risk_value", "extract_safe_set"]


@dataclass(frozen=True)
class DualSweep:
    """V^s(x) = J_0^s(x, 0) for every s on the sweep axis.

    ``v0[i, j]`` is the value at s_values[i] and flat state node j. Rows are
    nonincreasing in s, the row at s = c_bar is identically zero, and every
    column is 1-Lipschitz in s.
    """

    s_values: np.ndarray  # (n_s,)
    v0: np.ndarray        # (n_s, n_xnodes)


@dataclass(frozen=True)
class RiskSurface:
    """Optimal risk value per state node at one risk level.

    ``v_star`` minimizes s + V^s(x) / alpha over the swept s values;
    ``w_star = g_lower + v_star`` restores the original cost offset;
    ``s_star`` is the smallest minimizing dual parameter per node.
    """

    alpha: float
    v_star: np.ndarray
    w_star: np.ndarray
    s_star: np.ndarray


def sweep(model: SystemModel, grid: AugmentedGrid, threads: int = 1,
          on_solve=None) -> DualSweep:
    """Run value iteration for every dual parameter on the s axis.

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
    return DualSweep(s_values.copy(), v0)


def risk_value(dsweep: DualSweep, alpha, g_lower: float = 0.0) -> RiskSurface:
    """Outer minimization over the swept dual parameters.

    Per node, minimizes s + V^s(x) / alpha over the s axis and records the
    smallest minimizing s, both by ``cvar.minimize_dual``. ``g_lower`` is the
    model's cost offset (0 for the stormwater designs), added once to produce
    w_star.
    """
    objective, best = minimize_dual(dsweep.s_values[:, None], dsweep.v0, alpha)
    v_star = objective[best, np.arange(dsweep.v0.shape[1])]
    return RiskSurface(float(alpha), v_star, v_star + g_lower,
                       dsweep.s_values[best])


def extract_safe_set(surface: RiskSurface, r: float) -> np.ndarray:
    """The safe set as a boolean mask, one entry per state node: the exact
    sub-level comparison w_star <= r (no tolerance)."""
    return surface.w_star <= float(r)
