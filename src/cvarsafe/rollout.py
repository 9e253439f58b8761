"""Pre-commitment policy deployment and Monte Carlo validation.

A policy is synthesized for one (initial state, risk level) pair: the
minimizing dual parameter is read off the risk surface at the node nearest
the initial state, value iteration is re-solved at exactly that parameter,
and the resulting argmin tables drive the rollouts.

Rollouts advance in blocks of ``_BLOCK`` trajectories. A block draws its
(m, horizon) uniforms from the one generator seeded with ``seed``, in
order, so the blocks' draws laid end to end are the rows of a single
(num, horizon) draw matrix: row l is a deterministic function of
(seed, l, horizon) whatever the block size. Inside a block the trajectory
lives in small time-major buffers (step t of every rollout is one contiguous
row), so each step's lookups, sampling and dynamics read and write
cache-resident arrays; the finished block is copied once into the
rollout-major ``RolloutBatch`` arrays. Every element goes through the same
floating-point operations whatever the block, so results do not depend on
block size, batch size or thread counts, and reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cvar import Pmf, cvar_tail, var
from .dp import PolicyTable, ValueTable, bellman_min, value_iteration
from .grids import AugmentedGrid
from .models import SystemModel
from .solver import DualSweep, risk_value

__all__ = ["PrecommitmentPolicy", "RolloutBatch", "synthesize_policy",
           "rollout", "estimate_risk"]

# Rollouts advanced together: one step's arrays for a block (64 KiB per
# float64 value) stay in cache, and numpy's per-call overhead is spread over
# enough elements. Blocks of 4096-32768 ran within noise of each other.
_BLOCK = 8192


@dataclass(frozen=True)
class PrecommitmentPolicy:
    """Deployment package: dual parameter fixed up front plus argmin tables."""

    alpha: float
    x0: np.ndarray
    s_star: float
    value_table: ValueTable
    policy_table: PolicyTable
    grid: AugmentedGrid

    @property
    def dp_value(self) -> float:
        """J_0 at the grid node nearest x0 and z = 0: the expected excess
        above s_star that the rollouts should reproduce."""
        node = self.grid.nearest_x_index(self.x0)
        return float(self.value_table.values[0][node, 0])


@dataclass(frozen=True)
class RolloutBatch:
    """Recorded trajectories; identical (seed, config) gives identical records."""

    seed: int
    states: np.ndarray   # (num, N + 1, state_dim)
    zs: np.ndarray       # (num, N + 1)
    actions: np.ndarray  # (num, N)
    shocks: np.ndarray   # (num, N)
    y_prime: np.ndarray  # (num,) realized maximum costs (g_lower restored)

    @property
    def num(self) -> int:
        return self.states.shape[0]


def synthesize_policy(x0, alpha, dsweep: DualSweep, model: SystemModel,
                      grid: AugmentedGrid) -> PrecommitmentPolicy:
    """Fix s* at the node nearest x0 and re-solve value iteration there."""
    x0 = np.asarray(x0, dtype=np.float64)
    for d, (lo, hi) in enumerate(model.state_bounds):
        if not lo <= x0[d] <= hi:
            raise ValueError(f"x0[{d}]={x0[d]} outside bounds [{lo}, {hi}]")
    surface = risk_value(dsweep, alpha, model.g_lower)
    node = grid.nearest_x_index(x0)
    s_star = float(surface.s_star[node])
    vtable, ptable = value_iteration(s_star, model, grid)
    return PrecommitmentPolicy(float(alpha), x0, s_star, vtable, ptable, grid)


def _sample_disturbances(model: SystemModel, x, u, draws):
    """Inverse-CDF sampling of w per rollout at the current (x, u)."""
    static = model.static_disturbance
    if static is not None:
        cdf = np.cumsum(static.probs)
        idx = np.searchsorted(cdf, draws, side="right")
        return static.values[np.minimum(idx, len(static) - 1)]
    values, probs = model.disturbance_rows(x, u)
    cdf = np.cumsum(probs, axis=1)
    idx = np.minimum((cdf <= draws[:, None]).sum(axis=1), cdf.shape[1] - 1)
    return values[np.arange(values.shape[0]), idx]


def _rollout_block(policy: PrecommitmentPolicy, model: SystemModel,
                   draws: np.ndarray, reoptimize: bool):
    """Advance one block of rollouts, one row of ``draws`` (m, horizon) each.

    Returns time-major (states, zs, actions, shocks, y_prime) of shapes
    (horizon + 1, m, state_dim), (horizon + 1, m), (horizon, m), (horizon, m)
    and (m,).
    """
    m, horizon = draws.shape
    grid = policy.grid
    draws = np.ascontiguousarray(draws.T)
    xs = np.empty((horizon + 1, m, model.state_dim))
    zs = np.empty((horizon + 1, m))
    us = np.empty((horizon, m))
    ws = np.empty((horizon, m))
    xs[0] = policy.x0
    zs[0] = 0.0
    for t in range(horizon):
        x, z, u = xs[t], zs[t], us[t]
        if reoptimize:
            j_next = policy.value_table.values[t + 1]
            for i in range(m):
                _, u[i] = bellman_min(x[i], z[i], policy.s_star, j_next,
                                      model, grid)
        else:
            ix = grid.nearest_x_index(x)
            jz = grid.nearest_z_index(z)
            u[:] = grid.action_axis[policy.policy_table.action_idx[t, ix, jz]]
        ws[t] = _sample_disturbances(model, x, u, draws[t])
        xs[t + 1] = model.dynamics(x, u, ws[t])
        zs[t + 1] = np.maximum(z, model.stage_cost(x, u))
    y = np.maximum(zs[horizon], model.terminal_cost(xs[horizon]))
    return xs, zs, us, ws, y + model.g_lower


def rollout(policy: PrecommitmentPolicy, num: int, seed: int,
            model: SystemModel, reoptimize: bool = False) -> RolloutBatch:
    """Deploy the policy for ``num`` seeded trajectories.

    Controls are looked up at the nearest (x, z) grid node; with
    ``reoptimize`` they are instead re-minimized pointwise through
    ``bellman_min`` at the exact query point (slower, higher fidelity).
    """
    n = int(num)
    horizon = model.horizon
    states = np.empty((n, horizon + 1, model.state_dim))
    zs = np.empty((n, horizon + 1))
    acts = np.empty((n, horizon))
    shocks = np.empty((n, horizon))
    y_prime = np.empty(n)
    rng = np.random.default_rng(int(seed))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        xs, zb, ub, wb, y = _rollout_block(
            policy, model, rng.random((hi - lo, horizon)), reoptimize)
        states[lo:hi] = xs.transpose(1, 0, 2)
        zs[lo:hi] = zb.T
        acts[lo:hi] = ub.T
        shocks[lo:hi] = wb.T
        y_prime[lo:hi] = y
    return RolloutBatch(int(seed), states, zs, acts, shocks, y_prime)


def estimate_risk(batch: RolloutBatch, alpha, g_lower: float = 0.0,
                  s_star: float = None) -> dict:
    """Empirical risk statistics of the realized maximum costs.

    Builds the empirical pmf of Y' and evaluates VaR/CVaR through the risk
    functionals; ``excess_hat`` is the sample mean of max(Y' - g_lower - s, 0)
    at the policy's dual parameter together with its standard error.
    """
    if batch.num == 0:
        raise ValueError("empty rollout batch")
    a = float(alpha)
    dist = Pmf.from_samples(batch.y_prime)
    if a == 1.0:
        cvar_hat = dist.mean()
    else:
        cvar_hat = cvar_tail(dist, a)
    out = {
        "num": batch.num,
        "cvar_hat": float(cvar_hat),
        "var_hat": var(dist, a),
        "mean_hat": dist.mean(),
    }
    if s_star is not None:
        excess = np.maximum(batch.y_prime - g_lower - float(s_star), 0.0)
        out["excess_hat"] = float(excess.mean())
        out["excess_stderr"] = float(excess.std(ddof=1) / np.sqrt(batch.num)) \
            if batch.num > 1 else 0.0
    return out
