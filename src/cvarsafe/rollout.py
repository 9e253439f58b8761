"""Pre-commitment policy deployment and Monte Carlo validation.

A policy is synthesized for one (initial state, risk level) pair: the
minimizing dual parameter is read off the risk surface at the node nearest
the initial state, value iteration is re-solved at exactly that parameter,
and the resulting argmin tables drive the rollouts.

Records are time-major: ``RolloutBatch.states`` has shape
(horizon + 1, num, state_dim), ``zs`` (horizon + 1, num), ``actions`` and
``shocks`` (horizon, num) and ``y_prime`` (num,), so rollout i is
``states[:, i]``. Rollouts advance in blocks of ``_BLOCK`` trajectories,
each step writing straight into the contiguous ``[t, lo:hi]`` slices of the
batch arrays, so every step's lookups, sampling and dynamics read and write
cache-resident rows. A block draws its (m, horizon) uniforms from the one
generator seeded with ``seed``, in order, so the blocks' draws laid end to
end are the rows of a single (num, horizon) draw matrix: row l is a
deterministic function of (seed, l, horizon) whatever the block size. Every
element goes through the same floating-point operations whatever the block,
so results do not depend on block size, batch size or thread counts, and
reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cvar import Pmf, cvar_tail, var
from .dp import PolicyTable, ValueTable, value_iteration
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

    states: np.ndarray   # (N + 1, num, state_dim)
    zs: np.ndarray       # (N + 1, num)
    actions: np.ndarray  # (N, num)
    shocks: np.ndarray   # (N, num)
    y_prime: np.ndarray  # (num,) realized maximum costs (g_lower restored)

    @property
    def num(self) -> int:
        return self.states.shape[1]


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


def rollout(policy: PrecommitmentPolicy, num: int, seed: int,
            model: SystemModel) -> RolloutBatch:
    """Deploy the policy for ``num`` seeded trajectories.

    Each control is the policy table's argmin at the (x, z) grid node
    nearest the current augmented state.
    """
    n = int(num)
    horizon = model.horizon
    grid = policy.grid
    states = np.empty((horizon + 1, n, model.state_dim))
    zs = np.empty((horizon + 1, n))
    acts = np.empty((horizon, n))
    shocks = np.empty((horizon, n))
    y_prime = np.empty(n)
    states[0] = policy.x0
    zs[0] = 0.0
    rng = np.random.default_rng(int(seed))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        draws = rng.random((hi - lo, horizon))
        for t in range(horizon):
            x, z = states[t, lo:hi], zs[t, lo:hi]
            u, w = acts[t, lo:hi], shocks[t, lo:hi]
            ix = grid.nearest_x_index(x)
            jz = grid.nearest_z_index(z)
            u[:] = grid.action_axis[policy.policy_table.action_idx[t, ix, jz]]
            w[:] = _sample_disturbances(model, x, u, draws[:, t])
            states[t + 1, lo:hi] = model.dynamics(x, u, w)
            zs[t + 1, lo:hi] = np.maximum(z, model.stage_cost(x, u))
        y = np.maximum(zs[horizon, lo:hi],
                       model.terminal_cost(states[horizon, lo:hi]))
        y_prime[lo:hi] = y + model.g_lower
    return RolloutBatch(states, zs, acts, shocks, y_prime)


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
