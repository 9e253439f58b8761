"""Pre-commitment policy deployment and Monte Carlo validation.

A policy is synthesized for one (initial state, risk level) pair from the
sweep's ``v0`` array: the minimizing dual parameter is read off
``solver.risk_value`` at the node nearest the initial state, value
iteration is re-solved at exactly that parameter, and the resulting argmin
tables drive the rollouts.

Records are time-major: ``RolloutBatch.states`` has shape
(horizon + 1, kept, state_dim), ``zs`` (horizon + 1, kept), ``actions`` and
``shocks`` (horizon, kept) and ``y_prime`` (num,), so recorded rollout i is
``states[:, i]``. ``rollout(..., keep=k)`` records only the first
``kept = min(num, k)`` trajectories, but every rollout's ``y_prime``.
Rollouts advance in blocks of ``_BLOCK`` trajectories. A block's state
and running maximum are plain ``(m, state_dim)`` and ``(m,)`` arrays that
each step replaces, so every step's lookups, sampling and dynamics read and
write contiguous cache-resident rows, and a block below ``kept`` writes
each step's leading columns straight into the records. A block draws its
(m, horizon) uniforms from the one generator seeded with ``seed``, in
order, so the blocks' draws laid end to end are the rows of a single
(num, horizon) draw matrix: row l is a deterministic function of
(seed, l, horizon) whatever the block size. Every element goes through the
same floating-point operations whatever the block or ``keep``, so results
do not depend on block size, batch size, ``keep`` or thread counts, and
reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cvar import Pmf, cvar_tail, var
from .dp import value_iteration
from .grids import AugmentedGrid
from .models import SystemModel
from .solver import risk_value

__all__ = ["PrecommitmentPolicy", "RolloutBatch", "synthesize_policy",
           "rollout", "estimate_risk"]

# Rollouts advanced together: one step's arrays for a block (64 KiB per
# float64 value) stay in cache, and numpy's per-call overhead is spread over
# enough elements. Blocks of 4096-32768 ran within noise of each other.
_BLOCK = 8192


@dataclass(frozen=True)
class PrecommitmentPolicy:
    """Deployment package: dual parameter fixed up front plus the tables
    ``value_iteration`` returns at it, ``values`` (N + 1, n_xnodes, n_z) and
    the argmin ``action_idx`` (N, n_xnodes, n_z) that drives the rollouts."""

    alpha: float
    x0: np.ndarray
    s_star: float
    values: np.ndarray
    action_idx: np.ndarray
    grid: AugmentedGrid

    @property
    def dp_value(self) -> float:
        """J_0 at the grid node nearest x0 and z = 0: the expected excess
        above s_star that the rollouts should reproduce."""
        node = self.grid.nearest_x_index(self.x0)
        return float(self.values[0][node, 0])


@dataclass(frozen=True)
class RolloutBatch:
    """Realized maximum costs of every rollout and the trajectories of the
    first ``kept`` of them; identical (seed, config) gives identical records."""

    states: np.ndarray   # (N + 1, kept, state_dim)
    zs: np.ndarray       # (N + 1, kept)
    actions: np.ndarray  # (N, kept)
    shocks: np.ndarray   # (N, kept)
    y_prime: np.ndarray  # (num,) realized maximum costs

    @property
    def num(self) -> int:
        """Rollouts simulated, recorded or not."""
        return self.y_prime.size


def synthesize_policy(x0, alpha, v0: np.ndarray, model: SystemModel,
                      grid: AugmentedGrid) -> PrecommitmentPolicy:
    """Fix s* at the node nearest x0, given the sweep ``v0`` on ``grid``'s s
    axis, and re-solve value iteration there. ``x0`` must be one state of
    shape (state_dim,) inside the state box, else ValueError."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (model.state_dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected one state of "
                         f"state_dim={model.state_dim} coordinates")
    for d, (lo, hi) in enumerate(model.state_bounds):
        if not lo <= x0[d] <= hi:
            raise ValueError(f"x0[{d}]={x0[d]} outside bounds [{lo}, {hi}]")
    _, s_stars = risk_value(grid.s_axis, v0, alpha)
    s_star = float(s_stars[grid.nearest_x_index(x0)])
    values, action_idx = value_iteration(s_star, model, grid)
    return PrecommitmentPolicy(float(alpha), x0, s_star, values, action_idx, grid)


def _sample_disturbances(model: SystemModel, x, u, draws):
    """Inverse-CDF sampling of w per rollout at the current (x, u): the atom
    index is the count of CDF values at most the draw, capped at n_w - 1, the
    same for a static law as for a callable one."""
    values, probs = model.disturbance_rows(x, u)
    draws = np.ascontiguousarray(draws)  # read once per atom: keep it in cache
    cdf = np.zeros(draws.shape)
    idx = np.zeros(draws.shape, dtype=np.int64)
    for k in range(probs.shape[-1] - 1):
        cdf += probs[..., k]
        idx += cdf <= draws
    return np.take_along_axis(values, idx[..., None], axis=-1)[..., 0]


def rollout(policy: PrecommitmentPolicy, num: int, seed: int,
            model: SystemModel, keep: int = None) -> RolloutBatch:
    """Deploy the policy for ``num`` seeded trajectories.

    Each control is the policy table's argmin at the (x, z) grid node
    nearest the current augmented state. Only the first ``keep``
    trajectories are recorded (all when ``keep`` is None); ``y_prime``
    covers all ``num``.
    """
    n = int(num)
    kept = n if keep is None else min(n, int(keep))
    horizon = model.horizon
    grid = policy.grid
    dim = model.state_dim
    states = np.empty((horizon + 1, kept, dim))
    zs = np.empty((horizon + 1, kept))
    acts = np.empty((horizon, kept))
    shocks = np.empty((horizon, kept))
    y_prime = np.empty(n)
    rng = np.random.default_rng(int(seed))
    for lo in range(0, n, _BLOCK):
        m = min(_BLOCK, n - lo)
        c = max(0, min(m, kept - lo))  # leading columns still to record
        draws = rng.random((m, horizon))
        x = np.full((m, dim), policy.x0)
        z = np.zeros(m)
        for t in range(horizon):
            ix = grid.nearest_x_index(x)
            jz = grid.nearest_z_index(z)
            u = grid.action_axis[policy.action_idx[t, ix, jz]]
            w = _sample_disturbances(model, x, u, draws[:, t])
            for record, step in zip((states, zs, acts, shocks), (x, z, u, w)):
                record[t, lo:lo + c] = step[:c]
            x, z = model.dynamics(x, u, w), np.maximum(z, model.stage_cost(x, u))
        states[horizon, lo:lo + c] = x[:c]
        zs[horizon, lo:lo + c] = z[:c]
        y_prime[lo:lo + m] = np.maximum(z, model.terminal_cost(x))
    return RolloutBatch(states, zs, acts, shocks, y_prime)


def estimate_risk(batch: RolloutBatch, alpha, s_star: float = None) -> dict:
    """Empirical risk statistics of the realized maximum costs.

    Builds the empirical pmf of Y' and evaluates VaR/CVaR through the risk
    functionals; ``excess_hat`` is the sample mean of max(Y' - s, 0)
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
        excess = np.maximum(batch.y_prime - float(s_star), 0.0)
        out["excess_hat"] = float(excess.mean())
        out["excess_stderr"] = float(excess.std(ddof=1) / np.sqrt(batch.num)) \
            if batch.num > 1 else 0.0
    return out
