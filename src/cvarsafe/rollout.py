"""Pre-commitment policy deployment and Monte Carlo validation.

A policy is synthesized for one (initial state, risk level) pair from the
sweep's ``v0`` array: on the column of the node nearest the initial state,
``cvar.minimize_dual`` (as in ``solver.risk_value``) picks the dual
parameter s*, and ``v0``'s cell there is the DP value. Value iteration is
re-solved at exactly s*, and the policy keeps only its argmin tables, which
drive the rollouts.

Records are time-major: ``RolloutBatch.states`` has shape
(horizon + 1, kept, state_dim), ``zs`` (horizon + 1, kept), ``actions`` and
``shocks`` (horizon, kept) and ``y_prime`` (num,), so recorded rollout i is
``states[:, i]``. ``rollout(..., keep=k)`` records only the first
``kept = min(num, k)`` trajectories, but every rollout's ``y_prime``.

Every rollout starts at ``(x0, z = 0)``, so with ``n_w`` atoms step t has
at most ``n_w**t`` distinct augmented states. ``rollout`` builds once per
call the first D levels of this scenario tree: level t holds its nodes'
states, running maxima and actions (the same nearest-node table lookup as
a full step), and the law's atom values and CDF at the shape that
``SystemModel.disturbance_rows`` gives them: a ``Pmf``'s one (n_w,) row
and n_w - 1 scalars, or a callable law's rows, one per node where they vary
by state. Child ``node * n_w + k`` follows atom k, and level t + 1 comes
from one ``dynamics`` and one ``stage_cost`` call on (L, n_w) broadcast
inputs. D is the deepest level, up to the horizon, with at most
``min(num, _TREE_NODES)`` nodes. With a ``Pmf`` a level takes 32 bytes per
node on two-dimensional states: 17 levels and 7.3 MB, level D's states
included, for 1e6 rollouts on the two-atom law; 5 levels and 1.7 MB for
1e5 rollouts on the nine-atom law. The tree evaluates
every atom of every node, also atoms no rollout may draw, such as the
zero-probability padding atoms of a callable law. So D is also at most
the first level holding a non-finite state, which only such atoms can lead
to: the tree looks up no state there, and a rollout that does draw its
way there meets that state in a full step, as it would without the tree.

Rollouts advance in blocks of ``_BLOCK`` trajectories. A block draws its
(m, horizon) uniforms from the one generator seeded with ``seed``, in
order, so the blocks' draws laid end to end are the rows of a single
(num, horizon) draw matrix: row l is a deterministic function of
(seed, l, horizon) whatever the block size. For t < D a block only walks
the tree: a rollout's atom counts its node's CDF values at or below its
draw, as a full step does (a ``Pmf``'s scalars need no gather), and its
records are gathered from the level.
From step D on, each step does the lookups, sampling and dynamics on the
block's plain ``(m, state_dim)`` and ``(m,)`` arrays, and a block below
``kept`` writes each step's leading columns straight into the records.

Every element goes through the same floating-point operations whether it
is computed in the tree or in a full step, whatever the block, ``keep`` or
D, so results do not depend on block size, batch size, ``keep`` or thread
counts, and reruns are bit-identical. This rests on the model's
``dynamics``, ``stage_cost``, ``terminal_cost`` and callable disturbance
law being elementwise over their batch axes: each output row depends only
on its own inputs, not on the batch's size or shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cvar import _check_alpha, minimize_dual
from .dp import value_iteration
from .grids import AugmentedGrid
from .models import SystemModel

__all__ = ["PrecommitmentPolicy", "RolloutBatch", "synthesize_policy",
           "rollout", "estimate_risk"]

# Rollouts advanced together: one step's arrays for a block (64 KiB per
# float64 value) stay in cache, and numpy's per-call overhead is spread over
# enough elements. Blocks of 4096-32768 ran within noise of each other.
_BLOCK = 8192

# Most nodes in the scenario tree's deepest level (module docstring), 16
# blocks: 1e6 two-atom rollouts walk the tree for 17 of their 20 steps, 1e5
# nine-atom ones for 5. On the deploy-mc inputs (2-core VM) one rollout call
# took a median 0.40, 0.36, 0.32 and 0.31 s at 2**15 to 2**18, and its
# tracemalloc peak was 15, 17, 22 and 35 MB: 2**17 is the last doubling
# that pays for its memory.
_TREE_NODES = 1 << 17

# Slack in ``estimate_risk``'s VaR rank, so that an exact-fraction CDF level
# (0.25, 0.75, ...) picks its order statistic robustly after rounding.
_CDF_SLACK = 1e-9


@dataclass(frozen=True)
class PrecommitmentPolicy:
    """Deployment package: the dual parameter fixed up front, the DP value
    the rollouts should reproduce, and the argmin ``action_idx``
    (N, n_xnodes, n_z) that ``value_iteration`` returns at ``s_star``, read
    at the ``grid`` nodes nearest each augmented state."""

    x0: np.ndarray
    s_star: float
    dp_value: float  # v0 at s* and the node nearest x0: E[max(Y - s*, 0)]
    action_idx: np.ndarray
    grid: AugmentedGrid


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
    """Fix s* at the node nearest x0 from the sweep ``v0`` on ``grid``'s s
    axis, with ``dp_value`` v0's cell there, and re-solve value iteration at
    s* for its action tables only. ``x0`` must be one state of shape
    (state_dim,) inside the state box, else ValueError."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (model.state_dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected one state of "
                         f"state_dim={model.state_dim} coordinates")
    for d, (lo, hi) in enumerate(model.state_bounds):
        if not lo <= x0[d] <= hi:
            raise ValueError(f"x0[{d}]={x0[d]} outside bounds [{lo}, {hi}]")
    node = grid.nearest_x_index(x0)
    i = minimize_dual(grid.s_axis, v0[:, node], alpha)[1]
    s_star = float(grid.s_axis[i])
    _, action_idx = value_iteration(s_star, model, grid)
    return PrecommitmentPolicy(x0, s_star, float(v0[i, node]), action_idx, grid)


def _actions(policy: PrecommitmentPolicy, t: int, x, z):
    """Action values of the step-``t`` argmin table at the (x, z) grid nodes
    nearest each row's augmented state, read by one flat index."""
    grid = policy.grid
    flat = grid.nearest_x_index(x) * grid.z_axis.size + grid.nearest_z_index(z)
    return grid.action_axis.take(policy.action_idx[t].ravel().take(flat))


def _cdf_rows(model: SystemModel, x, u):
    """Atom values at (x, u), at the shape ``disturbance_rows`` gives them, and
    the law's CDF as n_w - 1 arrays of the rows' batch shape (0-d for a
    ``Pmf``): entry k is ``probs[..., 0] + ... + probs[..., k]``, accumulated
    in that order from 0."""
    values, probs = model.disturbance_rows(x, u)
    cdf = [np.zeros(probs.shape[:-1])]
    for k in range(probs.shape[-1] - 1):
        cdf.append(cdf[-1] + probs[..., k])
    return values, cdf[1:]


def _atoms(cdf, draws, rows=None):
    """Inverse-CDF atom index per draw: the count of CDF values at most the
    draw, so at most n_w - 1. Draw i reads CDF entry ``rows[i]`` where the
    entries vary by row, or entry i when ``rows`` is None; a CDF of one entry
    is read by every draw."""
    idx = np.zeros(draws.shape, dtype=np.int64)
    for c in cdf:
        idx += (c if rows is None or c.size == 1 else c.take(rows)) <= draws
    return idx


def _sample_disturbances(model: SystemModel, x, u, draws):
    """One shock per rollout at its own (x, u), the same for a static law as
    for a callable one."""
    values, cdf = _cdf_rows(model, x, u)
    idx = _atoms(cdf, draws)
    values = np.broadcast_to(values, idx.shape + values.shape[-1:])
    return np.take_along_axis(values, idx[..., None], axis=-1)[..., 0]


def _scenario_tree(policy: PrecommitmentPolicy, model: SystemModel, cap: int):
    """The first ``D`` levels of the scenario tree from ``(x0, 0)``, and the
    states ``(x, z)`` of level ``D``.

    Level ``t`` is a tuple ``(x, z, u, w, cdf)``: its nodes' states
    (L, state_dim) and running maxima (L,), their actions (L,), their atom
    values as an (L, n_w) broadcast view of the rows ``_cdf_rows`` gives,
    and their CDF as it gives it, so a ``Pmf`` adds only its (n_w,) values
    and n_w - 1 scalars to the level. Child
    ``node * n_w + k`` follows atom ``k`` of ``node``. ``D`` is the deepest
    level, up to the horizon, with at most ``cap`` nodes, and at most the
    first level holding a non-finite state (module docstring).
    """
    x, z = np.full((1, model.state_dim), policy.x0), np.zeros(1)
    levels = []
    for t in range(model.horizon):
        if not (np.isfinite(x).all() and np.isfinite(z).all()):
            break
        u = _actions(policy, t, x, z)
        values, cdf = _cdf_rows(model, x, u)
        n_w = values.shape[-1]
        if z.size * n_w > cap:
            break
        levels.append((x, z, u, np.broadcast_to(values, (z.size, n_w)), cdf))
        x_next = model.dynamics(x[:, None], u[:, None], values)
        z = np.repeat(np.maximum(z, model.stage_cost(x, u)), n_w)
        x = x_next.reshape(z.size, -1)
    return levels, x, z


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
    dim = model.state_dim
    states = np.empty((horizon + 1, kept, dim))
    zs = np.empty((horizon + 1, kept))
    acts = np.empty((horizon, kept))
    shocks = np.empty((horizon, kept))
    y_prime = np.empty(n)
    levels, tree_x, tree_z = _scenario_tree(policy, model, min(n, _TREE_NODES))
    rng = np.random.default_rng(int(seed))
    for lo in range(0, n, _BLOCK):
        m = min(_BLOCK, n - lo)
        c = max(0, min(m, kept - lo))  # leading columns still to record
        draws = rng.random((m, horizon)).T.copy()  # row t: step t's draws
        node = np.zeros(m, dtype=np.int64)
        for t, (lx, lz, lu, lw, cdf) in enumerate(levels):
            atom = _atoms(cdf, draws[t], node)
            head = node[:c]
            states[t, lo:lo + c] = lx[head]
            zs[t, lo:lo + c] = lz[head]
            acts[t, lo:lo + c] = lu[head]
            shocks[t, lo:lo + c] = lw[head, atom[:c]]
            node = node * lw.shape[1] + atom
        x, z = tree_x[node], tree_z[node]
        for t in range(len(levels), horizon):
            u = _actions(policy, t, x, z)
            w = _sample_disturbances(model, x, u, draws[t])
            for record, step in zip((states, zs, acts, shocks), (x, z, u, w)):
                record[t, lo:lo + c] = step[:c]
            x, z = model.dynamics(x, u, w), np.maximum(z, model.stage_cost(x, u))
        states[horizon, lo:lo + c] = x[:c]
        zs[horizon, lo:lo + c] = z[:c]
        y_prime[lo:lo + m] = np.maximum(z, model.terminal_cost(x))
    return RolloutBatch(states, zs, acts, shocks, y_prime)


def estimate_risk(batch: RolloutBatch, alpha, s_star: float) -> dict:
    """Empirical risk statistics of the realized maximum costs, all read off
    one sorted copy of Y'.

    On the n sorted draws y, ``var_hat`` is the order statistic
    ``y[ceil(n (1 - alpha - _CDF_SLACK)) - 1]`` (the smallest draw whose
    empirical CDF reaches 1 - alpha, clipped to the sample), ``cvar_hat``
    the tail form ``var_hat + sum_{y > var_hat} (y - var_hat) / (n alpha)``
    (the mean at alpha = 1), and ``excess_hat`` the sample mean of
    max(Y' - s_star, 0) with its standard error ``excess_stderr``. Besides
    the copy, only the tail above ``var_hat`` is held once more: the excess
    shifts the copy's tail above s_star in place, last. Raises ValueError
    on an empty batch, alpha outside (0, 1], a non-finite s_star or a
    non-finite Y'.
    """
    n = batch.num
    if n == 0:
        raise ValueError("empty rollout batch")
    a = _check_alpha(alpha)
    s = float(s_star)
    if not np.isfinite(s):
        raise ValueError(f"s_star must be finite, got {s_star!r}")
    y = np.sort(batch.y_prime)
    if not np.isfinite(y[[0, -1]]).all():  # -inf sorts first, inf and NaN last
        raise ValueError("atom values must be finite")
    var_hat = float(y[min(max(math.ceil(n * (1.0 - a - _CDF_SLACK)) - 1, 0), n - 1)])
    mean_hat = float(y.sum() / n)
    cvar_hat = mean_hat
    if a < 1.0:
        tail = y[np.searchsorted(y, var_hat, side="right"):] - var_hat
        cvar_hat = var_hat + float(tail.sum()) / (n * a)
    k = int(np.searchsorted(y, s, side="right"))
    excess = y[k:]  # a view: the copy's tail becomes Y' - s_star there
    excess -= s
    m = excess.sum() / n
    stderr = 0.0
    if n > 1:
        excess -= m
        np.square(excess, out=excess)
        stderr = float(np.sqrt((excess.sum() + k * m * m) / (n - 1)) / np.sqrt(n))
    return {
        "num": n,
        "cvar_hat": cvar_hat,
        "var_hat": var_hat,
        "mean_hat": mean_hat,
        "excess_hat": float(m),
        "excess_stderr": stderr,
    }
