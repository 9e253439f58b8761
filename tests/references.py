"""Exact references used only by the tests.

``var``, ``expected_excess`` and ``cvar_tail`` are the tail form of CVaR,
VaR + E[max(Y - VaR, 0)] / alpha, on a ``Pmf`` (``empirical_pmf`` makes one
of a sample): the independent reference that ``cvar.cvar_dual`` and
``rollout.estimate_risk`` are compared against.
``policy_law`` is the law of the maximum cost of a ``TinyInstance`` under
a fixed policy, by its own depth-first walk of the disturbance paths;
``exact_policy_cvar`` scores it, and ``exact_optimal_cvar_loop`` scores
every augmented-state policy with it one at a time, the reference of
``oracle.exact_optimal_cvar``, which shares no walk with it;
``exact_optimal_cvar_history`` enumerates history-dependent policies;
``q_pump_piecewise`` is the pump flow in its original four-case form, an
independent cross-check of ``models.q_pump``; ``sweep_kernel_xmajor`` is the
Bellman step in the x-major order that ``dp.sweep_kernel`` replaced, which
it must match bit for bit; ``rollout_direct`` is ``rollout.rollout`` before
the scenario tree, every trajectory advanced by full steps, which
``rollout`` must match bit for bit.
"""

import itertools
from typing import Dict

import numpy as np

from cvarsafe import Pmf, StormwaterParams, TinyInstance, cvar_dual
from cvarsafe.cvar import _check_alpha, check_prob_rows
from cvarsafe.dp import TIE_TOL
from cvarsafe.oracle import OracleError
from cvarsafe.rollout import _CDF_SLACK, RolloutBatch


def empirical_pmf(samples) -> Pmf:
    """Empirical pmf of a sample array (equal weight per draw)."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("need at least one sample")
    uniq, counts = np.unique(samples, return_counts=True)
    if not np.isfinite(uniq[[0, -1]]).all():  # -inf sorts first, inf and NaN last
        raise ValueError("atom values must be finite")
    return Pmf._merged(uniq, counts / samples.size)


def var(dist: Pmf, alpha) -> float:
    """Value-at-Risk at level alpha: the left-side (1 - alpha)-quantile.

    Returns the smallest atom value y with P(Y <= y) >= 1 - alpha, the CDF
    compared with ``_CDF_SLACK`` of slack. At alpha = 1 the threshold is
    zero, so the smallest atom is returned.
    """
    a = _check_alpha(alpha)
    cdf = np.cumsum(dist.probs)
    idx = int(np.searchsorted(cdf, 1.0 - a - _CDF_SLACK, side="left"))
    return float(dist.values[min(idx, dist.values.size - 1)])


def expected_excess(dist: Pmf, s: float) -> float:
    """E[max(Y - s, 0)]: mean excess of the distribution above s.

    Nonincreasing and convex in s; equals mean - s for s below the smallest
    atom and 0 at or above the largest.
    """
    return float(np.maximum(dist.values - float(s), 0.0) @ dist.probs)


def cvar_tail(dist: Pmf, alpha) -> float:
    """CVaR at level alpha in (0, 1) via VaR + E[max(Y - VaR, 0)] / alpha.

    Not defined at alpha = 1, where CVaR is the mean.
    """
    a = _check_alpha(alpha)
    if a == 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    v = var(dist, a)
    return v + expected_excess(dist, v) / a


def policy_law(inst: TinyInstance, get_action) -> Pmf:
    """Exact pmf of the maximum cost Y under the policy
    ``get_action(t, x index, z)``, by enumerating every disturbance path
    from (x0, z=0); an action that is missing (``None``) or out of range
    raises ``OracleError``."""
    out: Dict[float, float] = {}
    stack = [(0, inst.x0, 0.0, 1.0)]
    while stack:
        t, xi, z, pr = stack.pop()
        if t == inst.horizon:
            y = max(z, float(inst.terminal[xi]))
            out[y] = out.get(y, 0.0) + pr
            continue
        ai = get_action(t, xi, z)
        if ai is None or not 0 <= ai < inst.n_actions:
            raise OracleError(f"policy queried at unreachable node {(t, xi, z)}")
        cost, atoms = inst.successors[xi][ai]
        stack.extend((t + 1, nxt, max(z, cost), pr * p) for nxt, p in atoms)
    ys = sorted(out)
    probs = np.array([out[y] for y in ys])
    check_prob_rows(probs, "atom")
    return Pmf._merged(np.array(ys), probs)


def exact_policy_cvar(inst: TinyInstance, policy, alpha) -> float:
    """CVaR of the maximum cost under a fixed augmented-state policy.

    ``policy`` maps (t, state index, z value) to an action index; missing
    entries raise ``OracleError``.
    """
    def get_action(t, xi, z):
        return policy.get((t, xi, z)) if hasattr(policy, "get") else policy(t, xi, z)

    return cvar_dual(policy_law(inst, get_action), alpha)[0]


def exact_optimal_cvar_loop(inst: TinyInstance, alpha):
    """``(value, policy)``: the first policy, in ``itertools.product`` order
    over the reachable (t, x, z) slots, of least CVaR, each policy walked by
    ``policy_law`` and scored by ``cvar_dual``."""
    layers = inst.reachable_nodes()
    slots = [(t, xi, z) for t in range(inst.horizon) for xi, z in layers[t]]
    slot_of = {node: i for i, node in enumerate(slots)}

    best_value = np.inf
    best_assignment = None
    for assignment in itertools.product(range(inst.n_actions), repeat=len(slots)):
        def get_action(t, xi, z, _a=assignment):
            return _a[slot_of[(t, xi, z)]]

        value = cvar_dual(policy_law(inst, get_action), alpha)[0]
        if value < best_value:
            best_value = value
            best_assignment = assignment
    return float(best_value), dict(zip(slots, best_assignment))


def exact_optimal_cvar_history(inst: TinyInstance, alpha) -> float:
    """Minimum CVaR over fully history-dependent policies (horizon <= 2).

    At t = 1 the action may depend on the whole branch (x0, u0, w0), which
    strictly contains the (x1, z1) information; used as a finite spot check
    that augmented-state feedback is not beaten by richer policies.
    """
    if inst.horizon > 2:
        raise ValueError("history enumeration supported for horizon <= 2")
    if inst.horizon == 1:
        best = np.inf
        for a0 in range(inst.n_actions):
            best = min(best, exact_policy_cvar(inst, {(0, inst.x0, 0.0): a0}, alpha))
        return float(best)

    best = np.inf
    for a0 in range(inst.n_actions):
        z1 = max(0.0, float(inst.cost[inst.x0, a0]))
        branches = [wi for wi in range(inst.n_atoms)
                    if inst.probs[inst.x0, a0, wi] > 0.0]
        for choice in itertools.product(range(inst.n_actions), repeat=len(branches)):
            atoms: Dict[float, float] = {}
            for wi, a1 in zip(branches, choice):
                p0 = float(inst.probs[inst.x0, a0, wi])
                x1 = int(inst.next_idx[inst.x0, a0, wi])
                z2 = max(z1, float(inst.cost[x1, a1]))
                for w1 in range(inst.n_atoms):
                    p1 = float(inst.probs[x1, a1, w1])
                    if p1 == 0.0:
                        continue
                    x2 = int(inst.next_idx[x1, a1, w1])
                    y = max(z2, float(inst.terminal[x2]))
                    atoms[y] = atoms.get(y, 0.0) + p0 * p1
            value = cvar_dual(Pmf(list(atoms.keys()), list(atoms.values())), alpha)[0]
            best = min(best, value)
    return float(best)


def q_pump_piecewise(x, u, params: StormwaterParams):
    """Pump flow in the original four-case form; scalar x, u only.

    Kept as an independent cross-check of ``q_pump``; the two agree to
    machine precision on the whole domain.
    """
    p = params.pump
    if p is None:
        raise ValueError("q_pump requires pump parameters (design b)")
    x1, x2 = float(x[0]), float(x[1])
    u = float(u)
    lo, hi = p.z_elev - p.eps, p.z_elev + p.eps

    def startup(level):
        return (p.q_max * u / (2.0 * p.eps)) * (level + p.eps - p.z_elev)

    if (x1 < lo and u < 0.0) or (x2 < lo and u >= 0.0):
        return 0.0
    if lo <= x1 <= hi and u < 0.0:
        return -startup(x1)
    if lo <= x2 <= hi and u >= 0.0:
        return -startup(x2)
    return -u * p.q_max


def sweep_kernel_xmajor(J_next, z_axis, cost, probs, corner_idx, corner_wt,
                        cz_idx, cz_frac):
    """``dp.sweep_kernel`` with its work in x-major (n_x, n_u, n_z) arrays,
    on tables in group form: ``probs`` (n_x, n_u, n_g) weights groups of
    (node, weight) slots in ``corner_idx`` and ``corner_wt`` (n_x, n_u,
    n_g, n_s). Given the kernel's slots as one group of probability 1, each
    term goes through the same operations in the same order (and a product
    by 1.0 is exact), so values and actions are bit-identical, whatever the
    tables' layout. It picks the z nodes below the cost by the float test
    ``z < cost``, independently of the kernel's bracket rule."""
    n_z = J_next.shape[1]
    q = np.zeros(cost.shape + (n_z,))
    v = np.empty_like(q)
    buf = np.empty_like(q)
    for iw in range(probs.shape[2]):
        v.fill(0.0)
        for c in range(corner_idx.shape[3]):
            np.take(J_next, corner_idx[:, :, iw, c], axis=0, out=buf, mode="clip")
            buf *= corner_wt[:, :, iw, c, None]
            v += buf
        v *= probs[:, :, iw, None]
        q += v
    lo = np.take_along_axis(q, cz_idx[..., None], axis=2)
    hi = np.take_along_axis(q, np.minimum(cz_idx + 1, n_z - 1)[..., None], axis=2)
    np.copyto(q, (1.0 - cz_frac[..., None]) * lo + cz_frac[..., None] * hi,
              where=z_axis < cost[..., None])
    best = q.min(axis=1)
    return best, np.argmax(q <= (best + TIE_TOL)[:, None], axis=1)


def _sample_disturbances_direct(model, x, u, draws):
    """Inverse-CDF sampling of w per rollout at the current (x, u): the atom
    index is the count of CDF values at most the draw, capped at n_w - 1, the
    same for a static law as for a callable one."""
    values, probs = model.disturbance_rows(x, u)
    shape = draws.shape + probs.shape[-1:]  # full rows: one per rollout
    values, probs = np.broadcast_to(values, shape), np.broadcast_to(probs, shape)
    draws = np.ascontiguousarray(draws)  # read once per atom: keep it in cache
    cdf = np.zeros(draws.shape)
    idx = np.zeros(draws.shape, dtype=np.int64)
    for k in range(probs.shape[-1] - 1):
        cdf += probs[..., k]
        idx += cdf <= draws
    return np.take_along_axis(values, idx[..., None], axis=-1)[..., 0]


def rollout_direct(policy, num: int, seed: int, model, keep: int = None,
                   block: int = 8192) -> RolloutBatch:
    """``rollout.rollout`` with every step of every trajectory computed in
    full: grid lookups, the two-array action gather, sampling and dynamics
    on ``block`` rollouts at a time."""
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
    for lo in range(0, n, block):
        m = min(block, n - lo)
        c = max(0, min(m, kept - lo))  # leading columns still to record
        draws = rng.random((m, horizon))
        x = np.full((m, dim), policy.x0)
        z = np.zeros(m)
        for t in range(horizon):
            ix = grid.nearest_x_index(x)
            jz = grid.nearest_z_index(z)
            u = grid.action_axis[policy.action_idx[t, ix, jz]]
            w = _sample_disturbances_direct(model, x, u, draws[:, t])
            for record, step in zip((states, zs, acts, shocks), (x, z, u, w)):
                record[t, lo:lo + c] = step[:c]
            x, z = model.dynamics(x, u, w), np.maximum(z, model.stage_cost(x, u))
        states[horizon, lo:lo + c] = x[:c]
        zs[horizon, lo:lo + c] = z[:c]
        y_prime[lo:lo + m] = np.maximum(z, model.terminal_cost(x))
    return RolloutBatch(states, zs, acts, shocks, y_prime)
