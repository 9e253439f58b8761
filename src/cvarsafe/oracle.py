"""Exact brute-force verifiers on tiny finite instances.

A ``TinyInstance`` is a fully tabular control problem (explicit states,
actions, disturbance atoms, horizon <= 3) whose transitions land exactly on
listed states. Everything about it can be enumerated:

  * the distribution of the maximum cost under a fixed policy
    (``exact_policy_cvar``),
  * the best deterministic augmented-state policy by enumerating every
    action assignment on the reachable (t, x, z) nodes
    (``exact_optimal_cvar``), cross-checked against the dual-parameter
    exchange route min_s [ s + min_pi E[(Y - s)+] / alpha ],
  * history-dependent policies on two-step instances
    (``exact_optimal_cvar_history``), which never beat augmented-state
    feedback.

``expectation_dp`` is the independent expectation-minimizing grid DP
(scipy interpolation) used to cross-check the risk pipeline at alpha = 1.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .cvar import Pmf, cvar_dual
from .grids import AugmentedGrid
from .models import SystemModel

__all__ = [
    "TinyInstance",
    "OracleError",
    "OracleSizeError",
    "OracleResult",
    "exact_policy_cvar",
    "exact_optimal_cvar",
    "exact_optimal_cvar_history",
    "exchange_identity_value",
    "expectation_dp",
    "random_instance",
    "generate_corpus",
    "save_corpus",
    "load_corpus",
]

IDENTITY_TOL = 1e-9


class OracleError(RuntimeError):
    """An exact cross-check failed or an invalid policy entry was queried."""


class OracleSizeError(ValueError):
    """The policy enumeration would exceed the stated budget."""


@dataclass(frozen=True)
class TinyInstance:
    """Explicit tabular instance; all transitions land on listed states."""

    states: np.ndarray    # (n_s,) strictly increasing values
    actions: np.ndarray   # (n_a,) strictly increasing values
    cost: np.ndarray      # (n_s, n_a) stage costs in [0, c_bar]
    terminal: np.ndarray  # (n_s,) terminal costs in [0, c_bar]
    probs: np.ndarray     # (n_s, n_a, n_w) rows sum to 1
    next_idx: np.ndarray  # (n_s, n_a, n_w) int state indices
    horizon: int
    c_bar: float
    x0: int

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.float64)
        actions = np.asarray(self.actions, dtype=np.float64)
        cost = np.asarray(self.cost, dtype=np.float64)
        terminal = np.asarray(self.terminal, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        next_idx = np.asarray(self.next_idx, dtype=np.int64)
        for name, arr in (("states", states), ("actions", actions)):
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"{name} must be a nonempty 1-d array")
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise ValueError(f"{name} must be strictly increasing")
        n_s, n_a = states.size, actions.size
        if cost.shape != (n_s, n_a):
            raise ValueError("cost table must be (n_states, n_actions)")
        if terminal.shape != (n_s,):
            raise ValueError("terminal table must be (n_states,)")
        if probs.ndim != 3 or probs.shape[:2] != (n_s, n_a):
            raise ValueError("probs must be (n_states, n_actions, n_atoms)")
        if next_idx.shape != probs.shape:
            raise ValueError("next_idx must match probs in shape")
        if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=2) - 1.0) > 1e-9):
            raise ValueError("probability rows must be nonnegative and sum to 1")
        if np.any(next_idx < 0) or np.any(next_idx >= n_s):
            raise ValueError("next_idx out of state range")
        if self.c_bar <= 0:
            raise ValueError("c_bar must be positive")
        lo = min(cost.min(), terminal.min())
        hi = max(cost.max(), terminal.max())
        if lo < 0.0 or hi > self.c_bar:
            raise ValueError("costs must lie in [0, c_bar]")
        if not 1 <= self.horizon <= 3:
            raise ValueError("tiny instances are limited to horizon <= 3")
        if not 0 <= self.x0 < n_s:
            raise ValueError("x0 out of state range")
        for name, arr in (("states", states), ("actions", actions),
                          ("cost", cost), ("terminal", terminal),
                          ("probs", probs), ("next_idx", next_idx)):
            object.__setattr__(self, name, arr)

    @property
    def n_states(self) -> int:
        return self.states.size

    @property
    def n_actions(self) -> int:
        return self.actions.size

    @property
    def n_atoms(self) -> int:
        return self.probs.shape[2]

    def reachable_nodes(self) -> List[List[Tuple[int, float]]]:
        """Per time step, the sorted (x index, z value) pairs reachable
        from (x0, 0) under at least one policy."""
        layers = [[(self.x0, 0.0)]]
        for _ in range(self.horizon):
            seen = set()
            for xi, z in layers[-1]:
                for ai in range(self.n_actions):
                    zn = max(z, float(self.cost[xi, ai]))
                    for wi in range(self.n_atoms):
                        if self.probs[xi, ai, wi] > 0.0:
                            seen.add((int(self.next_idx[xi, ai, wi]), zn))
            layers.append(sorted(seen))
        return layers

    def policy_count(self) -> int:
        nodes = sum(len(layer) for layer in self.reachable_nodes()[:-1])
        return self.n_actions ** nodes

    def to_model_and_grid(self):
        """Adapter to the grid pipeline with zero interpolation error.

        State nodes are the instance states, z nodes the reachable
        running-max values, and s nodes the cost/terminal breakpoints, so
        every DP lookup lands exactly on a node.
        """
        states, actions = self.states, self.actions
        cost, terminal = self.cost, self.terminal
        probs, next_idx = self.probs, self.next_idx

        def dyn(x, u, w):
            xi = np.searchsorted(states, np.asarray(x, dtype=np.float64)[..., 0])
            ui = np.searchsorted(actions, np.asarray(u, dtype=np.float64))
            wi = np.asarray(w, dtype=np.float64).astype(np.int64)
            return states[next_idx[xi, ui, wi]][..., None]

        def stage(x, u):
            xi = np.searchsorted(states, np.asarray(x, dtype=np.float64)[..., 0])
            ui = np.searchsorted(actions, np.asarray(u, dtype=np.float64))
            return cost[xi, ui]

        def tcost(x):
            xi = np.searchsorted(states, np.asarray(x, dtype=np.float64)[..., 0])
            return terminal[xi]

        atom_values = np.arange(self.n_atoms, dtype=np.float64)

        def dist(x, u):
            xi = np.searchsorted(states, np.asarray(x, dtype=np.float64)[..., 0])
            ui = np.searchsorted(actions, np.asarray(u, dtype=np.float64))
            rows = probs[xi, ui]
            return np.broadcast_to(atom_values, rows.shape), rows

        model = SystemModel(
            state_dim=1,
            state_bounds=((float(states[0]), float(states[-1])),),
            action_bounds=(float(actions[0]), float(actions[-1])),
            horizon=self.horizon,
            dynamics=dyn,
            stage_cost=stage,
            terminal_cost=tcost,
            disturbance=dist,
            c_bar=float(self.c_bar),
            g_lower=0.0,
        )
        z_nodes = sorted({0.0, float(self.c_bar)} | {float(c) for c in cost.ravel()})
        s_nodes = self.s_breakpoints()
        grid = AugmentedGrid(
            x_axes=(states,),
            z_axis=np.asarray(z_nodes),
            action_axis=actions,
            s_axis=np.asarray(s_nodes),
        )
        return model, grid

    def s_breakpoints(self) -> List[float]:
        """Dual-parameter values at which the optimum can sit: every possible
        maximum-cost value plus the interval ends 0 and c_bar."""
        vals = {0.0, float(self.c_bar)}
        vals.update(float(c) for c in self.cost.ravel())
        vals.update(float(c) for c in self.terminal)
        return sorted(vals)

    def to_dict(self) -> dict:
        return {
            "states": self.states.tolist(),
            "actions": self.actions.tolist(),
            "cost": self.cost.tolist(),
            "terminal": self.terminal.tolist(),
            "probs": self.probs.tolist(),
            "next": self.next_idx.tolist(),
            "horizon": int(self.horizon),
            "c_bar": float(self.c_bar),
            "x0": int(self.x0),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TinyInstance":
        try:
            return cls(
                states=np.asarray(d["states"], dtype=np.float64),
                actions=np.asarray(d["actions"], dtype=np.float64),
                cost=np.asarray(d["cost"], dtype=np.float64),
                terminal=np.asarray(d["terminal"], dtype=np.float64),
                probs=np.asarray(d["probs"], dtype=np.float64),
                next_idx=np.asarray(d["next"], dtype=np.int64),
                horizon=int(d["horizon"]),
                c_bar=float(d["c_bar"]),
                x0=int(d["x0"]),
            )
        except KeyError as exc:
            raise ValueError(f"instance record is missing field {exc}") from exc


def _y_distribution(inst: TinyInstance, get_action) -> Pmf:
    """Exact pmf of the maximum cost Y under a policy, by enumerating every
    disturbance path from (x0, z=0)."""
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
        zn = max(z, float(inst.cost[xi, ai]))
        for wi in range(inst.n_atoms):
            p = float(inst.probs[xi, ai, wi])
            if p > 0.0:
                stack.append((t + 1, int(inst.next_idx[xi, ai, wi]), zn, pr * p))
    return Pmf(list(out.keys()), list(out.values()))


def exact_policy_cvar(inst: TinyInstance, policy, alpha) -> float:
    """CVaR of the maximum cost under a fixed augmented-state policy.

    ``policy`` maps (t, state index, z value) to an action index; missing
    entries raise ``OracleError``.
    """
    def get_action(t, xi, z):
        return policy.get((t, xi, z)) if hasattr(policy, "get") else policy(t, xi, z)

    return cvar_dual(_y_distribution(inst, get_action), alpha)[0]


def _excess_dp(inst: TinyInstance, s: float) -> float:
    """min over policies of E[max(Y - s, 0)], solved exactly on the
    reachable (x, z) nodes by backward induction."""
    layers = inst.reachable_nodes()
    value = {(xi, z): max(max(float(inst.terminal[xi]), z) - s, 0.0)
             for xi, z in layers[inst.horizon]}
    for t in range(inst.horizon - 1, -1, -1):
        prev = {}
        for xi, z in layers[t]:
            best = np.inf
            for ai in range(inst.n_actions):
                zn = max(z, float(inst.cost[xi, ai]))
                q = 0.0
                for wi in range(inst.n_atoms):
                    p = float(inst.probs[xi, ai, wi])
                    if p > 0.0:
                        q += p * value[(int(inst.next_idx[xi, ai, wi]), zn)]
                if q < best:
                    best = q
            prev[(xi, z)] = best
        value = prev
    return value[(inst.x0, 0.0)]


def exchange_identity_value(inst: TinyInstance, alpha) -> float:
    """min over the s breakpoints of s + min_pi E[max(Y - s, 0)] / alpha.

    The objective is concave between adjacent possible Y values, so scanning
    the breakpoints is exact.
    """
    a = float(alpha)
    return min(s + _excess_dp(inst, s) / a for s in inst.s_breakpoints())


@dataclass(frozen=True)
class OracleResult:
    value: float
    policy: dict
    exchange_value: float


def exact_optimal_cvar(inst: TinyInstance, alpha,
                       budget: int = 1_000_000) -> OracleResult:
    """Minimum CVaR over every deterministic augmented-state policy.

    Enumerates all action assignments on the reachable (t, x, z) nodes and
    takes the best, then cross-checks against the exchange-identity route;
    a disagreement beyond 1e-9 raises ``OracleError``. Raises
    ``OracleSizeError`` when the enumeration would exceed ``budget``.
    """
    layers = inst.reachable_nodes()
    slots = [(t, xi, z) for t in range(inst.horizon) for xi, z in layers[t]]
    count = inst.n_actions ** len(slots)
    if count > budget:
        raise OracleSizeError(
            f"{count} policies exceed the enumeration budget {budget}")
    slot_of = {node: i for i, node in enumerate(slots)}

    best_value = np.inf
    best_assignment = None
    for assignment in itertools.product(range(inst.n_actions), repeat=len(slots)):
        def get_action(t, xi, z, _a=assignment):
            return _a[slot_of[(t, xi, z)]]

        value = cvar_dual(_y_distribution(inst, get_action), alpha)[0]
        if value < best_value:
            best_value = value
            best_assignment = assignment

    exchange = exchange_identity_value(inst, alpha)
    if abs(best_value - exchange) > IDENTITY_TOL:
        raise OracleError(
            f"policy enumeration ({best_value!r}) and exchange identity "
            f"({exchange!r}) disagree beyond {IDENTITY_TOL}")
    policy = dict(zip(slots, best_assignment))
    return OracleResult(float(best_value), policy, float(exchange))


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


# ---------------------------------------------------------------------------
# independent expectation-minimizing DP on a grid (for the alpha = 1 check)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# corpus generation and serialization
# ---------------------------------------------------------------------------

_COST_CHOICES = (0.0, 0.5, 1.0, 1.5, 2.0)


def random_instance(rng: np.random.Generator, max_policies: int = 4000) -> TinyInstance:
    """Draw a random tiny instance, rejecting ones whose policy enumeration
    would be too slow for a test corpus (costs come from a small set so the
    reachable z values collide and stay few)."""
    while True:
        n_s = int(rng.integers(1, 4))
        n_a = int(rng.integers(1, 4))
        n_w = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 4))
        inst = TinyInstance(
            states=np.arange(n_s, dtype=np.float64),
            actions=np.arange(n_a, dtype=np.float64),
            cost=rng.choice(_COST_CHOICES, size=(n_s, n_a)),
            terminal=rng.choice(_COST_CHOICES, size=n_s),
            probs=_random_prob_rows(rng, n_s, n_a, n_w),
            next_idx=rng.integers(0, n_s, size=(n_s, n_a, n_w)),
            horizon=horizon,
            c_bar=2.0,
            x0=int(rng.integers(0, n_s)),
        )
        if inst.policy_count() <= max_policies:
            return inst


def _random_prob_rows(rng, n_s, n_a, n_w):
    weights = rng.integers(1, 5, size=(n_s, n_a, n_w)).astype(np.float64)
    return weights / weights.sum(axis=2, keepdims=True)


def generate_corpus(seed: int, count: int, max_policies: int = 4000):
    rng = np.random.default_rng(seed)
    return [random_instance(rng, max_policies) for _ in range(count)]


def save_corpus(path, instances):
    payload = {"schema": 1, "instances": [inst.to_dict() for inst in instances]}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_corpus(path):
    """Parse a corpus file; malformed JSON raises with line/column info."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "instances" not in payload:
        raise ValueError(f"{path}: not a corpus file (missing 'instances')")
    return [TinyInstance.from_dict(d) for d in payload["instances"]]
