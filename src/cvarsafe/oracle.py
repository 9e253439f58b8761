"""Exact brute-force verifiers on tiny finite instances.

A ``TinyInstance`` is a fully tabular control problem (explicit states,
actions, disturbance atoms, horizon <= 3) whose transitions land exactly on
listed states. Everything about it can be enumerated:

  * the distribution of the maximum cost under a fixed policy,
  * the best deterministic augmented-state policy by enumerating every
    action assignment on the reachable (t, x, z) nodes
    (``exact_optimal_cvar``), cross-checked against the dual-parameter
    exchange route min_s [ s + min_pi E[(Y - s)+] / alpha ].
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .cvar import Pmf, check_prob_rows, cvar_dual
from .grids import AugmentedGrid, checked_axis
from .models import SystemModel

__all__ = [
    "TinyInstance",
    "OracleError",
    "OracleSizeError",
    "OracleResult",
    "exact_optimal_cvar",
    "exchange_identity_value",
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
        states = checked_axis(self.states, "states")
        actions = checked_axis(self.actions, "actions")
        cost = np.asarray(self.cost, dtype=np.float64)
        terminal = np.asarray(self.terminal, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        next_idx = np.asarray(self.next_idx, dtype=np.float64)
        n_s, n_a = states.size, actions.size
        if cost.shape != (n_s, n_a):
            raise ValueError("cost table must be (n_states, n_actions)")
        if terminal.shape != (n_s,):
            raise ValueError("terminal table must be (n_states,)")
        if probs.ndim != 3 or probs.shape[:2] != (n_s, n_a):
            raise ValueError("probs must be (n_states, n_actions, n_atoms)")
        if next_idx.shape != probs.shape:
            raise ValueError("next_idx must match probs in shape")
        check_prob_rows(probs, "transition")
        # Integral before the int64 cast below, which would truncate 0.6 to 0.
        if not ((next_idx >= 0) & (next_idx < n_s)
                & (next_idx == np.round(next_idx))).all():
            raise ValueError("next_idx must hold integral state indices in range")
        if not 0 < self.c_bar < np.inf:
            raise ValueError("c_bar must be positive and finite")
        # Conditions that must hold, so that a NaN cost fails them.
        if not all(((c >= 0.0) & (c <= self.c_bar)).all() for c in (cost, terminal)):
            raise ValueError("costs must lie in [0, c_bar]")
        if self.horizon not in (1, 2, 3):
            raise ValueError("tiny instances need a horizon of 1, 2 or 3")
        if self.x0 not in range(n_s):
            raise ValueError("x0 must be an integral state index in range")
        for name, arr in (("states", states), ("actions", actions),
                          ("cost", cost), ("terminal", terminal),
                          ("probs", probs), ("next_idx", next_idx.astype(np.int64)),
                          ("horizon", int(self.horizon)), ("x0", int(self.x0))):
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

        def at(x, u=None):  # instance indices of grid states (and actions)
            xi = np.searchsorted(states, np.asarray(x, dtype=np.float64)[..., 0])
            return xi if u is None else (
                xi, np.searchsorted(actions, np.asarray(u, dtype=np.float64)))

        def dyn(x, u, w):
            wi = np.asarray(w, dtype=np.float64).astype(np.int64)
            return states[next_idx[at(x, u) + (wi,)]][..., None]

        atom_values = np.arange(self.n_atoms, dtype=np.float64)

        def dist(x, u):
            rows = probs[at(x, u)]
            return np.broadcast_to(atom_values, rows.shape), rows

        model = SystemModel(
            state_dim=1,
            state_bounds=((float(states[0]), float(states[-1])),),
            action_bounds=(float(actions[0]), float(actions[-1])),
            horizon=self.horizon,
            dynamics=dyn,
            stage_cost=lambda x, u: cost[at(x, u)],
            terminal_cost=lambda x: terminal[at(x)],
            disturbance=dist,
            c_bar=float(self.c_bar),
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
        if not isinstance(d, dict):
            raise ValueError(f"expected an instance object, got {d!r}")
        try:
            # JSON numbers only; __post_init__ checks their values and converts.
            for key in ("states", "actions", "cost", "terminal", "probs", "next"):
                _json_numbers(d[key], key)
            for key in ("horizon", "c_bar", "x0"):
                _json_numbers(d[key], key, nested=False)
            return cls(states=d["states"], actions=d["actions"], cost=d["cost"],
                       terminal=d["terminal"], probs=d["probs"], next_idx=d["next"],
                       horizon=d["horizon"], c_bar=float(d["c_bar"]), x0=d["x0"])
        except KeyError as exc:
            raise ValueError(f"instance record is missing field {exc}") from exc


def _json_numbers(value, where, nested=True):
    """Refuse ``value`` unless it is a finite JSON number (an int or a float,
    not a bool) or, if ``nested``, lists of them; the error names the entry."""
    if nested and isinstance(value, list):
        return [_json_numbers(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if type(value) not in (int, float) or not abs(value) < math.inf:
        raise ValueError(f"{where}: expected a finite number, got {value!r}")


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
    """Parse a corpus file; malformed JSON raises with line/column info, and
    any other refusal is a ValueError naming ``instances`` or ``instances[i]``
    (the caller names the file)."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "instances" not in payload:
        raise ValueError("not a corpus file (missing 'instances')")
    records = payload["instances"]
    if not isinstance(records, list):
        raise ValueError(f"instances: expected a list, got {records!r}")
    instances = []
    for i, d in enumerate(records):
        try:
            instances.append(TinyInstance.from_dict(d))
        except ValueError as exc:
            raise ValueError(f"instances[{i}]: {exc}") from exc
    return instances
