"""Exact brute-force verifiers on tiny finite instances.

A ``TinyInstance`` is a fully tabular control problem (explicit states,
actions, disturbance atoms, horizon <= 3) whose transitions land exactly on
listed states. Everything about it can be enumerated:

  * the distribution of the maximum cost under a fixed policy,
  * the best deterministic augmented-state policy by enumerating every
    action assignment on the reachable (t, x, z) nodes, a policy's slots
    (``exact_optimal_cvar``), cross-checked against the dual-parameter
    exchange route min_s [ s + min_pi E[(Y - s)+] / alpha ].

Policies that differ only at slots none of them reaches walk the same
disturbance paths, so each class of them has one canonical member, the one
taking action 0 at every slot it does not reach, and it comes first in
``itertools.product`` order. The enumeration walks the canonical policies
only, in one forward walk (``_policy_laws``) where each policy prefix
carries its disturbance paths and the policies sharing it extend them. It
scores each law with ``cvar.cvar_dual`` and keeps the first of least value:
the same policy and value as walking all of them. ``_y_distribution``, the
law of one fixed policy, is the same walk offering one action per node.

An instance has three walks (``reachable_nodes``, ``_policy_laws`` and
``_excess_dp``), each reading the transition rule (x, z, a) -> (next x,
max(z, cost), p) from one cached table, ``TinyInstance.successors``, which
lists each (x, a)'s cost and its atoms of positive probability in atom order.
The grid adapter ``to_model_and_grid`` reads the raw arrays instead.
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def successors(self):
        """``successors[xi][ai] = (cost, ((next index, p), ...))`` as Python
        scalars, listing the atoms with ``p > 0`` in atom order: the table
        the oracle's walks read, built on first use and cached."""
        return tuple(
            tuple((float(c), tuple((int(n), float(p))
                                   for n, p in zip(nxt, ps) if p > 0.0))
                  for c, nxt, ps in zip(*rows))
            for rows in zip(self.cost, self.next_idx, self.probs))

    def reachable_nodes(self) -> Tuple[Tuple[Tuple[int, float], ...], ...]:
        """Per time step, the sorted (x index, z value) pairs reachable
        from (x0, 0) under at least one policy: built on first use and
        cached, as immutable tuples."""
        return self._layers

    @functools.cached_property
    def _layers(self):
        layers = [((self.x0, 0.0),)]
        for _ in range(self.horizon):
            layers.append(tuple(sorted({(nxt, max(z, cost))
                                        for xi, z in layers[-1]
                                        for cost, atoms in self.successors[xi]
                                        for nxt, _ in atoms})))
        return tuple(layers)

    def policy_count(self) -> int:
        nodes = sum(len(layer) for layer in self.reachable_nodes()[:-1])
        return self.n_actions ** nodes

    def to_model_and_grid(self):
        """Adapter to the grid pipeline with zero interpolation error.

        State nodes are the instance states; the z and s axes are both the
        breakpoint axis ``s_breakpoints()``, which holds every reachable
        running maximum and every ``s`` at which the optimum can sit, so
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
        breakpoints = np.asarray(self.s_breakpoints())
        grid = AugmentedGrid(
            x_axes=(states,),
            z_axis=breakpoints,
            action_axis=actions,
            s_axis=breakpoints,
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
    """Exact pmf of the maximum cost Y under a policy: the walk of
    ``_policy_laws`` offering one action, ``get_action(t, x, z)``, per node."""
    def chosen(t, xi, z):
        ai = get_action(t, xi, z)
        if ai is None or not 0 <= ai < inst.n_actions:
            raise OracleError(f"policy queried at unreachable node {(t, xi, z)}")
        return (ai,)

    return next(_policy_laws(inst, chosen))[1]


def _policy_laws(inst: TinyInstance, options):
    """Yield ``(actions, pmf of Y)`` per policy, in ``itertools.product``
    order, with one action per node of the instance's reachable layers
    (``reachable_nodes()[:horizon]``): any of
    ``options(t, x, z)`` at a node the policy reaches, action 0 elsewhere.

    One forward walk: a policy prefix carries its disturbance paths
    (x index, z, probability), which the policies sharing it extend. A
    path's children come in reverse atom order, so each law's atoms
    accumulate in depth-first order, probabilities multiplied root first.
    """
    layers = inst.reachable_nodes()

    def extend(t, paths, prefix):
        if t == inst.horizon:
            out: Dict[float, float] = {}
            for xi, z, pr in paths:
                y = max(z, float(inst.terminal[xi]))
                out[y] = out.get(y, 0.0) + pr
            ys = sorted(out)
            probs = np.array([out[y] for y in ys])
            check_prob_rows(probs, "atom")
            yield prefix, Pmf._merged(np.array(ys), probs)
            return
        reached = {(xi, z) for xi, z, _ in paths}
        offers = [options(t, xi, z) if (xi, z) in reached else (0,)
                  for xi, z in layers[t]]
        for actions in itertools.product(*offers):
            act = dict(zip(layers[t], actions))
            nxt = []
            for xi, z, pr in paths:
                cost, atoms = inst.successors[xi][act[xi, z]]
                nxt += [(n, max(z, cost), pr * p) for n, p in reversed(atoms)]
            yield from extend(t + 1, nxt, prefix + actions)

    return extend(0, [(inst.x0, 0.0, 1.0)], ())


def _excess_dp(inst: TinyInstance, s):
    """min over policies of E[max(Y - s, 0)], solved exactly on the
    reachable (x, z) nodes by backward induction; ``s`` is a float or an
    array of them, solved together elementwise."""
    layers = inst.reachable_nodes()
    value = {(xi, z): np.maximum(max(float(inst.terminal[xi]), z) - s, 0.0)
             for xi, z in layers[inst.horizon]}
    for t in range(inst.horizon - 1, -1, -1):
        prev = {}
        for xi, z in layers[t]:
            qs = (sum((p * value[(nxt, max(z, cost))] for nxt, p in atoms), 0.0)
                  for cost, atoms in inst.successors[xi])
            prev[(xi, z)] = functools.reduce(np.minimum, qs, np.inf)
        value = prev
    return value[(inst.x0, 0.0)]


def exchange_identity_value(inst: TinyInstance, alpha) -> float:
    """min over the s breakpoints of s + min_pi E[max(Y - s, 0)] / alpha.

    The objective is concave between adjacent possible Y values, so scanning
    the breakpoints is exact. One backward pass solves every breakpoint.
    """
    s = np.array(inst.s_breakpoints())
    return float(np.min(s + _excess_dp(inst, s) / float(alpha)))


@dataclass(frozen=True)
class OracleResult:
    value: float
    policy: dict
    exchange_value: float


def exact_optimal_cvar(inst: TinyInstance, alpha,
                       budget: int = 1_000_000) -> OracleResult:
    """Minimum CVaR over every deterministic augmented-state policy.

    Returns the first policy of least CVaR in ``itertools.product`` order
    over the reachable (t, x, z) slots, found by one walk of the canonical
    policies and their laws (``_policy_laws``, see the module docstring);
    the reported value equals a fixed-policy evaluation of ``policy``.
    Cross-checks against the exchange-identity route; a disagreement beyond
    ``IDENTITY_TOL`` raises ``OracleError``. Raises ``OracleSizeError`` when
    the full enumeration, ``policy_count()`` policies, would exceed ``budget``.
    """
    count = inst.policy_count()
    if count > budget:
        raise OracleSizeError(
            f"{count} policies exceed the enumeration budget {budget}")
    best_value, best = np.inf, None
    for actions, law in _policy_laws(inst, lambda *_: range(inst.n_actions)):
        value = cvar_dual(law, alpha)[0]
        if value < best_value:
            best_value, best = value, actions

    exchange = exchange_identity_value(inst, alpha)
    if abs(best_value - exchange) > IDENTITY_TOL:
        raise OracleError(
            f"policy enumeration ({best_value!r}) and exchange identity "
            f"({exchange!r}) disagree beyond {IDENTITY_TOL}")
    layers = inst.reachable_nodes()
    slots = [(t, xi, z) for t in range(inst.horizon) for xi, z in layers[t]]
    return OracleResult(float(best_value), dict(zip(slots, best)), float(exchange))


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


def generate_corpus(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [random_instance(rng) for _ in range(count)]


_CORPUS_SCHEMA = 1


def save_corpus(path, instances):
    payload = {"schema": _CORPUS_SCHEMA, "instances": [i.to_dict() for i in instances]}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_corpus(path):
    """Parse a corpus file; malformed JSON raises with line/column info, and
    any other refusal is a ValueError naming ``schema`` (unless it reads as
    JSON exactly ``_CORPUS_SCHEMA``: ``true`` and ``1.0`` are not ``1``),
    ``instances`` or ``instances[i]`` (the caller names the file)."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "instances" not in payload:
        raise ValueError("not a corpus file (missing 'instances')")
    if json.dumps(payload.get("schema")) != json.dumps(_CORPUS_SCHEMA):
        raise ValueError(f"schema: expected {_CORPUS_SCHEMA}, "
                         f"got {payload.get('schema')!r}")
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
