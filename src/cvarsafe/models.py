"""Control-system abstraction and the two-tank stormwater benchmark.

The generic ``SystemModel`` carries dynamics, stage/terminal costs, and a
finite disturbance law. The stormwater designs are:

  a) baseline: two tanks connected by a gravity valve,
  b) valve replaced by a bidirectional pump (action range [-1, 1]),
  c) tank 1 retrofitted with a penalty-free storm-sewer outlet,
  d) tank 2 surface area increased to 12000 ft^2.

All flow functions broadcast over numpy arrays, so transitions can be
evaluated for whole batches of states at once. Units: ft, s, cfs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional, Union

import numpy as np

from .cvar import Pmf, check_prob_rows

__all__ = [
    "DESIGNS",
    "PumpParams",
    "StormwaterParams",
    "SystemModel",
    "design_params",
    "make_stormwater_model",
    "default_disturbance",
    "smoke_disturbance",
    "g_k",
    "q_storm",
    "q_cso",
    "q_valve",
    "q_pump",
    "transition",
]


DESIGNS = ("a", "b", "c", "d")


def _require_finite(params):
    """ValueError naming the first float field of ``params`` that is not finite."""
    for f in fields(params):
        if f.type == "float" and not abs(getattr(params, f.name)) < np.inf:
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class PumpParams:
    """Bidirectional pump: max rate, startup slack band, threshold elevation."""

    q_max: float = 10.0           # cfs
    eps: float = 1.0 / 12.0       # ft
    z_elev: float = 1.0           # ft

    def __post_init__(self):
        _require_finite(self)  # then conditions that must hold, NaN failing
        if not (self.q_max > 0 and self.eps > 0 and self.z_elev > self.eps):
            raise ValueError("pump needs q_max > 0 and z_elev > eps > 0")


@dataclass(frozen=True)
class StormwaterParams:
    """Physical parameters of the two-tank system (baseline values)."""

    design: str = "a"
    a1: float = 30000.0           # tank 1 surface area, ft^2
    a2: float = 10000.0           # tank 2 surface area, ft^2
    c_d: float = 0.61             # discharge coefficient
    g_tilde: float = 32.2         # gravitational acceleration, ft/s^2
    k1: float = 3.0               # combined-sewer invert elevation, tank 1, ft
    k2: float = 4.0               # combined-sewer invert elevation, tank 2, ft
    kbar1: float = 5.0            # max level, tank 1, ft
    kbar2: float = 6.0            # max level, tank 2, ft
    r_s: float = 1.0 / 3.0        # storm sewer outlet radius, ft
    r_v: float = 1.0 / 3.0        # valve radius, ft
    dt: float = 180.0             # step duration, s (3 min)
    z1: float = 1.0               # valve pipe elevation w.r.t. tank 1 base, ft
    z1_in: float = 2.0            # valve pipe elevation w.r.t. tank 2 base, ft
    z2: float = 1.0               # storm sewer outlet elevation, ft
    n_cso1: int = 3               # combined-sewer outlets, tank 1
    n_cso2: int = 1               # combined-sewer outlets, tank 2
    r_cso1: float = 0.25          # cs outlet radius, tank 1, ft
    r_cso2: float = 0.375         # cs outlet radius, tank 2, ft
    horizon: int = 20             # steps (1 h at 3 min/step)
    pump: Optional[PumpParams] = None

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        _require_finite(self)  # then conditions that must hold, NaN failing
        for name in ("a1", "a2", "c_d", "g_tilde", "r_s", "r_v", "dt",
                     "r_cso1", "r_cso2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not (self.kbar1 > self.k1 and self.kbar2 > self.k2):
            raise ValueError("max levels must exceed the invert elevations")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.n_cso1 < 1 or self.n_cso2 < 1:
            raise ValueError("outlet counts must be >= 1")
        if (self.design == "b") != (self.pump is not None):
            raise ValueError("pump parameters are required exactly for design b")


def design_params(design: str = "a", **overrides) -> StormwaterParams:
    """Parameters for one of the four designs, with optional field overrides."""
    design = design.lower()
    base: dict = {"design": design}
    if design == "b" and "pump" not in overrides:
        base["pump"] = PumpParams()
    if design == "d" and "a2" not in overrides:
        base["a2"] = 12000.0
    base.update(overrides)
    return StormwaterParams(**base)


# ---------------------------------------------------------------------------
# flow physics
# ---------------------------------------------------------------------------

def g_k(x, params: StormwaterParams):
    """Water elevation above the combined-sewer inverts: max(x1-k1, x2-k2, 0)."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(np.maximum(x[..., 0] - params.k1, x[..., 1] - params.k2), 0.0)


def _outlet(level, params: StormwaterParams, n, r, elev, top):
    # n orifices of radius r: zero at or below `elev`, rising linearly to
    # n c_d pi r^2 sqrt(2 g (top - elev)) at `top`.
    level = np.asarray(level, dtype=np.float64)
    span = top - elev
    q_max = n * params.c_d * np.pi * r**2 * np.sqrt(2.0 * params.g_tilde * span)
    return q_max - (q_max / span) * np.minimum(top - level, span)


def q_storm(level, params: StormwaterParams, tank: int = 2):
    """Storm-sewer outflow from a tank level (tank 1 exists in design c only)."""
    top = params.kbar2 if tank == 2 else params.kbar1
    return _outlet(level, params, 1, params.r_s, params.z2, top)


def q_cso(level, tank: int, params: StormwaterParams):
    """Combined-sewer outflow; zero at or below the invert elevation k_i."""
    if tank == 1:
        return _outlet(level, params, params.n_cso1, params.r_cso1,
                       params.k1, params.kbar1)
    return _outlet(level, params, params.n_cso2, params.r_cso2,
                   params.k2, params.kbar2)


def q_valve(x, u, params: StormwaterParams):
    """Gravity flow through the valve; positive drains tank 1 into tank 2."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    head = np.maximum(x[..., 0] - params.z1, 0.0) - np.maximum(x[..., 1] - params.z1_in, 0.0)
    rate = np.pi * params.r_v**2 * np.sqrt(2.0 * params.g_tilde * np.abs(head))
    return u * np.sign(head) * rate


def q_pump(x, u, params: StormwaterParams):
    """Pump flow in the min/max closed form; sign matches the valve position.

    Equals -u * q_max when both levels sit above z_elev + eps, ramps linearly
    through the startup band [z_elev - eps, z_elev + eps] of the source tank,
    and is zero when the source tank is below z_elev - eps.
    """
    p = params.pump
    if p is None:
        raise ValueError("q_pump requires pump parameters (design b)")
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    y1 = x[..., 0] + p.eps - p.z_elev
    y2 = x[..., 1] + p.eps - p.z_elev
    band = 2.0 * p.eps
    nu1 = np.clip(y1, 0.0, band)
    nu2 = np.clip(y2, 0.0, band)
    return (-p.q_max / band) * (np.minimum(0.0, u) * nu1 + np.maximum(0.0, u) * nu2)


def transition(x, u, w, params: StormwaterParams):
    """One Euler step of the tank levels, clipped to [0, kbar_i].

    The upper clip models overflow capping at the maximum levels; the lower
    clip keeps levels physically nonnegative. Broadcasts over leading axes.
    """
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    x1, x2 = x[..., 0], x[..., 1]
    link = q_pump(x, u, params) if params.design == "b" else q_valve(x, u, params)
    inflow1 = w - q_cso(x1, 1, params) - link
    if params.design == "c":
        inflow1 = inflow1 - q_storm(x1, params, tank=1)
    inflow2 = w - q_cso(x2, 2, params) + link - q_storm(x2, params, tank=2)
    n1 = np.clip(x1 + inflow1 * (params.dt / params.a1), 0.0, params.kbar1)
    n2 = np.clip(x2 + inflow2 * (params.dt / params.a2), 0.0, params.kbar2)
    return np.stack(np.broadcast_arrays(n1, n2), axis=-1)


# ---------------------------------------------------------------------------
# disturbance laws
# ---------------------------------------------------------------------------

# Nine-atom surface-runoff law on a uniform cfs grid, fitted by maximum
# entropy to mean 12.2 cfs, variance 9.9 cfs^2, skew 0.74 (the solve lives in
# tests/test_models.py as an independent check).
_RUNOFF_VALUES = (6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0)
_RUNOFF_PROBS = (
    0.018868584341,
    0.111737836615,
    0.253322927386,
    0.274845716611,
    0.17839004729,
    0.08658574103,
    0.039286485809,
    0.02082993773,
    0.016132723188,
)

RUNOFF_MEAN = 12.2       # cfs
RUNOFF_VARIANCE = 9.9    # cfs^2


def default_disturbance() -> Pmf:
    """Moment-matched nine-atom surface-runoff pmf."""
    return Pmf(_RUNOFF_VALUES, _RUNOFF_PROBS)


def smoke_disturbance() -> Pmf:
    """Two-atom runoff pmf (mean and variance matched) for fast smoke runs."""
    sd = np.sqrt(RUNOFF_VARIANCE)
    return Pmf([RUNOFF_MEAN - sd, RUNOFF_MEAN + sd], [0.5, 0.5])


# ---------------------------------------------------------------------------
# generic control-system container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemModel:
    """Finite-horizon stochastic control system with bounded costs.

    ``dynamics(x, u, w)``, ``stage_cost(x, u)`` and ``terminal_cost(x)`` must
    broadcast over leading batch axes (states are arrays of shape
    ``(..., state_dim)``). Stage and terminal costs take values in [0, c_bar].
    ``disturbance``, read only through ``disturbance_rows``, is a static ``Pmf``
    or a vectorized ``(x, u) -> (values, probs)`` of one (..., n_w) atom row per
    (x, u); short rows are padded with zero-probability copies of their last atom.
    Rows come at the shape the law gives them, broadcastable against the batch:
    a ``Pmf`` has one (n_w,) row for every state, so its readers never copy it
    per state."""

    state_dim: int
    state_bounds: tuple            # ((lo, hi), ...) per state dimension
    action_bounds: tuple           # (lo, hi)
    horizon: int
    dynamics: Callable
    stage_cost: Callable
    terminal_cost: Callable
    disturbance: Union[Pmf, Callable]
    c_bar: float

    def disturbance_rows(self, x, u):
        """Atom values and probs at (x, u), not to be written to: arrays of one
        shape that broadcasts against (*batch, n_w), where batch broadcasts
        x.shape[:-1] with u.shape. A ``Pmf`` gives its own (n_w,) arrays; a
        callable gives its rows, which must share one shape, broadcast against
        the batch and pass ``cvar.check_prob_rows``, else ValueError."""
        d = self.disturbance
        if isinstance(d, Pmf):
            return d.values, d.probs
        values, probs = (np.asarray(a, dtype=np.float64) for a in d(x, u))
        batch = np.broadcast_shapes(np.shape(x)[:-1], np.shape(u))
        if (values.shape != probs.shape or probs.ndim == 0
                or np.broadcast_shapes(batch, probs.shape[:-1]) != batch):
            raise ValueError(f"disturbance rows {values.shape}, {probs.shape} "
                             f"need one (..., n_w) shape that broadcasts to {batch}")
        check_prob_rows(probs, "disturbance")
        return values, probs

    @property
    def static_disturbance(self) -> Optional[Pmf]:
        d = self.disturbance
        return d if isinstance(d, Pmf) else None


def make_stormwater_model(params: Optional[StormwaterParams] = None,
                          disturbance: Optional[Pmf] = None) -> SystemModel:
    """Assemble the SystemModel for a stormwater design.

    The stage and terminal costs both equal the elevation above the
    combined-sewer inverts (range [0, 2] ft for the baseline tables), so
    c_bar = max(kbar_i - k_i).
    """
    p = design_params("a") if params is None else params
    dist = default_disturbance() if disturbance is None else disturbance

    def dyn(x, u, w):
        return transition(x, u, w, p)

    def cost(x, u=None):
        return g_k(x, p)

    action_bounds = (-1.0, 1.0) if p.design == "b" else (0.0, 1.0)
    c_bar = max(p.kbar1 - p.k1, p.kbar2 - p.k2)
    return SystemModel(
        state_dim=2,
        state_bounds=((0.0, p.kbar1), (0.0, p.kbar2)),
        action_bounds=action_bounds,
        horizon=p.horizon,
        dynamics=dyn,
        stage_cost=cost,
        terminal_cost=cost,
        disturbance=dist,
        c_bar=c_bar,
    )
