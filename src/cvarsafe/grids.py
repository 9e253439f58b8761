"""Rectilinear augmented-state grids and bracketing on their axes.

The computational substrate for value iteration: per-dimension state axes,
a running-maximum axis on [0, c_bar], an action axis, and a dual-parameter
axis. Tables are stored flat as ``(n_xnodes, n_z)`` with the state index
row-major over the state axes.

Nearest-node lookups are exact by decision points. Between neighbouring
nodes ``a < b`` the rule picks ``b`` iff ``fl(b - v) < fl(v - a)``, so ties
go to ``a``. The predicate is monotone in ``v``, so its decision point ``t``
is the smallest double in ``(a, b]`` where it holds, and node ``j`` is
nearest iff ``t_{j-1} <= v < t_j`` (``t_{-1} = -inf``, ``t_{n-1} = +inf``).
Each axis finds them on its first lookup; a lookup guesses ``j`` affinely
and steps it until that holds, exact on any axis whose span is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

__all__ = ["AugmentedGrid", "locate_batch"]


def checked_axis(values, name: str) -> np.ndarray:
    """``values`` as a float64 array if it is a nonempty, strictly increasing
    1-d array of finite nodes whose span ``axis[-1] - axis[0]`` is a finite
    double, else a ValueError naming the axis ``name``."""
    ax = np.asarray(values, dtype=np.float64)
    # Compared, not subtracted, and spanned in Python floats: no overflow.
    if ax.ndim != 1 or not (ax.size and np.isfinite(ax).all()
                            and (ax[1:] > ax[:-1]).all()
                            and math.isfinite(float(ax[-1]) - float(ax[0]))):
        raise ValueError(f"{name} must be a nonempty, strictly increasing, "
                         "finite 1-d array with a finite span")
    return ax


def locate_batch(axis: np.ndarray, v: np.ndarray):
    """Bracket each value on a sorted axis: (lower indices, fractions in [0, 1]).

    A fraction is exactly 0.0 where a value sits on a node (the top node
    brackets from below with fraction 1.0), so interpolating at a node
    reproduces the stored value bit-exactly. Values outside the axis clamp
    to the ends: fraction 0.0 below the first node, 1.0 above the last.
    """
    v = np.asarray(v, dtype=np.float64)
    n = axis.size
    if n == 1:
        return np.zeros(v.shape, dtype=np.int64), np.zeros(v.shape)
    idx = np.searchsorted(axis, v, side="right") - 1
    idx = np.clip(idx, 0, n - 2).astype(np.int64)
    frac = (v - axis[idx]) / (axis[idx + 1] - axis[idx])
    frac = np.where(v <= axis[0], 0.0, frac)
    frac = np.where(v >= axis[-1], 1.0, frac)
    return idx, frac


def decision_points(axis: np.ndarray) -> np.ndarray:
    """``cuts = [-inf, t_0, ..., t_{n-2}, +inf]`` (module docstring), each
    ``t`` bisected over the doubles of ``(a, b]`` in the order of their bit
    patterns (those of negative doubles with the magnitude bits flipped)."""
    a, b = axis[:-1], axis[1:]
    flip = lambda k: k ^ ((k >> 63) & np.int64(2**63 - 1))  # bits <-> order
    lo, hi = flip(a.view(np.int64)), flip(b.view(np.int64))  # picks a, b
    while (hi - 1 > lo).any():
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
        v = flip(mid).view(np.float64)
        picks_b = (b - v) < (v - a)
        lo, hi = np.where(picks_b, lo, mid), np.where(picks_b, mid, hi)
    return np.concatenate(([-np.inf], flip(hi).view(np.float64), [np.inf]))


@dataclass(frozen=True)
class AugmentedGrid:
    """Node axes for the augmented state (x, z), the actions, and s.

    ``x_axes`` is one strictly increasing array per state dimension; the
    ``z_axis`` and ``s_axis`` live on [0, c_bar]. Axes may be nonuniform
    (the exact-oracle grids use the reachable value sets directly).
    """

    x_axes: Tuple[np.ndarray, ...]
    z_axis: np.ndarray
    action_axis: np.ndarray
    s_axis: np.ndarray

    def __post_init__(self):
        axes = tuple(checked_axis(ax, f"grid x axis {d}")
                     for d, ax in enumerate(self.x_axes))
        object.__setattr__(self, "x_axes", axes)
        for name in ("z_axis", "action_axis", "s_axis"):
            object.__setattr__(self, name, checked_axis(
                getattr(self, name), "grid " + name.replace("_", " ")))
        if self.z_axis.size < 2:
            raise ValueError("z axis needs at least 2 nodes")
        # Row-major strides over the state axes and the cached node list.
        shape = tuple(ax.size for ax in axes)
        strides = np.ones(len(shape), dtype=np.int64)
        for d in range(len(shape) - 2, -1, -1):
            strides[d] = strides[d + 1] * shape[d + 1]
        object.__setattr__(self, "_x_shape", shape)
        object.__setattr__(self, "_x_strides", strides)
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=-1)
        object.__setattr__(self, "_x_nodes", nodes)

    # Decision points on the first lookup: only rollouts look nodes up.
    _x_cuts = cached_property(lambda self: tuple(map(decision_points, self.x_axes)))
    _z_cuts = cached_property(lambda self: decision_points(self.z_axis))

    @classmethod
    def uniform(cls, model, x_counts, z_count: int, action_count: int, s_count: int):
        """Uniform axes spanning the model bounds; z and s cover [0, c_bar].

        Every count must be at least 2, and the z/s axes include 0 and c_bar
        exactly (linspace endpoints).
        """
        x_counts = tuple(int(c) for c in np.atleast_1d(x_counts))
        if len(x_counts) != model.state_dim:
            raise ValueError("one x count per state dimension required")
        if min(x_counts) < 2 or min(z_count, action_count, s_count) < 2:
            raise ValueError("grid counts must be >= 2")
        x_axes = tuple(
            np.linspace(lo, hi, c)
            for (lo, hi), c in zip(model.state_bounds, x_counts)
        )
        return cls(
            x_axes=x_axes,
            z_axis=np.linspace(0.0, model.c_bar, int(z_count)),
            action_axis=np.linspace(*model.action_bounds, int(action_count)),
            s_axis=np.linspace(0.0, model.c_bar, int(s_count)),
        )

    @property
    def state_dim(self) -> int:
        return len(self.x_axes)

    @property
    def n_xnodes(self) -> int:
        return int(np.prod(self._x_shape))

    @property
    def x_shape(self):
        return self._x_shape

    def x_nodes(self) -> np.ndarray:
        """All state nodes as an (n_xnodes, state_dim) array, row-major."""
        return self._x_nodes

    def nearest_x_index(self, x):
        """Flat index of the state node nearest to x by the decision points
        of each axis (ties go to the lower node); NaN raises ValueError."""
        x = np.asarray(x, dtype=np.float64)
        batch = x.ndim > 1
        pts = np.atleast_2d(x)
        flat = np.zeros(pts.shape[0], dtype=np.int64)
        for d, (ax, cuts) in enumerate(zip(self.x_axes, self._x_cuts)):
            idx = self._nearest_on_axis(ax, cuts, pts[:, d], f"grid x axis {d}")
            flat += idx * self._x_strides[d]
        return flat if batch else int(flat[0])

    def nearest_z_index(self, z):
        z = np.asarray(z, dtype=np.float64)
        idx = self._nearest_on_axis(self.z_axis, self._z_cuts,
                                    np.atleast_1d(z), "grid z axis")
        return idx if z.ndim else int(idx[0])

    @staticmethod
    def _nearest_on_axis(axis, cuts, v, name):
        v = np.clip(v, axis[0], axis[-1])
        if np.isnan(v).any():
            raise ValueError(f"nearest-node lookup on the {name} got NaN")
        # The 1e-300 floor keeps the slope finite (1-node, subnormal spans).
        slope = (axis.size - 1) / max(axis[-1] - axis[0], 1e-300)
        j = np.rint((v - axis[0]) * slope).astype(np.int64)
        upper = cuts[1:]  # upper.take(j) is cuts[j + 1]
        while True:  # usually one pass on a uniform axis, <= n on any axis
            up, down = v >= upper.take(j), v < cuts.take(j)
            if not (up.any() or down.any()):
                return j
            j += up
            j -= down
