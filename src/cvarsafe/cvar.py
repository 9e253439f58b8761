"""Conditional Value-at-Risk of finite distributions, in the dual form.

CVaR at level alpha is min_s s + E[max(Y - s, 0)] / alpha. Everything
operates on ``Pmf``, a finite probability mass function with sorted, merged
atoms, so the dual minimizer always sits on an atom: ``cvar_dual`` scans
the atoms and is exact. ``minimize_dual`` is the scan that the solver and
policy synthesis share.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Pmf", "atom_excess", "cvar_dual"]

# Atom probabilities must sum to one within this tolerance.
PROB_TOL = 1e-12


class Pmf:
    """Finite probability mass function over real values.

    Atoms are sorted ascending by value and duplicate values are merged at
    construction. Probabilities must be nonnegative and sum to one within
    ``PROB_TOL``.

    Parameters
    ----------
    values : array_like
        Atom locations (any real unit: cost, cfs, ...).
    probs : array_like
        Atom probabilities, same length as ``values``.
    """

    __slots__ = ("values", "probs")

    def __init__(self, values, probs):
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        probs = np.atleast_1d(np.asarray(probs, dtype=np.float64))
        if values.ndim != 1 or values.shape != probs.shape:
            raise ValueError("values and probs must be 1-d arrays of equal length")
        if not np.all(np.isfinite(values)):
            raise ValueError("atom values must be finite")
        check_prob_rows(probs, "atom")
        # Sort and merge duplicates; bincount keeps the accumulation order
        # deterministic.
        uniq, inverse = np.unique(values, return_inverse=True)
        merged = np.bincount(inverse, weights=probs, minlength=uniq.size)
        self.values = uniq
        self.probs = merged

    @classmethod
    def _merged(cls, values: np.ndarray, probs: np.ndarray) -> "Pmf":
        """A pmf of atoms that are already sorted, distinct and valid."""
        out = object.__new__(cls)
        out.values, out.probs = values, probs
        return out

    def __len__(self):
        return self.values.size

    def __repr__(self):
        return f"Pmf({self.values.tolist()}, {self.probs.tolist()})"

    def mean(self) -> float:
        return float(self.values @ self.probs)


def check_prob_rows(probs: np.ndarray, what: str) -> None:
    """Raise ValueError unless all probabilities are >= 0 and each row (last
    axis) sums to 1 within ``PROB_TOL``: conditions that a NaN fails."""
    if not (probs >= 0.0).all():
        bad = float(probs[~(probs >= 0.0)][0])
        raise ValueError(f"{what} probabilities must be nonnegative, got {bad!r}")
    sums = probs.sum(axis=-1)
    if not (np.abs(sums - 1.0) <= PROB_TOL).all():
        worst = float(np.ravel(sums)[np.argmax(np.abs(sums - 1.0))])
        raise ValueError(f"{what} probabilities sum to {worst!r}, expected 1")


def _check_alpha(alpha):
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    return a


def minimize_dual(s, excess, alpha):
    """``(objective, best)``: ``s + excess / alpha`` and its first argmin along
    axis 0, where ``s`` ascends, so ties go to the smallest s."""
    objective = s + excess / _check_alpha(alpha)
    return objective, objective.argmin(axis=0)


def atom_excess(dist: Pmf) -> np.ndarray:
    """E[max(Y - s, 0)] at every atom ``s = dist.values``, in O(n) memory.

    With atoms ``v`` ascending, ``E_j = E_{j+1} + (v_{j+1} - v_j) P(Y > v_j)``
    and ``E_{n-1} = 0``: suffix sums of nonnegative terms, so each ``E_j`` is
    exact up to a relative ``gamma(2n + 2)``, ``gamma(k) = k u / (1 - k u)``
    and ``u = 2**-53``.
    """
    tail = np.cumsum(dist.probs[:0:-1])[::-1]  # P(Y > v_j) for j < n - 1
    excess = np.zeros_like(dist.values)
    excess[:-1] = np.cumsum((np.diff(dist.values) * tail)[::-1])[::-1]
    return excess


def cvar_dual(dist: Pmf, alpha):
    """CVaR at level alpha via the dual form min_s s + E[max(Y-s,0)] / alpha.

    For a finite pmf the minimizer lies on an atom, so the scan over the
    sorted, distinct atoms ``s = dist.values`` (``atom_excess``) gives the
    exact CVaR. Ties resolve to the smallest minimizing s.

    Returns
    -------
    (value, s_star) : tuple of floats
    """
    s = dist.values
    objective, best = minimize_dual(s, atom_excess(dist), alpha)
    return float(objective[best]), float(s[best])

