"""Risk functionals for finite distributions.

Value-at-Risk, Conditional Value-at-Risk (dual and tail forms), and the
expected-excess building block they share. Everything operates on ``Pmf``,
a finite probability mass function with sorted, merged atoms, so quantiles
are plain CDF scans and the dual minimizer always sits on an atom: the
dual form scans the atoms and is exact.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Pmf", "var", "expected_excess", "atom_excess", "cvar_dual", "cvar_tail"]

# Atom probabilities must sum to one within this tolerance.
PROB_TOL = 1e-12

# Slack used in CDF threshold comparisons so that exact-fraction CDF values
# (0.25, 0.75, ...) are matched robustly after accumulation.
_CDF_SLACK = 1e-9


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

    @classmethod
    def from_samples(cls, samples):
        """Empirical pmf of a sample array (equal weight per draw)."""
        samples = np.asarray(samples, dtype=np.float64).ravel()
        if samples.size == 0:
            raise ValueError("need at least one sample")
        uniq, counts = np.unique(samples, return_counts=True)
        if not np.isfinite(uniq[[0, -1]]).all():  # -inf sorts first, inf and NaN last
            raise ValueError("atom values must be finite")
        return cls._merged(uniq, counts / samples.size)

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


def _check_alpha(alpha, upper_open=False):
    a = float(alpha)
    if not 0.0 < a <= 1.0 or (upper_open and a == 1.0):
        hi = "1)" if upper_open else "1]"
        raise ValueError(f"alpha must be in (0, {hi}, got {alpha!r}")
    return a


def var(dist: Pmf, alpha) -> float:
    """Value-at-Risk at level alpha: the left-side (1 - alpha)-quantile.

    Returns the smallest atom value y with P(Y <= y) >= 1 - alpha. At
    alpha = 1 the threshold is zero, so the smallest atom is returned.
    """
    a = _check_alpha(alpha)
    cdf = np.cumsum(dist.probs)
    target = 1.0 - a
    idx = int(np.searchsorted(cdf, target - _CDF_SLACK, side="left"))
    idx = min(idx, dist.values.size - 1)
    return float(dist.values[idx])


def expected_excess(dist: Pmf, s: float) -> float:
    """E[max(Y - s, 0)]: mean excess of the distribution above s.

    Nonincreasing and convex in s; equals mean - s for s below the smallest
    atom and 0 at or above the largest.
    """
    return float(np.maximum(dist.values - float(s), 0.0) @ dist.probs)


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


def cvar_tail(dist: Pmf, alpha) -> float:
    """CVaR at level alpha in (0, 1) via VaR + E[max(Y - VaR, 0)] / alpha.

    Agrees with ``cvar_dual`` on any finite pmf. Not defined at alpha = 1;
    use ``cvar_dual`` (or the mean) there.
    """
    a = _check_alpha(alpha, upper_open=True)
    v = var(dist, a)
    return v + expected_excess(dist, v) / a
