"""Tests for the finite-distribution risk functionals."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvarsafe import (Pmf, TinyInstance, cvar_dual, make_stormwater_model,
                      risk_value)
from cvarsafe import oracle
from cvarsafe.cli import _default_corpus
from cvarsafe.cvar import atom_excess, minimize_dual
from references import cvar_tail, empirical_pmf, expected_excess, var

QUARTER = Pmf([1, 2, 3, 4], [0.25, 0.25, 0.25, 0.25])
COIN = Pmf([0, 2], [0.5, 0.5])


def random_pmf(rng, max_atoms=32):
    n = int(rng.integers(1, max_atoms + 1))
    values = np.round(rng.normal(0.0, 5.0, size=n), 3)
    weights = rng.random(n) + 1e-3
    return Pmf(values, weights / weights.sum())


class TestPmf:
    def test_sorts_and_merges_duplicates(self):
        p = Pmf([2.0, 0.0, 2.0], [0.25, 0.5, 0.25])
        assert p.values.tolist() == [0.0, 2.0]
        assert p.probs.tolist() == [0.5, 0.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            Pmf([0.0, 1.0], [0.6, 0.6])
        with pytest.raises(ValueError):
            Pmf([0.0, 1.0], [-0.1, 1.1])
        with pytest.raises(ValueError):
            Pmf([], [])
        with pytest.raises(ValueError):
            Pmf([np.inf], [1.0])
        with pytest.raises(ValueError, match=r"sum to 1\.0000000001, expected 1"):
            Pmf([0.0, 1.0], [0.5, 0.5000000001])
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            Pmf([1.0, 2.0], [np.nan, 1.0])

    def test_empirical_pmf(self):
        p = empirical_pmf([1.0, 1.0, 3.0, 1.0])
        assert p.values.tolist() == [1.0, 3.0]
        assert_allclose(p.probs, [0.75, 0.25])
        # The same atoms as merging equal-weight draws through the constructor.
        draws = np.random.default_rng(0).integers(0, 40, 1000) * 0.125
        q, r = empirical_pmf(draws), Pmf(draws, np.full(draws.size, 1e-3))
        assert np.array_equal(q.values, r.values)
        assert_allclose(q.probs, r.probs, rtol=1e-12)
        for bad in ([1.0, np.nan], [np.inf, 1.0], [-np.inf]):
            with pytest.raises(ValueError, match="finite"):
                empirical_pmf(bad)

    def test_mean(self):
        assert QUARTER.mean() == 2.5

    def test_every_constructor_gives_strictly_increasing_atoms(self):
        # cvar_dual scans the atoms as its s axis and leans on this order.
        rng = np.random.default_rng(3)
        built = [Pmf([2.0, 0.0, 2.0, -1.0], [0.25, 0.25, 0.25, 0.25]),
                 empirical_pmf(rng.integers(-5, 5, 200) * 0.5)]
        built += [random_pmf(rng) for _ in range(50)]
        for inst in _default_corpus():
            built += [law for _, law in oracle._policy_laws(inst)]
        for p in built:
            assert (np.diff(p.values) > 0).all(), p


class TestVar:
    def test_coin_median(self):
        assert var(COIN, 0.5) == 0.0

    def test_degenerate(self):
        for alpha in (0.01, 0.5, 1.0):
            assert var(Pmf([3.7], [1.0]), alpha) == 3.7

    def test_quartile_by_cdf_enumeration(self):
        # independent oracle: scan the CDF of the four atoms directly
        target = 1.0 - 0.25
        cdf = 0.0
        expected = None
        for v, p in zip(QUARTER.values, QUARTER.probs):
            cdf += p
            if cdf >= target:
                expected = v
                break
        assert expected == 3.0
        assert var(QUARTER, 0.25) == expected

    def test_alpha_one_returns_smallest_atom(self):
        assert var(QUARTER, 1.0) == 1.0

    def test_invalid_alpha(self):
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                var(COIN, alpha)


class TestExpectedExcess:
    def test_coin(self):
        assert expected_excess(COIN, 1.0) == 0.5

    def test_above_max_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_pmf(rng)
            assert expected_excess(p, p.values[-1]) == 0.0
            assert expected_excess(p, p.values[-1] + 1.0) == 0.0

    def test_below_min_equals_mean_minus_s(self):
        assert expected_excess(QUARTER, 0.0) == 2.5

    def test_nonincreasing_convex(self):
        rng = np.random.default_rng(1)
        p = random_pmf(rng)
        s = np.linspace(p.values[0] - 1, p.values[-1] + 1, 41)
        e = np.array([expected_excess(p, si) for si in s])
        assert np.all(np.diff(e) <= 1e-12)
        assert np.all(np.diff(e, 2) >= -1e-12)


class TestCvarDual:
    def test_coin_flat_objective_smallest_minimizer(self):
        value, s_star = cvar_dual(COIN, 0.5)
        assert value == 2.0
        assert s_star == 0.0

    def test_alpha_one_is_mean(self):
        value, s_star = cvar_dual(QUARTER, 1.0)
        assert_allclose(value, QUARTER.mean(), atol=1e-12)
        assert s_star == QUARTER.values[0]

    def test_degenerate(self):
        value, s_star = cvar_dual(Pmf([1.25], [1.0]), 0.3)
        assert (value, s_star) == (1.25, 1.25)

    def test_atom_excess_matches_the_n_by_n_form(self):
        # Both forms sum nonnegative terms. The n x n product max(v_i - v_j, 0)
        # @ probs is exact up to a relative gamma(n + 1) (one subtraction, n
        # products and their sum), atom_excess up to gamma(2n + 2), so the
        # two differ by at most gamma(3n + 3) E_j. The objectives s + E / alpha
        # then differ by at most gamma(3n + 5) max E / alpha plus one
        # rounding of each side's sum, within gamma(2) max|objective|.
        gamma = lambda k: k * 2.0**-53 / (1 - k * 2.0**-53)
        rng = np.random.default_rng(12)
        pmfs = [random_pmf(rng) for _ in range(200)]
        pmfs += [empirical_pmf(rng.normal(0.0, 5.0, n))
                 for n in rng.integers(2, 2000, 10)]
        for p in pmfs:
            n = len(p)
            full = np.maximum(p.values[None, :] - p.values[:, None], 0.0) @ p.probs
            assert np.all(np.abs(atom_excess(p) - full) <= gamma(3 * n + 3) * full)
            for alpha in (0.005, 0.05, 0.5, 0.99, 1.0):
                objective, best = minimize_dual(p.values, full, alpha)
                bound = (gamma(3 * n + 5) * full.max() / alpha
                         + gamma(2) * np.abs(objective).max())
                value, s_star = cvar_dual(p, alpha)
                assert abs(value - objective[best]) <= bound
                # s* minimizes the n x n objective up to both roundings.
                at = np.searchsorted(p.values, s_star)
                assert objective[at] <= objective[best] + 2 * bound

    def test_memory_is_linear_in_the_atoms(self):
        p = empirical_pmf(np.random.default_rng(13).normal(size=3000))
        assert len(p) == 3000
        tracemalloc.start()
        try:
            cvar_dual(p, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A few arrays of n floats, 24 kB each; one n x n matrix is 72 MB.
        assert peak < 1e6

    def test_ignores_atom_order(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = random_pmf(rng)
            order = rng.permutation(len(p))
            shuffled = Pmf(p.values[order], p.probs[order])
            for alpha in (0.05, 0.5, 1.0):
                assert cvar_dual(shuffled, alpha) == cvar_dual(p, alpha)


class TestCvarTail:
    def test_coin(self):
        assert cvar_tail(COIN, 0.5) == 2.0

    def test_worst_half_average(self):
        # independent oracle: direct enumeration of the worst half
        assert cvar_tail(QUARTER, 0.5) == (3.0 + 4.0) / 2.0

    def test_degenerate(self):
        assert cvar_tail(Pmf([2.5], [1.0]), 0.5) == 2.5

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            cvar_tail(COIN, 1.0)


class TestRiskProperties:
    """Seeded sweeps over random pmfs: the coherence facts the solver leans on."""

    ALPHAS = (0.05, 0.25, 0.5, 0.99)

    def test_dual_tail_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            p = random_pmf(rng)
            for alpha in self.ALPHAS:
                dual, _ = cvar_dual(p, alpha)
                assert abs(dual - cvar_tail(p, alpha)) <= 1e-10

    def test_translation_equivariance(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            p = random_pmf(rng)
            a = float(rng.normal(0, 10))
            q = Pmf(p.values + a, p.probs)
            for alpha in self.ALPHAS + (1.0,):
                base, _ = cvar_dual(p, alpha)
                shifted, _ = cvar_dual(q, alpha)
                assert abs(shifted - (base + a)) <= 1e-10

    def test_monotone_in_alpha_and_bounded(self):
        rng = np.random.default_rng(44)
        alphas = sorted(self.ALPHAS + (1.0,))
        for _ in range(300):
            p = random_pmf(rng)
            values = [cvar_dual(p, a)[0] for a in alphas]
            # alpha up => CVaR down, never below the mean, never above the max
            assert np.all(np.diff(values) <= 1e-10)
            assert values[-1] >= p.mean() - 1e-10
            assert values[0] <= p.values[-1] + 1e-10

    def test_objective_lipschitz_in_s(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            p = random_pmf(rng)
            for alpha in self.ALPHAS:
                s = np.linspace(p.values[0] - 1, p.values[-1] + 1, 23)
                L = s + np.array([expected_excess(p, si) for si in s]) / alpha
                bound = np.diff(s) * (1 + alpha) / alpha
                assert np.all(np.abs(np.diff(L)) <= bound + 1e-12)

    def test_objective_boundary_forms(self):
        # L(s) = s above the support; L(s) = (mean - (1-alpha) s) / alpha below
        # a nonpositive minimum atom
        p = Pmf([-2.0, 0.5, 1.5], [0.2, 0.5, 0.3])
        for alpha in self.ALPHAS:
            for s in (p.values[-1], p.values[-1] + 3.0):
                L = s + expected_excess(p, s) / alpha
                assert_allclose(L, s, atol=1e-12)
            for s in (p.values[0], p.values[0] - 4.0):
                L = s + expected_excess(p, s) / alpha
                assert_allclose(L, (p.mean() - (1 - alpha) * s) / alpha, atol=1e-12)


def pmf_row(probs):
    Pmf([10.0, 14.0], probs)


def disturbance_row(probs):
    model = dataclasses.replace(
        make_stormwater_model(),
        disturbance=lambda x, u: (np.array([10.0, 14.0]), probs))
    model.disturbance_rows(np.zeros((3, 2)), np.zeros(3))


def transition_row(probs):
    TinyInstance(states=[0.0, 1.0], actions=[0.0], cost=[[0.5], [1.0]],
                 terminal=[0.5, 1.5], probs=[[[0.5, 0.5]], [probs]],
                 next_idx=[[[0, 1]], [[0, 1]]], horizon=1, c_bar=2.0, x0=0)


class TestSharedRules:
    """Rules that every caller reaches through one function of ``cvar``."""

    @pytest.mark.parametrize("probs, error", [
        ([0.5, 0.5000000001], r"sum to 1\.0000000001, expected 1"),
        ([1.0, np.nan], "must be nonnegative, got nan"),
        ([1.25, -0.25], "must be nonnegative, got -0.25"),
    ], ids=["off-by-1e-10", "nan", "negative"])
    @pytest.mark.parametrize("law", [pmf_row, disturbance_row, transition_row],
                             ids=["Pmf", "disturbance_rows", "TinyInstance"])
    def test_every_law_refuses_a_bad_row_alike(self, law, probs, error):
        with pytest.raises(ValueError, match=error):
            law(np.array(probs))

    def test_risk_value_matches_cvar_dual_bit_for_bit(self):
        # Each pmf on its own atoms, the s axis that cvar_dual scans.
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = random_pmf(rng)
            excess = atom_excess(p)
            for alpha in (0.05, 0.25, 0.5, 0.99, 1.0):
                w_star, s_star = risk_value(p.values, excess[:, None], alpha)
                assert (w_star[0], s_star[0]) == cvar_dual(p, alpha)
