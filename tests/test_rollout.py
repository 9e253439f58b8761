"""Policy synthesis and Monte Carlo rollout tests."""

import dataclasses
import importlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvarsafe import (AugmentedGrid, Pmf, cvar_dual, default_disturbance,
                      estimate_risk, generate_corpus, g_k, make_stormwater_model,
                      risk_value, rollout, smoke_disturbance, sweep,
                      synthesize_policy, value_iteration)
from cvarsafe.models import design_params
from cvarsafe.rollout import PrecommitmentPolicy
from test_dp import wet_or_smoke_rows

# The module, not the function of the same name that the package exports.
rollout_mod = importlib.import_module("cvarsafe.rollout")

BATCH_FIELDS = ("states", "zs", "actions", "shocks", "y_prime")


def assert_same_batch(got, want):
    for name in BATCH_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def small_setup(disturbance=None):
    model = make_stormwater_model(design_params("a"),
                                  disturbance or smoke_disturbance())
    grid = AugmentedGrid.uniform(model, (9, 9), 5, 5, 5)
    return model, grid, sweep(model, grid)


class TestSynthesizePolicy:
    def test_s_star_read_from_surface(self):
        model, grid, ds = small_setup()
        alpha = 0.5
        _, s_star = risk_value(grid.s_axis, ds, alpha)
        x0 = np.array([2.5, 3.0])
        policy = synthesize_policy(x0, alpha, ds, model, grid)
        node = grid.nearest_x_index(x0)
        assert policy.s_star == s_star[node]
        values, action_idx = value_iteration(policy.s_star, model, grid)
        assert np.array_equal(policy.values, values)
        assert np.array_equal(policy.action_idx, action_idx)
        assert policy.dp_value == float(values[0][node, 0])

    def test_out_of_bounds_x0(self):
        model, grid, ds = small_setup()
        with pytest.raises(ValueError):
            synthesize_policy(np.array([9.0, 1.0]), 0.5, ds, model, grid)

    @pytest.mark.parametrize("x0", [[3.0, 3.5, 1.0], [3.0]],
                             ids=["three-coordinates", "one-coordinate"])
    def test_malformed_x0(self, x0):
        model, grid, ds = small_setup()
        with pytest.raises(ValueError, match=r"x0 .*state_dim=2"):
            synthesize_policy(np.array(x0), 0.5, ds, model, grid)


class TestRollout:
    def test_seed_reproducibility(self):
        model, grid, ds = small_setup()
        policy = synthesize_policy(np.array([3.0, 3.5]), 0.5, ds, model, grid)
        b1 = rollout(policy, 500, seed=9, model=model)
        b2 = rollout(policy, 500, seed=9, model=model)
        assert np.array_equal(b1.states, b2.states)
        assert np.array_equal(b1.y_prime, b2.y_prime)
        b3 = rollout(policy, 500, seed=10, model=model)
        assert not np.array_equal(b1.shocks, b3.shocks)

    def test_rollout_prefix_stable_in_batch_size(self):
        model, grid, ds = small_setup()
        policy = synthesize_policy(np.array([3.0, 3.5]), 0.5, ds, model, grid)
        big = rollout(policy, 200, seed=3, model=model)
        small = rollout(policy, 50, seed=3, model=model)
        assert np.array_equal(big.states[:, :50], small.states)
        assert np.array_equal(big.zs[:, :50], small.zs)
        assert np.array_equal(big.actions[:, :50], small.actions)
        assert np.array_equal(big.shocks[:, :50], small.shocks)
        assert np.array_equal(big.y_prime[:50], small.y_prime)

    def test_degenerate_disturbance_identical_rollouts(self):
        model, grid, ds = small_setup(disturbance=Pmf([12.2], [1.0]))
        policy = synthesize_policy(np.array([2.0, 2.0]), 0.5, ds, model, grid)
        batch = rollout(policy, 50, seed=0, model=model)
        assert np.all(batch.y_prime == batch.y_prime[0])
        assert np.all(batch.states == batch.states[:, 0:1])

    def test_z_trace_recomputable(self):
        model, grid, ds = small_setup()
        policy = synthesize_policy(np.array([3.5, 4.5]), 0.25, ds, model, grid)
        batch = rollout(policy, 100, seed=5, model=model)
        for i in range(0, 100, 17):
            z = 0.0
            for t in range(model.horizon):
                assert batch.zs[t, i] == z
                z = max(z, float(model.stage_cost(batch.states[t, i],
                                                  batch.actions[t, i])))
            assert batch.zs[model.horizon, i] == z

    def test_y_prime_is_trajectory_max_elevation(self):
        model, grid, ds = small_setup()
        params = design_params("a")
        policy = synthesize_policy(np.array([4.0, 5.0]), 0.5, ds, model, grid)
        batch = rollout(policy, 64, seed=1, model=model)
        expected = g_k(batch.states, params).max(axis=0)
        assert_allclose(batch.y_prime, expected, atol=1e-14)

    def test_zero_rollouts(self):
        model, grid, ds = small_setup()
        policy = synthesize_policy(np.array([2.0, 2.0]), 0.5, ds, model, grid)
        batch = rollout(policy, 0, seed=0, model=model)
        assert batch.num == 0


class TestBlockInvariance:
    """Records do not depend on how many rollouts advance together."""

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_block_size_does_not_change_records(self, monkeypatch, block):
        model, grid, ds = small_setup()
        policy = synthesize_policy(np.array([3.0, 3.5]), 0.5, ds, model, grid)
        want = rollout(policy, 300, seed=4, model=model)  # 300 % 7 != 0
        monkeypatch.setattr(rollout_mod, "_BLOCK", block)
        assert_same_batch(rollout(policy, 300, seed=4, model=model), want)

    def test_several_default_blocks_match_one_block(self, monkeypatch):
        model, grid, ds = small_setup()
        policy = synthesize_policy(np.array([3.0, 3.5]), 0.5, ds, model, grid)
        num = 2 * rollout_mod._BLOCK + 3
        want = rollout(policy, num, seed=6, model=model)
        monkeypatch.setattr(rollout_mod, "_BLOCK", num + 1)
        assert_same_batch(rollout(policy, num, seed=6, model=model), want)

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_state_dependent_law_without_batch_sampler(self, monkeypatch, block):
        # A vectorized law whose rows depend on the state: every rollout
        # samples its shock from the row of its own (x, u).
        base, grid, _ = small_setup()
        model = dataclasses.replace(base, disturbance=wet_or_smoke_rows)
        assert model.static_disturbance is None
        policy = synthesize_policy(np.array([3.0, 3.5]), 0.5,
                                   sweep(model, grid), model, grid)
        want = rollout(policy, 50, seed=8, model=model)
        assert np.unique(want.shocks).size == 5  # both laws were sampled
        monkeypatch.setattr(rollout_mod, "_BLOCK", block)
        assert_same_batch(rollout(policy, 50, seed=8, model=model), want)


class TestSampleDisturbances:
    @pytest.mark.parametrize("law", [smoke_disturbance(), default_disturbance()],
                             ids=["two-atoms", "nine-atoms"])
    def test_static_and_callable_laws_draw_the_same_shocks(self, law):
        # A draw equal to a CDF value takes the next atom, as searchsorted's
        # side="right" does, capped at the last atom.
        static, _, _ = small_setup(law)
        rows = lambda x, u: tuple(np.broadcast_to(a, np.shape(u) + a.shape)
                                  for a in (law.values, law.probs))
        law_of_rows = dataclasses.replace(static, disturbance=rows)
        cdf = np.cumsum(law.probs)
        draws = np.concatenate([cdf, np.nextafter(cdf, 0.0), [0.0],
                                np.random.default_rng(3).random(1000)])
        x = np.tile([2.5, 3.0], (draws.size, 1))
        u = np.zeros(draws.size)
        want = law.values[np.minimum(np.searchsorted(cdf, draws, side="right"),
                                     len(law) - 1)]
        for model in (static, law_of_rows):
            got = rollout_mod._sample_disturbances(model, x, u, draws)
            assert np.array_equal(got, want)


class TestKeep:
    """``keep=k`` records the leading k trajectories of the full batch and
    every rollout's y_prime."""

    def assert_leading(self, got, full, k):
        for name in BATCH_FIELDS[:-1]:
            assert np.array_equal(getattr(got, name),
                                  getattr(full, name)[:, :k]), name
        assert np.array_equal(got.y_prime, full.y_prime)
        assert got.num == full.num

    @pytest.mark.parametrize("keep", [0, 10, 300, 301, 5000])
    def test_keep_records_leading_columns(self, keep):
        model, grid, ds = small_setup()
        policy = synthesize_policy(np.array([3.0, 3.5]), 0.5, ds, model, grid)
        full = rollout(policy, 300, seed=4, model=model)
        got = rollout(policy, 300, seed=4, model=model, keep=keep)
        assert got.states.shape[1] == min(300, keep)
        self.assert_leading(got, full, keep)

    def test_block_crossing_keep(self, monkeypatch):
        model, grid, ds = small_setup()
        policy = synthesize_policy(np.array([3.0, 3.5]), 0.5, ds, model, grid)
        full = rollout(policy, 50, seed=2, model=model)
        monkeypatch.setattr(rollout_mod, "_BLOCK", 7)  # block [7, 14) crosses 10
        self.assert_leading(rollout(policy, 50, seed=2, model=model, keep=10),
                            full, 10)

    def test_estimate_risk_ignores_keep(self):
        model, grid, ds = small_setup()
        policy = synthesize_policy(np.array([3.0, 4.0]), 0.5, ds, model, grid)
        full = rollout(policy, 200, seed=7, model=model)
        bare = rollout(policy, 200, seed=7, model=model, keep=0)
        assert bare.states.shape[1] == 0
        assert (estimate_risk(bare, 0.5, policy.s_star)
                == estimate_risk(full, 0.5, policy.s_star))


class TestEstimateRisk:
    def test_constant_outcomes(self):
        model, grid, ds = small_setup(disturbance=Pmf([12.2], [1.0]))
        policy = synthesize_policy(np.array([2.0, 2.0]), 0.5, ds, model, grid)
        batch = rollout(policy, 30, seed=0, model=model)
        stats = estimate_risk(batch, 0.5, policy.s_star)
        assert stats["cvar_hat"] == batch.y_prime[0]
        assert stats["var_hat"] == batch.y_prime[0]

    def test_two_value_batch_delegates_to_risk_functionals(self):
        model, grid, ds = small_setup()
        policy = synthesize_policy(np.array([3.0, 4.0]), 0.5, ds, model, grid)
        batch = rollout(policy, 200, seed=7, model=model)
        stats = estimate_risk(batch, 0.5)
        pmf = Pmf.from_samples(batch.y_prime)
        assert stats["cvar_hat"] == pytest.approx(
            cvar_dual(pmf, 0.5)[0], abs=1e-10)

    def test_empty_batch_rejected(self):
        model, grid, ds = small_setup()
        policy = synthesize_policy(np.array([2.0, 2.0]), 0.5, ds, model, grid)
        batch = rollout(policy, 0, seed=0, model=model)
        with pytest.raises(ValueError):
            estimate_risk(batch, 0.5)


class TestMonteCarloConsistency:
    def test_oracle_instance_mean_excess_matches_dp(self):
        # exact-grid instance: the rollout mean of max(Y - s*, 0) estimates
        # J_0 with no interpolation bias. Its law has two atoms, so the
        # rollouts differ and the excess has a positive mean and stderr.
        inst = generate_corpus(seed=17, count=4)[3]
        model, grid = inst.to_model_and_grid()
        ds = sweep(model, grid)
        alpha = 0.5
        x0 = np.array([inst.states[inst.x0]])
        policy = synthesize_policy(x0, alpha, ds, model, grid)
        batch = rollout(policy, 200_000, seed=11, model=model, keep=0)
        stats = estimate_risk(batch, alpha, policy.s_star)
        assert policy.dp_value > 0 and stats["excess_stderr"] > 0
        gap = abs(stats["excess_hat"] - policy.dp_value)
        assert gap <= 3.0 * stats["excess_stderr"] + 1e-9

    def test_deploy_gap_shrinks_under_grid_refinement(self):
        # Smoke law, design a, x0 = (0, 3.25), s = 1: the interpolated DP
        # value sits above the rollouts' mean excess (about 0.126) and
        # approaches it as the state grid refines, 13^2 -> 25^2 -> 49^2 with
        # z 11 and 11 actions (gaps of about 390, 293 and 92 stderr). Both
        # assertions are measured properties of this case, not theorems.
        model = make_stormwater_model(design_params("a"), smoke_disturbance())
        x0, s = np.array([0.0, 3.25]), 1.0
        gaps = []
        for n in (13, 25, 49):
            grid = AugmentedGrid.uniform(model, (n, n), 11, 11, 2)
            policy = PrecommitmentPolicy(0.5, x0, s, *value_iteration(s, model, grid),
                                         grid)
            batch = rollout(policy, 200_000, seed=0, model=model, keep=0)
            stats = estimate_risk(batch, 0.5, s)
            excess, stderr = stats["excess_hat"], stats["excess_stderr"]
            assert policy.dp_value >= excess - 3.0 * stderr
            gaps.append((policy.dp_value - excess) / stderr)
        assert gaps[0] > gaps[1] > gaps[2], gaps
