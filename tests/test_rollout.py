"""Policy synthesis and Monte Carlo rollout tests."""

import dataclasses
import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvarsafe import (AugmentedGrid, Pmf, cli, cvar_dual, default_disturbance,
                      estimate_risk, generate_corpus, g_k, make_stormwater_model,
                      risk_value, rollout, smoke_disturbance, sweep,
                      synthesize_policy, value_iteration)
from cvarsafe.models import design_params
from cvarsafe.rollout import PrecommitmentPolicy
from references import rollout_direct
from test_cli import read_configured_sweep
from test_dp import wet_or_smoke_rows

# The module, not the function of the same name that the package exports.
rollout_mod = importlib.import_module("cvarsafe.rollout")

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
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
        assert np.array_equal(policy.action_idx, action_idx)
        assert policy.dp_value == float(values[0][node, 0])

    def test_holds_only_what_is_read(self):
        # The rollouts read the action tables on the grid; the deploy
        # summary reads s* and the DP value. No value layer is kept.
        names = [f.name for f in dataclasses.fields(PrecommitmentPolicy)]
        assert names == ["x0", "s_star", "dp_value", "action_idx", "grid"]

    @pytest.mark.parametrize("design", ["a", "b"])
    def test_dp_value_is_the_sweep_cell(self, design):
        # The policy's dp_value is the sweep's v0 cell, and the re-solve at
        # s* that gives its action tables reproduces that cell bit for bit,
        # so the tables are those behind dp_value. On the coarse baseline
        # grid; the cases reach s* at 0, inside the axis and at c_bar.
        model = make_stormwater_model(design_params(design),
                                      default_disturbance())
        grid = AugmentedGrid.uniform(model, (25, 25), 11, 11, 21)
        v0 = sweep(model, grid, threads=2)
        j0 = {}
        for x0 in ([2.5, 3.0], [0.0, 3.25], [1.0, 1.0], [4.0, 4.0]):
            for alpha in (0.99, 0.5, 0.05):
                policy = synthesize_policy(x0, alpha, v0, model, grid)
                (i,) = np.flatnonzero(grid.s_axis == policy.s_star)
                node = grid.nearest_x_index(np.array(x0))
                assert policy.dp_value == v0[i, node], (x0, alpha)
                if policy.s_star not in j0:
                    j0[policy.s_star] = value_iteration(policy.s_star, model,
                                                        grid)[0][0]
                assert j0[policy.s_star][node, 0] == v0[i, node], (x0, alpha)
        assert {grid.s_axis[0], grid.s_axis[-1]} < set(j0), set(j0)

    def test_dp_value_is_read_from_v0(self):
        # Shifting every row of v0 by one constant leaves the dual argmin in
        # place, and the policy's dp_value follows the shifted cell, not the
        # re-solve.
        model, grid, v0 = small_setup()
        shifted = v0 + 0.25
        for x0 in ([2.5, 3.0], [0.0, 3.25], [4.0, 4.0]):
            policy = synthesize_policy(x0, 0.5, v0, model, grid)
            moved = synthesize_policy(x0, 0.5, shifted, model, grid)
            (i,) = np.flatnonzero(grid.s_axis == policy.s_star)
            node = grid.nearest_x_index(np.array(x0))
            assert moved.s_star == policy.s_star, x0
            assert moved.dp_value == shifted[i, node] == v0[i, node] + 0.25
            assert np.array_equal(moved.action_idx, policy.action_idx)

    def test_deploy_dp_value_is_the_sweep_csv_cell(self, tmp_path):
        # Through the command line: deploy --sweep writes the sweep.csv cell
        # at (s*, node nearest x0) as its dp_value, at an interior s* and at
        # the shipped deploy point (s* = c_bar).
        config = str(CONFIGS / "coarse-baseline.json")
        out = tmp_path / "run"
        assert cli.main(["sweep", "--config", config, "--threads", "2",
                         "--out", str(out)]) == 0
        v0, grid, _ = read_configured_sweep(config, out)
        s_stars = []
        for flags in ([], ["--x0", "0.0,3.25", "--alpha", "0.5"]):
            deploy = tmp_path / f"deploy{len(flags)}"
            assert cli.main(["deploy", "--config", config, "--sweep", str(out),
                             "--rollouts", "0", "--out", str(deploy), *flags]) == 0
            summary = json.loads((deploy / "deploy_summary.json").read_text())
            (i,) = np.flatnonzero(grid.s_axis == summary["s_star"])
            node = grid.nearest_x_index(np.array(summary["x0"]))
            assert summary["dp_value"] == v0[i, node], flags
            s_stars.append(summary["s_star"])
        assert s_stars == [grid.s_axis[-1], 1.0]

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


def tree_depth(policy, model, num):
    """D: the scenario-tree levels ``rollout`` walks for ``num`` rollouts."""
    cap = min(num, rollout_mod._TREE_NODES)
    return len(rollout_mod._scenario_tree(policy, model, cap)[0])


def policy_at(model, grid, x0=(3.0, 3.5), s=1.0):
    """The policy at dual parameter ``s``, built as ``synthesize_policy``
    builds it once s* is fixed."""
    x0 = np.array(x0)
    values, action_idx = value_iteration(s, model, grid)
    dp_value = float(values[0][grid.nearest_x_index(x0), 0])
    return PrecommitmentPolicy(x0, s, dp_value, action_idx, grid)


def stormwater_policy(design="a", law=None, horizon=20):
    model = make_stormwater_model(design_params(design, horizon=horizon),
                                  law or smoke_disturbance())
    grid = AugmentedGrid.uniform(model, (9, 9), 5, 5, 2)
    return model, policy_at(model, grid)


class TestScenarioTree:
    """``rollout`` walks a shared scenario tree for its first D steps and
    matches full steps for every trajectory (``rollout_direct``) bit for bit."""

    BIG = 2 * rollout_mod._BLOCK + 3

    def check(self, policy, model, num, seed=4, keep=None):
        want = rollout_direct(policy, num, seed, model, keep=keep)
        assert_same_batch(rollout(policy, num, seed, model, keep=keep), want)
        return want

    @pytest.mark.parametrize("design", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("law", [smoke_disturbance(), default_disturbance()],
                             ids=["smoke", "default"])
    def test_designs_and_laws(self, design, law):
        model, policy = stormwater_policy(design, law)
        assert 0 < tree_depth(policy, model, self.BIG) < model.horizon
        self.check(policy, model, self.BIG, keep=10)

    def test_state_dependent_law(self):
        base, policy = stormwater_policy()
        model = dataclasses.replace(base, disturbance=wet_or_smoke_rows)
        policy = policy_at(model, policy.grid)
        assert tree_depth(policy, model, self.BIG) == 8  # 3**8 <= BIG < 3**9
        want = self.check(policy, model, self.BIG, keep=10)
        assert np.unique(want.shocks).size == 5  # both laws were sampled

    @pytest.mark.parametrize("num", [0, 1, 5, BIG])
    @pytest.mark.parametrize("keep", [0, 10, rollout_mod._BLOCK + 5])
    def test_num_and_keep(self, num, keep):
        model, policy = stormwater_policy()
        self.check(policy, model, num, keep=keep)

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("law", [smoke_disturbance(), wet_or_smoke_rows],
                             ids=["static", "callable"])
    def test_block_sizes(self, monkeypatch, block, law):
        base, policy = stormwater_policy()
        model = dataclasses.replace(base, disturbance=law)
        policy = policy_at(model, policy.grid)
        monkeypatch.setattr(rollout_mod, "_BLOCK", block)
        self.check(policy, model, 50, keep=10)

    @pytest.mark.parametrize("shape", [(2,), (1, 2)], ids=["one-row", "batch-of-one"])
    def test_callable_law_of_one_row(self, shape):
        # A callable may give one row for every state, at a shape that
        # broadcasts against the batch: its CDF is read by every draw.
        smoke = smoke_disturbance()
        law = lambda x, u: (smoke.values.reshape(shape), smoke.probs.reshape(shape))
        base, policy = stormwater_policy()
        model = dataclasses.replace(base, disturbance=law)
        policy = policy_at(model, policy.grid)
        assert tree_depth(policy, model, self.BIG) == 14  # 2**14 <= BIG < 2**15
        self.check(policy, model, self.BIG, keep=10)

    def test_production_cap(self):
        # At least 2**17 smoke-law rollouts: the module's own cap, 17 levels.
        model, policy = stormwater_policy()
        num = (1 << 17) + 3
        assert tree_depth(policy, model, num) == 17
        self.check(policy, model, num, keep=10)

    def test_no_tree(self, monkeypatch):
        model, policy = stormwater_policy()
        monkeypatch.setattr(rollout_mod, "_TREE_NODES", 1)
        assert tree_depth(policy, model, 300) == 0
        self.check(policy, model, 300, keep=10)

    @pytest.mark.parametrize("cap, depth", [(2**6, 6), (2**6 - 1, 5)])
    def test_tree_up_to_the_horizon(self, monkeypatch, cap, depth):
        # Two atoms and 6 steps: level 6 has 64 nodes.
        model, policy = stormwater_policy(horizon=6)
        monkeypatch.setattr(rollout_mod, "_TREE_NODES", cap)
        assert tree_depth(policy, model, 300) == depth
        self.check(policy, model, 300, keep=10)

    def test_oracle_instance_walks_the_whole_tree(self):
        inst = generate_corpus(5, 6)[0]  # three atoms
        model, grid = inst.to_model_and_grid()
        policy = synthesize_policy(np.array([inst.states[inst.x0]]), 0.5,
                                   sweep(model, grid), model, grid)
        assert tree_depth(policy, model, 1000) == model.horizon
        self.check(policy, model, 1000, keep=10)

    @pytest.mark.parametrize("cap", [1, rollout_mod._TREE_NODES],
                             ids=["full-steps", "tree"])
    def test_draw_equal_to_a_cdf_value(self, monkeypatch, cap):
        # The first draw is the law's CDF at atoms 0 and 1 (atom 1 has
        # probability 0), so it takes atom 2: a `<` would take atom 0, and so
        # would a CDF summed in another order unless it rounds the same.
        model, policy = stormwater_policy()
        first = np.random.default_rng(4).random((1, model.horizon))[0, 0]
        law = Pmf([9.0, 12.0, 15.0], [first, 0.0, 1.0 - first])
        model = dataclasses.replace(model, disturbance=law)
        policy = policy_at(model, policy.grid)
        assert np.array_equal(rollout_mod._cdf_rows(model, policy.x0, 0.0)[1],
                              [first, first])
        monkeypatch.setattr(rollout_mod, "_TREE_NODES", cap)
        want = self.check(policy, model, 50, keep=10)
        assert want.shocks[0, 0] == 15.0

    def test_tree_stops_before_an_undrawable_non_finite_state(self):
        # Atom 0 has probability 0 and a NaN value: no draw takes it (its CDF
        # value 0 is at most every draw), but the tree evaluates it, and
        # stops at level 1 rather than look up a NaN state.
        smoke = smoke_disturbance()

        def nan_first(x, u):
            shape = np.broadcast_shapes(np.shape(x)[:-1], np.shape(u)) + (3,)
            return (np.broadcast_to(np.append(np.nan, smoke.values), shape),
                    np.broadcast_to(np.append(0.0, smoke.probs), shape))

        base, policy = stormwater_policy()  # value_iteration refuses NaN states
        model = dataclasses.replace(base, disturbance=nan_first)
        assert tree_depth(policy, model, 300) == 1
        want = self.check(policy, model, 300)
        assert np.isfinite(want.states).all() and np.isfinite(want.y_prime).all()


class TestLawRows:
    """A law's rows come at the shape the law gives them: a ``Pmf`` once for
    every state, a callable one row per state."""

    X = np.tile([2.5, 3.0], (1000, 1))
    U = np.zeros(1000)

    @pytest.mark.parametrize("law", [smoke_disturbance(), default_disturbance()],
                             ids=["two-atoms", "nine-atoms"])
    def test_static_rows_do_not_grow_with_the_batch(self, law):
        model = make_stormwater_model(design_params("a"), law)
        values, probs = model.disturbance_rows(self.X, self.U)
        assert values.shape == probs.shape == (len(law),)
        values, cdf = rollout_mod._cdf_rows(model, self.X, self.U)
        assert values.shape == (len(law),)
        assert [c.shape for c in cdf] == [()] * (len(law) - 1)
        assert np.array_equal(cdf, np.cumsum(law.probs)[:-1])

    def test_callable_rows_keep_their_batch_shape(self):
        model = dataclasses.replace(make_stormwater_model(),
                                    disturbance=wet_or_smoke_rows)
        values, probs = model.disturbance_rows(self.X, self.U)
        assert values.shape == probs.shape == (1000, 3)
        values, cdf = rollout_mod._cdf_rows(model, self.X, self.U)
        assert values.shape == (1000, 3)
        assert [c.shape for c in cdf] == [(1000,)] * 2
        # Rows that do not depend on u keep their u axis of size 1.
        values, _ = model.disturbance_rows(self.X[None], np.zeros((4, 1)))
        assert values.shape == (1, 1000, 3)

    @pytest.mark.parametrize("shape", [(2, 3, 2), (5, 2)])
    def test_callable_rows_must_broadcast_to_the_batch(self, shape):
        model = dataclasses.replace(
            make_stormwater_model(),
            disturbance=lambda x, u: (np.zeros(shape), np.full(shape, 0.5)))
        with pytest.raises(ValueError):
            model.disturbance_rows(np.zeros((3, 2)), np.zeros(3))


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
        stats = estimate_risk(batch, 0.5, policy.s_star)
        pmf = Pmf.from_samples(batch.y_prime)
        assert stats["cvar_hat"] == pytest.approx(
            cvar_dual(pmf, 0.5)[0], abs=1e-10)

    def test_empty_batch_rejected(self):
        model, grid, ds = small_setup()
        policy = synthesize_policy(np.array([2.0, 2.0]), 0.5, ds, model, grid)
        batch = rollout(policy, 0, seed=0, model=model)
        with pytest.raises(ValueError):
            estimate_risk(batch, 0.5, policy.s_star)


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
            policy = policy_at(model, grid, x0, s)
            batch = rollout(policy, 200_000, seed=0, model=model, keep=0)
            stats = estimate_risk(batch, 0.5, s)
            excess, stderr = stats["excess_hat"], stats["excess_stderr"]
            assert policy.dp_value >= excess - 3.0 * stderr
            gaps.append((policy.dp_value - excess) / stderr)
        assert gaps[0] > gaps[1] > gaps[2], gaps
