"""Tests of the exact tiny-instance verifiers themselves."""

import dataclasses
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvarsafe import (AugmentedGrid, OracleError, OracleSizeError, Pmf,
                      TinyInstance, exact_optimal_cvar, exchange_identity_value,
                      generate_corpus, load_corpus, make_stormwater_model,
                      random_instance, save_corpus)
from cvarsafe import oracle
from cvarsafe.cli import _ORACLE_ALPHAS, _default_corpus
from cvarsafe.dp import precompute_transitions
from cvarsafe.oracle import _excess_dp, _y_distribution
from pointwise import expectation_dp
from references import (exact_optimal_cvar_history, exact_optimal_cvar_loop,
                        exact_policy_cvar)


def two_state_instance():
    """Deterministic transitions, one noisy action; horizon 1."""
    return TinyInstance(
        states=np.array([0.0, 1.0]),
        actions=np.array([0.0, 1.0]),
        cost=np.array([[0.0, 0.5], [1.0, 1.0]]),
        terminal=np.array([0.0, 2.0]),
        probs=np.array([[[0.5, 0.5], [1.0, 0.0]],
                        [[0.5, 0.5], [1.0, 0.0]]]),
        next_idx=np.array([[[0, 1], [0, 0]],
                           [[0, 1], [1, 1]]]),
        horizon=1,
        c_bar=2.0,
        x0=0,
    )


@pytest.mark.parametrize("field, index, error", [
    ("probs", (1, 0, 0), "transition probabilities must be nonnegative"),
    ("cost", (0, 1), "costs must lie in"),
    ("terminal", (1,), "costs must lie in"),
])
def test_nan_entry_rejected(field, index, error):
    inst = two_state_instance()
    table = getattr(inst, field).copy()
    table[index] = np.nan
    with pytest.raises(ValueError, match=error):
        dataclasses.replace(inst, **{field: table})


@pytest.mark.parametrize("node", [np.nan, np.inf])
def test_single_nonfinite_state_rejected(node):
    inst = two_state_instance()
    with pytest.raises(ValueError, match="states must be"):
        dataclasses.replace(inst, states=np.array([node]), cost=inst.cost[:1],
                            terminal=inst.terminal[:1], probs=inst.probs[:1],
                            next_idx=np.zeros_like(inst.next_idx[:1]))


@pytest.mark.parametrize("index", [0.6, np.nan, 2.0, -1.0],
                         ids=["fraction", "nan", "above", "below"])
def test_bad_next_state_rejected(index):
    inst = two_state_instance()
    next_idx = inst.next_idx.astype(np.float64)
    next_idx[0, 0, 0] = index
    with pytest.raises(ValueError, match="next_idx must hold integral state indices"):
        dataclasses.replace(inst, next_idx=next_idx)


@pytest.mark.parametrize("field, value, error", [
    ("horizon", 2.7, "horizon of 1, 2 or 3"),
    ("horizon", np.nan, "horizon of 1, 2 or 3"),
    ("horizon", 4, "horizon of 1, 2 or 3"),
    ("x0", 0.9, "x0 must be an integral state index"),
    ("x0", np.nan, "x0 must be an integral state index"),
    ("x0", 2, "x0 must be an integral state index"),
], ids=["horizon-fraction", "horizon-nan", "horizon-above",
        "x0-fraction", "x0-nan", "x0-above"])
def test_bad_horizon_or_start_rejected(field, value, error):
    # A programmatic instance is checked too, not only a parsed record.
    with pytest.raises(ValueError, match=error):
        dataclasses.replace(two_state_instance(), **{field: value})


@pytest.mark.parametrize("c_bar", [np.nan, np.inf, 0.0, -1.0])
def test_c_bar_must_be_positive_and_finite(c_bar):
    with pytest.raises(ValueError, match="c_bar must be positive and finite"):
        dataclasses.replace(two_state_instance(), c_bar=c_bar)


def test_integral_floats_stored_as_ints():
    inst = dataclasses.replace(two_state_instance(), horizon=np.float64(2.0), x0=1.0)
    assert (inst.horizon, inst.x0) == (2, 1)
    assert type(inst.horizon) is int and type(inst.x0) is int


class TestExactPolicyCvar:
    def test_deterministic_point_mass(self):
        inst = two_state_instance()
        # action 1 from state 0 goes to state 0 surely: Y = max(0.5, 0) = 0.5
        policy = {(0, 0, 0.0): 1}
        for alpha in (0.05, 0.5, 1.0):
            assert exact_policy_cvar(inst, policy, alpha) == 0.5

    def test_two_branch_hand_computation(self):
        inst = two_state_instance()
        # action 0: half to state 0 (Y = 0), half to state 1 (Y = 2)
        policy = {(0, 0, 0.0): 0}
        assert exact_policy_cvar(inst, policy, 1.0) == 1.0     # mean
        assert exact_policy_cvar(inst, policy, 0.5) == 2.0     # worst half
        assert exact_policy_cvar(inst, policy, 0.25) == 2.0

    def test_alpha_one_is_expected_max_cost(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            inst = random_instance(rng, max_policies=200)
            result = exact_optimal_cvar(inst, 1.0)
            assert_allclose(result.value, _excess_dp(inst, 0.0), atol=1e-9)

    def test_unreachable_entry_raises(self):
        inst = two_state_instance()
        with pytest.raises(OracleError):
            exact_policy_cvar(inst, {}, 0.5)


class TestExactOptimalCvar:
    def test_single_action_equals_policy_value(self):
        rng = np.random.default_rng(21)
        while True:
            inst = random_instance(rng, max_policies=50)
            if inst.n_actions == 1:
                break
        res = exact_optimal_cvar(inst, 0.3)
        assert res.value == exact_policy_cvar(inst, res.policy, 0.3)

    def test_picks_the_safe_action(self):
        inst = two_state_instance()
        res = exact_optimal_cvar(inst, 0.25)
        # deterministic action 1 (cost 0.5) beats the risky action 0 (CVaR 2)
        assert res.value == 0.5
        assert res.policy[(0, 0, 0.0)] == 1

    def test_exchange_identity_on_corpus(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            inst = random_instance(rng, max_policies=800)
            for alpha in (0.1, 0.5, 1.0):
                res = exact_optimal_cvar(inst, alpha)
                assert abs(res.value - res.exchange_value) <= 1e-9
                assert res.exchange_value == exchange_identity_value(inst, alpha)

    @pytest.mark.parametrize("corpus", ["shipped", 11, 12])
    def test_matches_per_policy_loop(self, corpus):
        instances = (_default_corpus() if corpus == "shipped"
                     else generate_corpus(corpus, 40))
        for inst in instances:
            for alpha in _ORACLE_ALPHAS:
                res = exact_optimal_cvar(inst, alpha)
                assert (res.value, res.policy) == exact_optimal_cvar_loop(inst, alpha)

    @pytest.mark.parametrize("seed, i", [(15, 6), (21, 28)])
    def test_rounding_level_ties_resolve_like_the_loop(self, seed, i):
        # Optimal policies whose values differ by one ulp, ordered one way by
        # the array scores and the other way by the scalar path.
        inst = generate_corpus(seed, i + 1)[i]
        res = exact_optimal_cvar(inst, 1.0)
        assert (res.value, res.policy) == exact_optimal_cvar_loop(inst, 1.0)

    @pytest.mark.parametrize("seed, i, value, policy", [
        (15, 6, "0x1.c284a905cf441p+0",
         {(0, 1, 0.0): 0, (1, 0, 0.0): 0, (1, 0, 1.0): 1, (1, 1, 0.0): 0,
          (1, 1, 1.0): 1, (2, 0, 0.0): 0, (2, 0, 1.0): 1, (2, 1, 0.0): 0,
          (2, 1, 1.0): 1}),
        (21, 28, "0x1.4ccccccccccccp+0",
         {(0, 0, 0.0): 2, (1, 1, 2.0): 0, (1, 2, 0.0): 0, (1, 2, 1.0): 0,
          (1, 2, 2.0): 0}),
    ])
    def test_rounding_level_ties_pinned(self, seed, i, value, policy):
        # The loop reference walks its policies with _y_distribution, the
        # oracle's own walk, so a change of walk order would move both: pin
        # the answers of the per-policy stack walk the shared walk replaced.
        res = exact_optimal_cvar(generate_corpus(seed, i + 1)[i], 1.0)
        assert res.value.hex() == res.exchange_value.hex() == value
        assert res.policy == policy
        assert list(res.policy) == list(policy)  # slots in layer order

    def test_no_per_policy_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact_optimal_cvar walked one policy alone")

        monkeypatch.setattr(oracle, "_y_distribution", refuse)
        for inst in _default_corpus():
            exact_optimal_cvar(inst, 0.5)

    def test_59049_policy_instance(self):
        rng = np.random.default_rng(3)
        while True:
            inst = random_instance(rng, max_policies=200_000)
            if inst.policy_count() > 1 << 15:
                break
        assert inst.policy_count() == 59049
        for alpha in (0.05, 1.0):
            res = exact_optimal_cvar(inst, alpha)  # checks the exchange identity
            assert res.value == exact_policy_cvar(inst, res.policy, alpha)

    def test_budget_error(self):
        rng = np.random.default_rng(4)
        while True:
            inst = random_instance(rng, max_policies=4000)
            if inst.policy_count() > 64:
                break
        with pytest.raises(OracleSizeError):
            exact_optimal_cvar(inst, 0.5, budget=64)


class TestHistoryPolicies:
    def test_history_never_beats_augmented_feedback(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 12:
            inst = random_instance(rng, max_policies=800)
            if inst.horizon > 2:
                continue
            checked += 1
            for alpha in (0.2, 0.7, 1.0):
                feedback = exact_optimal_cvar(inst, alpha).value
                history = exact_optimal_cvar_history(inst, alpha)
                assert abs(history - feedback) <= 1e-9

    def test_horizon_three_rejected(self):
        rng = np.random.default_rng(6)
        while True:
            inst = random_instance(rng)
            if inst.horizon == 3:
                break
        with pytest.raises(ValueError):
            exact_optimal_cvar_history(inst, 0.5)


class TestReachability:
    def test_z_values_stay_in_cost_closure(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            inst = random_instance(rng, max_policies=500)
            allowed = {0.0} | {float(c) for c in inst.cost.ravel()}
            for layer in inst.reachable_nodes():
                for _, z in layer:
                    assert z in allowed

    def test_policy_count_matches_layer_sizes(self):
        inst = two_state_instance()
        layers = inst.reachable_nodes()
        assert layers[0] == ((0, 0.0),)
        nodes = sum(len(l) for l in layers[:-1])
        assert inst.policy_count() == inst.n_actions ** nodes

    def test_layers_are_built_once(self):
        # Every walk of an instance reads the same immutable layers.
        inst = two_state_instance()
        layers = inst.reachable_nodes()
        assert layers is inst.reachable_nodes()
        assert isinstance(layers, tuple)
        assert all(isinstance(layer, tuple) for layer in layers)

    def test_grid_has_one_breakpoint_axis(self):
        # z and s share the breakpoint axis: it starts at 0 and holds every
        # reachable running maximum and every stage cost, so each lookup of
        # max(z, c) lands on a node.
        instances = list(_default_corpus())
        for seed in range(6):
            instances += generate_corpus(seed, 60)
        for inst in instances:
            model, grid = inst.to_model_and_grid()
            assert np.array_equal(grid.z_axis, grid.s_axis)
            assert grid.z_axis.tolist() == inst.s_breakpoints()
            assert grid.z_axis[0] == 0.0
            nodes = set(grid.z_axis.tolist())
            assert {z for layer in inst.reachable_nodes() for _, z in layer} <= nodes
            # A cost on a node brackets with fraction 0 (or 1 at the top node).
            cz_frac = precompute_transitions(model, grid).cz_frac
            assert np.isin(cz_frac, (0.0, 1.0)).all()

    @pytest.mark.parametrize("corpus", ["shipped", 11])
    def test_canonical_policies_are_first_of_each_signature(self, corpus):
        # Brute force: walk every policy in itertools.product order and keep
        # the first of each signature, its actions at the slots it reaches.
        instances = (_default_corpus() if corpus == "shipped"
                     else generate_corpus(corpus, 40))
        for inst in instances:
            layers = inst.reachable_nodes()
            slots = [(t, xi, z) for t in range(inst.horizon) for xi, z in layers[t]]
            first = {}
            for actions in itertools.product(range(inst.n_actions), repeat=len(slots)):
                assignment = dict(zip(slots, actions))
                reached = set()

                def get_action(*node, _a=assignment):
                    reached.add(node)
                    return _a[node]

                _y_distribution(inst, get_action)
                signature = tuple(a if slot in reached else -1
                                  for slot, a in zip(slots, actions))
                first.setdefault(signature, actions)
            canonical = oracle._policy_laws(inst, lambda *node: range(inst.n_actions))
            assert [actions for actions, _ in canonical] == list(first.values())


def zero_atom_instance():
    """Three states, two actions, three atoms; the row of (x 1, a 0) has a
    zero-probability atom between two positive ones; horizon 2."""
    return TinyInstance(
        states=np.array([0.0, 1.0, 2.0]),
        actions=np.array([0.0, 1.0]),
        cost=np.array([[0.0, 0.5], [1.0, 0.5], [1.5, 2.0]]),
        terminal=np.array([0.0, 1.0, 2.0]),
        probs=np.array([[[0.5, 0.25, 0.25], [1.0, 0.0, 0.0]],
                        [[0.25, 0.0, 0.75], [0.5, 0.5, 0.0]],
                        [[1 / 3, 1 / 3, 1 / 3], [0.0, 0.0, 1.0]]]),
        next_idx=np.array([[[0, 1, 2], [1, 2, 0]],
                           [[0, 2, 2], [1, 0, 2]],
                           [[2, 1, 0], [0, 1, 2]]]),
        horizon=2,
        c_bar=2.0,
        x0=1,
    )


class TestSuccessors:
    @staticmethod
    def assert_table_matches_arrays(inst):
        table = inst.successors
        assert len(table) == inst.n_states
        for xi, row in enumerate(table):
            assert len(row) == inst.n_actions
            for ai, (cost, atoms) in enumerate(row):
                assert type(cost) is float and cost == float(inst.cost[xi, ai])
                expected = [(int(inst.next_idx[xi, ai, wi]),
                             float(inst.probs[xi, ai, wi]))
                            for wi in range(inst.n_atoms)
                            if inst.probs[xi, ai, wi] > 0.0]
                assert list(atoms) == expected
                assert all(type(n) is int and type(p) is float for n, p in atoms)

    @pytest.mark.parametrize("corpus", ["shipped", 11])
    def test_table_matches_the_arrays(self, corpus):
        instances = (_default_corpus() if corpus == "shipped"
                     else generate_corpus(corpus, 40))
        for inst in instances:
            self.assert_table_matches_arrays(inst)

    def test_zero_probability_atom_left_out(self):
        inst = zero_atom_instance()
        self.assert_table_matches_arrays(inst)
        assert inst.successors[1][0] == (1.0, ((0, 0.25), (2, 0.75)))
        assert inst.successors[2][1] == (2.0, ((2, 1.0),))
        assert inst.successors is inst.successors  # cached, not rebuilt

    @pytest.mark.parametrize("make", [zero_atom_instance, two_state_instance,
                                      lambda: generate_corpus(11, 1)[0]],
                             ids=["zero-atom", "two-state", "generated"])
    def test_walks_read_only_the_table(self, make):
        # With the transition arrays gone once the table is cached, the three
        # walks still give what they gave before.
        def walks(inst, s):
            layers = inst.reachable_nodes()
            laws = list(oracle._policy_laws(inst, lambda *node: range(inst.n_actions)))
            return (layers, [actions for actions, _ in laws],
                    [(d.values.tolist(), d.probs.tolist()) for _, d in laws],
                    _excess_dp(inst, s).tolist())

        inst = make()
        s = np.array(inst.s_breakpoints())
        expected = walks(inst, s)
        for name in ("cost", "probs", "next_idx"):
            object.__setattr__(inst, name, None)
        assert walks(inst, s) == expected


class TestSerialization:
    def test_round_trip(self, tmp_path):
        instances = generate_corpus(seed=1, count=4)
        path = tmp_path / "corpus.json"
        save_corpus(path, instances)
        back = load_corpus(path)
        assert len(back) == 4
        for a, b in zip(instances, back):
            assert np.array_equal(a.cost, b.cost)
            assert np.array_equal(a.next_idx, b.next_idx)
            assert np.array_equal(a.probs, b.probs)
            assert a.horizon == b.horizon and a.x0 == b.x0

    def test_corrupted_file_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1,\n "instances": [}\n')
        with pytest.raises(ValueError) as err:
            load_corpus(path)
        assert "line 2" in str(err.value)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"schema": 1, "instances": [{"states": [0.0]}]}\n')
        with pytest.raises(ValueError):
            load_corpus(path)

    def test_not_a_corpus(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"something": []}\n')
        with pytest.raises(ValueError):
            load_corpus(path)

    @pytest.mark.parametrize("schema", [None, '2', 'true', '1.0'],
                             ids=["missing", "2", "true", "1.0"])
    def test_other_schema_refused(self, tmp_path, schema):
        path = tmp_path / "other.json"
        head = "" if schema is None else f'"schema": {schema}, '
        path.write_text('{' + head + '"instances": []}\n')
        with pytest.raises(ValueError, match="^schema: expected 1, got "):
            load_corpus(path)


class TestExpectationDp:
    def test_matches_exact_dp_on_tiny_instances(self):
        # dual route: the scipy-interpolated grid DP must reproduce the
        # dict-based exact DP when every transition lands on a node
        rng = np.random.default_rng(30)
        checked = 0
        while checked < 8:
            inst = random_instance(rng, max_policies=500)
            if inst.n_states < 2:
                continue
            checked += 1
            model, grid = inst.to_model_and_grid()
            values = expectation_dp(model, grid)
            assert_allclose(values[inst.x0], _excess_dp(inst, 0.0), atol=1e-12)

    def test_no_inflow_keeps_desired_region_costless(self):
        # state-independent disturbance exercises the vectorized branch;
        # without inflow, levels never rise, so nodes inside the desired box
        # can never incur cost
        model = make_stormwater_model(disturbance=Pmf([0.0], [1.0]))
        grid = AugmentedGrid.uniform(model, (6, 6), 4, 3, 3)
        values = expectation_dp(model, grid)
        nodes = grid.x_nodes()
        safe = (nodes[:, 0] <= 3.0) & (nodes[:, 1] <= 4.0)
        assert np.all(values[safe] == 0.0)
        assert values.max() > 0.5

