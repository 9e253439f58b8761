"""Value-iteration engine tests: terminal stage, backups, argmin, tables."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from cvarsafe import (AugmentedGrid, Pmf, SystemModel, backup_q, bellman_min,
                      interp_xz, make_stormwater_model, precompute_transitions,
                      smoke_disturbance, terminal_value, value_iteration)
from cvarsafe.artifacts import write_tables_csv
from cvarsafe.dp import sweep_kernel
from cvarsafe.grids import locate_batch


def sweep_loops(J_next, z_axis, cost, probs, corner_idx, corner_wt, cz_idx, cz_frac):
    """Reference Bellman step: one scalar loop per (x, z, u, atom, corner)."""
    n_x, n_z = J_next.shape
    n_u = cost.shape[1]
    n_w = probs.shape[2]
    n_c = corner_idx.shape[3]
    J_out = np.empty((n_x, n_z))
    U_out = np.empty((n_x, n_z), dtype=np.int64)
    for ix in range(n_x):
        for jz in range(n_z):
            best = np.inf
            best_u = 0
            for iu in range(n_u):
                if z_axis[jz] >= cost[ix, iu]:
                    k = jz
                    f = 0.0
                else:
                    k = cz_idx[ix, iu]
                    f = cz_frac[ix, iu]
                kp = k + 1
                if kp > n_z - 1:
                    kp = n_z - 1
                q = 0.0
                for iw in range(n_w):
                    p = probs[ix, iu, iw]
                    if p == 0.0:
                        continue
                    v = 0.0
                    for c in range(n_c):
                        wt = corner_wt[ix, iu, iw, c]
                        if wt == 0.0:
                            continue
                        node = corner_idx[ix, iu, iw, c]
                        v += wt * ((1.0 - f) * J_next[node, k] + f * J_next[node, kp])
                    q += p * v
                if q < best:
                    best = q
                    best_u = iu
            J_out[ix, jz] = best
            U_out[ix, jz] = best_u
    return J_out, U_out


WET = Pmf([10.0, 14.0, 18.0], [0.2, 0.5, 0.3])


def wet_or_smoke_rows(x, u):
    """A state-dependent runoff law: the three-atom ``WET`` row where
    x1 > 3.3, else the smoke row padded to three atoms with a
    zero-probability copy of its last atom. Rows do not depend on u."""
    smoke = smoke_disturbance()
    dry_values = np.append(smoke.values, smoke.values[-1])
    dry_probs = np.append(smoke.probs, 0.0)
    wet = np.asarray(x)[..., :1] > 3.3
    return (np.where(wet, WET.values, dry_values),
            np.where(wet, WET.probs, dry_probs))


def line_model(horizon=2, step=0.5, cost_scale=0.25,
               atoms=((0.1, 0.3), (0.6, 0.7)), c_bar=1.0):
    """1-d test system on [0, 2]: x' = clip(x + step*u + w), cost = scale*x."""
    dist = Pmf([a for a, _ in atoms], [p for _, p in atoms])

    def dyn(x, u, w):
        x = np.asarray(x, dtype=np.float64)
        nxt = np.clip(x[..., 0] + step * np.asarray(u) + np.asarray(w), 0.0, 2.0)
        return nxt[..., None]

    def cost(x, u):
        return cost_scale * np.asarray(x, dtype=np.float64)[..., 0]

    def tcost(x):
        return cost_scale * np.asarray(x, dtype=np.float64)[..., 0]

    return SystemModel(1, ((0.0, 2.0),), (0.0, 1.0), horizon, dyn, cost, tcost,
                       dist, c_bar, 0.0)


def line_grid():
    return AugmentedGrid(x_axes=(np.array([0.0, 1.0, 2.0]),),
                         z_axis=np.array([0.0, 0.5, 1.0]),
                         action_axis=np.array([0.0, 1.0]),
                         s_axis=np.array([0.0, 0.5, 1.0]))


class TestTerminalValue:
    MODEL = make_stormwater_model()

    def test_direct_evaluation(self):
        x = np.array([5.0, 6.0])  # terminal cost 2
        assert terminal_value(x, 1.0, 0.5, self.MODEL) == 1.5

    def test_zero_at_or_above_cbar(self):
        x = np.array([4.0, 5.0])
        for s in (2.0, 2.5):
            assert terminal_value(x, 1.9, s, self.MODEL) == 0.0

    def test_running_max_dominates(self):
        x = np.array([3.0, 4.0])  # terminal cost 0
        assert terminal_value(x, 1.2, 0.0, self.MODEL) == 1.2


class TestBackupQ:
    def test_degenerate_disturbance_is_exact_lookup(self):
        model = line_model(atoms=((0.5, 1.0),))
        grid = line_grid()
        rng = np.random.default_rng(0)
        J = rng.random((3, 3))
        x, z, u = np.array([1.0]), 0.0, 1.0
        # x' = 1 + 0.5 + 0.5 = 2 (a node), z' = max(0, 0.25) -> interpolated in z
        got = backup_q(x, z, u, 0.0, J, model, grid)
        expected = interp_xz(grid, J, np.array([2.0]), 0.25)
        assert got == expected

    def test_constant_table(self):
        model = line_model()
        grid = line_grid()
        J = np.full((3, 3), 0.42)
        for u in (0.0, 1.0):
            got = backup_q(np.array([0.5]), 0.1, u, 0.0, J, model, grid)
            assert_allclose(got, 0.42, rtol=1e-15)

    def test_two_atom_hand_computation(self):
        model = line_model()   # atoms 0.1 (p=.3), 0.6 (p=.7); cost(0.5) = 0.125
        grid = line_grid()
        rng = np.random.default_rng(1)
        J = rng.random((3, 3))
        got = backup_q(np.array([0.5]), 0.0, 1.0, 0.0, J, model, grid)
        # by hand: z' = 0.125 -> z bracket (0, fraction 0.25)
        def z_blend(row):
            return 0.75 * J[row, 0] + 0.25 * J[row, 1]
        # atom 0.1: x' = 1.1 -> nodes 1,2 with weights .9/.1
        v1 = 0.9 * z_blend(1) + 0.1 * z_blend(2)
        # atom 0.6: x' = 1.6 -> weights .4/.6
        v2 = 0.4 * z_blend(1) + 0.6 * z_blend(2)
        assert_allclose(got, 0.3 * v1 + 0.7 * v2, rtol=1e-14)

    def test_rejects_cost_outside_range(self):
        model = line_model(cost_scale=2.0)  # cost reaches 4 > c_bar = 1
        grid = line_grid()
        with pytest.raises(ValueError):
            backup_q(np.array([2.0]), 0.0, 0.0, 0.0, np.zeros((3, 3)), model, grid)


class TestBellmanMin:
    def test_single_action(self):
        model = line_model()
        grid = AugmentedGrid(x_axes=(np.array([0.0, 1.0, 2.0]),),
                             z_axis=np.array([0.0, 0.5, 1.0]),
                             action_axis=np.array([0.3]),
                             s_axis=np.array([0.0, 1.0]))
        J = np.ones((3, 3))
        value, action = bellman_min(np.array([1.0]), 0.0, 0.0, J, model, grid)
        assert action == 0.3
        assert value == backup_q(np.array([1.0]), 0.0, 0.3, 0.0, J, model, grid)

    def test_indifferent_actions_pick_lowest(self):
        # dynamics and cost ignore u entirely -> exact tie at every node
        model = line_model(step=0.0)
        grid = line_grid()
        _, ptable = value_iteration(0.0, model, grid)
        assert np.all(ptable.action_idx == 0)

    def test_dominating_action_wins(self):
        # u = 1 strictly lowers the next state, hence the terminal cost
        model = line_model(horizon=1, step=-1.0, cost_scale=0.0,
                           atoms=((0.0, 1.0),))
        model = SystemModel(**{**model.__dict__, "terminal_cost":
                               lambda x: 0.5 * np.asarray(x)[..., 0]})
        grid = line_grid()
        J = np.maximum(np.maximum(0.5 * grid.x_axes[0][:, None],
                                  grid.z_axis[None, :]) - 0.0, 0.0)
        value, action = bellman_min(np.array([1.0]), 0.0, 0.0, J, model, grid)
        assert action == 1.0
        assert value == 0.0


class TestDisturbanceRows:
    @pytest.mark.parametrize("rows", [
        (np.array([0.1, 0.6]), np.array([0.3, 0.6])),
        (np.array([0.1, 0.6]), np.array([1.2, -0.2])),
        (np.array([0.1, 0.6, 0.9]), np.array([0.3, 0.7])),
    ], ids=["sum-below-one", "negative", "shape-mismatch"])
    def test_invalid_rows_rejected(self, rows):
        model = dataclasses.replace(line_model(), disturbance=lambda x, u: rows)
        with pytest.raises(ValueError, match="disturbance"):
            precompute_transitions(model, line_grid())


class TestValueIteration:
    def test_single_step_identity(self):
        # with on-node transitions the recursion reduces to a direct formula
        model = line_model(horizon=1, step=1.0, cost_scale=0.5,
                           atoms=((0.0, 0.25), (1.0, 0.75)), c_bar=1.0)
        grid = line_grid()
        for s in (0.0, 0.3, 1.0):
            vtable, _ = value_iteration(s, model, grid)
            for i, x in enumerate(grid.x_axes[0]):
                best = np.inf
                for u in grid.action_axis:
                    q = 0.0
                    for w, p in zip(*[(0.0, 1.0), (0.25, 0.75)]):
                        xn = min(max(x + u + w, 0.0), 2.0)
                        c = 0.5 * x
                        q += p * max(max(0.5 * xn, c) - s, 0.0)
                    best = min(best, q)
                assert_allclose(vtable.values[0][i, 0], best, atol=1e-12)

    def test_s_at_cbar_is_identically_zero(self):
        model = line_model()
        vtable, _ = value_iteration(1.0, model, line_grid())
        assert np.all(vtable.values == 0.0)

    def test_bounds_and_z_monotonicity(self):
        model = make_stormwater_model(disturbance=smoke_disturbance())
        grid = AugmentedGrid.uniform(model, (7, 7), 5, 3, 3)
        for s in (0.0, 1.0, 2.0):
            vtable, _ = value_iteration(s, model, grid)
            assert vtable.values.min() >= 0.0
            assert vtable.values.max() <= max(model.c_bar - s, 0.0) + 1e-12
            assert np.all(np.diff(vtable.values, axis=2) >= -1e-12)

    def test_s_monotone_and_one_lipschitz(self):
        model = make_stormwater_model(disturbance=smoke_disturbance())
        grid = AugmentedGrid.uniform(model, (7, 7), 5, 3, 5)
        trans = precompute_transitions(model, grid)
        prev = None
        for s in grid.s_axis:
            vtable, _ = value_iteration(float(s), model, grid, trans)
            if prev is not None:
                drop = prev - vtable.values
                assert drop.min() >= -1e-12
                assert drop.max() <= 0.5 + 1e-12  # s spacing
            prev = vtable.values

    @pytest.mark.parametrize("law", [smoke_disturbance(), wet_or_smoke_rows],
                             ids=["smoke", "state-dependent"])
    def test_kernel_matches_pointwise_backup(self, law):
        # the vectorized sweep and the scalar interp path must agree bit-for-bit
        model = make_stormwater_model(disturbance=law)
        grid = AugmentedGrid.uniform(model, (5, 5), 4, 3, 3)
        vtable, ptable = value_iteration(0.5, model, grid)
        nodes = grid.x_nodes()
        J_next = vtable.values[1]
        for flat in range(0, grid.n_xnodes, 3):
            for jz in range(grid.z_axis.size):
                value, action = bellman_min(nodes[flat], float(grid.z_axis[jz]),
                                            0.5, J_next, model, grid)
                assert value == vtable.values[0][flat, jz]
                assert action == grid.action_axis[ptable.action_idx[0, flat, jz]]

    def test_interpolation_consistency_at_nodes(self):
        model = line_model()
        grid = line_grid()
        vtable, _ = value_iteration(0.25, model, grid)
        for t in range(model.horizon + 1):
            for i, x in enumerate(grid.x_axes[0]):
                for jz, z in enumerate(grid.z_axis):
                    got = interp_xz(grid, vtable.values[t],
                                    np.array([x]), float(z))
                    assert got == vtable.values[t][i, jz]


# Weights and probabilities that are often exactly zero (padded atoms,
# corners a transition does not touch).
_weights = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def kernel_inputs(draw):
    """A small random Bellman step; with ``tie`` every action has the same
    costs, probabilities and weights and J_next is constant, so all actions
    tie exactly."""
    n_x, n_z = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_u, n_w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_c = draw(st.sampled_from([1, 2, 4]))
    tie = draw(st.booleans())
    z_axis = np.cumsum(np.concatenate(
        [[0.0], draw(arrays(np.float64, n_z - 1, elements=st.floats(0.1, 1.0)))]))
    # Stage costs on z nodes, between them and above the top node.
    cost_values = st.one_of(st.sampled_from(z_axis.tolist()),
                            st.floats(0.0, float(z_axis[-1]) + 1.0))
    n_uf = 1 if tie else n_u
    cost = draw(arrays(np.float64, (n_x, n_uf), elements=cost_values))
    probs = draw(arrays(np.float64, (n_x, n_uf, n_w), elements=_weights))
    if n_w > 1 and draw(st.booleans()):
        probs[..., -1] = 0.0  # a zero-padded atom
    corner_wt = draw(arrays(np.float64, (n_x, n_uf, n_w, n_c), elements=_weights))
    if tie:
        cost, probs, corner_wt = (np.repeat(a, n_u, axis=1).copy()
                                  for a in (cost, probs, corner_wt))
        J_next = np.full((n_x, n_z), draw(st.floats(0.0, 5.0)))
    else:
        J_next = draw(arrays(np.float64, (n_x, n_z), elements=st.floats(0.0, 5.0)))
    corner_idx = draw(arrays(np.int64, (n_x, n_u, n_w, n_c),
                             elements=st.integers(0, n_x - 1)))
    cz_idx, cz_frac = locate_batch(z_axis, cost)
    return tie, (J_next, z_axis, cost, probs, corner_idx, corner_wt, cz_idx, cz_frac)


class TestSweepKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_inputs())
    def test_matches_scalar_reference_exactly(self, case):
        tie, args = case
        values, action_idx = sweep_kernel(*args)
        ref_values, ref_idx = sweep_loops(*args)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(action_idx, ref_idx)
        assert action_idx.dtype == np.int64
        if tie:
            assert np.all(action_idx == 0)

    def test_matches_scalar_reference_on_stormwater_grid(self):
        model = make_stormwater_model(disturbance=smoke_disturbance())
        grid = AugmentedGrid.uniform(model, (5, 5), 4, 3, 3)
        trans = precompute_transitions(model, grid)
        vtable, _ = value_iteration(0.5, model, grid, trans)
        args = (vtable.values[1], grid.z_axis, trans.cost, trans.probs,
                trans.corner_idx, trans.corner_wt, trans.cz_idx, trans.cz_frac)
        for got, want in zip(sweep_kernel(*args), sweep_loops(*args)):
            assert np.array_equal(got, want)


class TestTableSerialization:
    def test_csv_layout(self, tmp_path):
        model = line_model(horizon=2)
        grid = line_grid()
        vtable, ptable = value_iteration(0.0, model, grid)
        path = tmp_path / "tables.csv"
        write_tables_csv(path, vtable, ptable, grid, config_hash="deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config=deadbeef"
        assert lines[2] == "t,i0,iz,value,action"
        # (N + 1) time layers x 3 states x 3 z nodes
        assert len(lines) == 3 + 3 * 3 * 3
        last = lines[-1].split(",")
        assert last[0] == "2" and last[-1] == ""  # terminal rows carry no action
