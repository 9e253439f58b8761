"""Value-iteration engine tests: terminal stage, backups, argmin, tables."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from cvarsafe import (AugmentedGrid, Pmf, SystemModel, design_params,
                      make_stormwater_model, precompute_transitions,
                      smoke_disturbance, value_iteration)
from cvarsafe.artifacts import write_tables_csv
from cvarsafe.dp import TIE_TOL, merge_entries, sweep_kernel
from cvarsafe.grids import locate_batch
from pointwise import backup_q, bellman_min, interp_xz, unmerged_transitions
from references import sweep_kernel_xmajor


def sweep_loops(J_next, z_axis, cost, probs, corner_idx, corner_wt, cz_idx, cz_frac):
    """Reference Bellman step: one scalar loop per (x, z, u, atom, corner);
    the action is the lowest index whose q is within TIE_TOL of the minimum."""
    n_x, n_z = J_next.shape
    n_u = cost.shape[1]
    n_w = probs.shape[2]
    n_c = corner_idx.shape[3]
    J_out = np.empty((n_x, n_z))
    U_out = np.empty((n_x, n_z), dtype=np.int64)
    for ix in range(n_x):
        for jz in range(n_z):
            qs = []
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
                qs.append(q)
            J_out[ix, jz] = min(qs)
            U_out[ix, jz] = next(iu for iu, q in enumerate(qs)
                                 if q <= J_out[ix, jz] + TIE_TOL)
    return J_out, U_out


def single_action(args, iu):
    """Bellman-step inputs restricted to action ``iu`` (the tables' axis 1)."""
    J_next, z_axis, *tables = args
    return (J_next, z_axis, *(a[:, iu:iu + 1] for a in tables))


def merge(probs, corner_idx, corner_wt):
    """``(corner_idx, corner_wt)`` of (atom, corner) tables merged by next
    node, as ``precompute_transitions`` merges them."""
    n_w, n_c = corner_wt.shape[2:]
    entries = ((corner_idx[:, :, iw, c].T, (probs[:, :, iw] * corner_wt[:, :, iw, c]).T)
               for iw in range(n_w) for c in range(n_c))
    return merge_entries(entries, probs.shape[1::-1])


def merged_args(args):
    """Bellman-step inputs in the references' group form, ``(J_next, z_axis,
    cost, probs, corner_idx, corner_wt, cz_idx, cz_frac)``, as kernel inputs:
    the (atom, corner) tables merged by next node."""
    return (*args[:3], *merge(*args[3:6]), *args[6:])


def one_group(args):
    """Kernel inputs in the references' group form: the slots as one group
    of probability 1 (a product by 1.0 is exact)."""
    J_next, z_axis, cost, corner_idx, corner_wt, cz_idx, cz_frac = args
    return (J_next, z_axis, cost, np.ones(corner_idx.shape[:3]), corner_idx,
            corner_wt, cz_idx, cz_frac)


def kernel_bound(J_next, probs, corner_wt, slots=None):
    """How far, per action, ``sweep_kernel`` may be from ``sweep_loops``.

    Below the stage cost the loop sums, with g = 1 - f computed once,
    ``p_w * wt_c * (g * J_a + f * J_b)`` over atoms w and corners c, while
    the kernel computes ``g * Q_a + f * Q_b`` with ``Q = sum p_w * wt_c * J``.
    Each term reaches either result through at most n_w + n_c + 2 roundings,
    each a factor (1 + d) with |d| <= u = eps / 2, so both lie within
    gamma(n_w + n_c + 2) * S * M * (g + f) of the same exact sum, where
    gamma(k) = k u / (1 - k u), M = max|J_next| and S is the largest
    ``sum_w p_w sum_c wt_c`` over (x, u) (1 for real transition tables).
    Since g + f <= 1 + u, that is at most gamma(n_w + n_c + 3) * S * M. A
    product that underflows errs by up to 2**-1074 instead, and neither path
    has more than n_w (3 n_c + 2) + 2 products, each scaled afterwards only
    by factors in [0, 1]. The bound is twice the sum: one per path.

    With ``slots``, the kernel runs on these (atom, corner) tables merged
    into that many slots per row (``merge``). A term then rounds once in
    ``p_w * wt_c``, at most n_w n_c - 1 times in its slot's sum, once in
    the slot's product with J, at most slots - 1 times in the sum over
    slots and twice below the stage cost: gamma(n_w n_c + slots + 3) with
    the (g + f) factor. Its products are n_w n_c weights, whose underflow
    is scaled by J afterwards, and slots + 2 others. The bound is the
    kernel path's sum plus the loop path's.
    """
    n_w, n_c = corner_wt.shape[2:]
    u = np.finfo(np.float64).eps / 2

    def gamma(k):
        return k * u / (1.0 - k * u)

    mass = (probs[..., None] * corner_wt).sum(axis=(2, 3)).max()
    top = np.abs(J_next).max()
    loop = (gamma(n_w + n_c + 3) * mass * top
            + (n_w * (3 * n_c + 2) + 2) * 2.0 ** -1074)
    if slots is None:
        return 2.0 * loop
    return loop + (gamma(n_w * n_c + slots + 3) * mass * top
                   + (n_w * n_c * max(top, 1.0) + slots + 2) * 2.0 ** -1074)


def assert_matches_reference(args, values, action_idx, exact=False):
    """``sweep_kernel``'s result for ``args`` against ``sweep_loops`` on the
    same slots as one group.

    Per action, the kernel's q (from single-action slices) equals the
    loop's bit for bit where z >= c(x, u) and lies within ``kernel_bound``
    elsewhere. Where z >= c(x, u) for every u, values and argmins are
    bit-identical. Elsewhere the minima differ by at most the bound, and the
    kernel's action is the loop's or has a loop q within TIE_TOL plus twice
    the bound of the loop's minimum (the kernel's q at its action is within
    TIE_TOL of its minimum, and each side's minimum is within the bound of
    the other's q at its argmin). With ``exact`` (dyadic inputs, where every
    summation order is exact) everything is bit-identical.
    """
    J_next, z_axis, cost, probs, _, corner_wt = one_group(args)[:6]
    bound = kernel_bound(J_next, probs, corner_wt)
    ref_values, ref_idx = sweep_loops(*one_group(args))
    one = [single_action(args, iu) for iu in range(cost.shape[1])]
    ref_q = np.stack([sweep_loops(*one_group(a))[0] for a in one], axis=2)
    got_q = np.stack([sweep_kernel(*a)[0] for a in one], axis=2)
    at_node = z_axis[None, :, None] >= cost[:, None, :]  # (n_x, n_z, n_u)
    assert np.array_equal(got_q[at_node], ref_q[at_node])
    assert np.all(np.abs(got_q - ref_q) <= bound)
    every = at_node.all(axis=2)
    assert np.array_equal(values[every], ref_values[every])
    assert np.array_equal(action_idx[every], ref_idx[every])
    assert np.all(np.abs(values - ref_values) <= bound)
    assert_near_argmin(ref_q, ref_values, ref_idx, action_idx, bound)
    if exact:
        assert np.array_equal(values, ref_values)
        assert np.array_equal(action_idx, ref_idx)


def assert_near_argmin(ref_q, ref_values, ref_idx, action_idx, bound):
    """Each action is the reference's or has a reference q (n_x, n_z, n_u)
    within TIE_TOL plus twice ``bound`` of the reference minimum."""
    chosen = np.take_along_axis(ref_q, action_idx[..., None], axis=2)[..., 0]
    assert np.all((action_idx == ref_idx)
                  | (chosen <= ref_values + TIE_TOL + 2.0 * bound))


def assert_merged_matches_reference(args, exact=False):
    """``sweep_kernel`` on the merged ``args`` against ``sweep_loops`` on
    ``args`` themselves: values within ``kernel_bound`` for the merged slot
    count, actions as in ``assert_matches_reference``, and with ``exact``
    everything bit-identical."""
    merged = merged_args(args)
    values, action_idx = sweep_kernel(*merged)
    J_next, _, cost, probs, _, corner_wt = args[:6]
    bound = kernel_bound(J_next, probs, corner_wt, merged[3].shape[3])
    ref_values, ref_idx = sweep_loops(*args)
    assert np.all(np.abs(values - ref_values) <= bound)
    one = [single_action(args, iu) for iu in range(cost.shape[1])]
    ref_q = np.stack([sweep_loops(*a)[0] for a in one], axis=2)
    assert_near_argmin(ref_q, ref_values, ref_idx, action_idx, bound)
    if exact:
        assert np.array_equal(values, ref_values)
        assert np.array_equal(action_idx, ref_idx)
    return action_idx


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
                       dist, c_bar)


def line_grid():
    return AugmentedGrid(x_axes=(np.array([0.0, 1.0, 2.0]),),
                         z_axis=np.array([0.0, 0.5, 1.0]),
                         action_axis=np.array([0.0, 1.0]),
                         s_axis=np.array([0.0, 0.5, 1.0]))


LAWS = [None, smoke_disturbance(), wet_or_smoke_rows]
LAW_IDS = ["default", "smoke", "state-dependent"]


class TestTerminalValue:
    """The horizon layer max(max(c_N(x), z) - s, 0) of value_iteration."""

    MODEL = make_stormwater_model()
    GRID = AugmentedGrid(x_axes=(np.array([3.0, 4.0, 5.0]),
                                 np.array([4.0, 5.0, 6.0])),
                         z_axis=np.array([0.0, 1.0, 1.2, 1.9, 2.0]),
                         action_axis=np.array([0.0, 1.0]),
                         s_axis=np.array([0.0, 2.0]))

    def terminal_value(self, x, z, s):
        values = value_iteration(s, self.MODEL, self.GRID)[0]
        node = self.GRID.nearest_x_index(np.array(x))
        assert np.array_equal(self.GRID.x_nodes()[node], x)
        (jz,) = np.flatnonzero(self.GRID.z_axis == z)
        return values[self.MODEL.horizon][node, jz]

    def test_direct_evaluation(self):
        x = [5.0, 6.0]  # terminal cost 2
        assert self.terminal_value(x, 1.0, 0.5) == 1.5

    def test_zero_at_or_above_cbar(self):
        x = [4.0, 5.0]
        for s in (2.0, 2.5):
            assert self.terminal_value(x, 1.9, s) == 0.0

    def test_running_max_dominates(self):
        x = [3.0, 4.0]  # terminal cost 0
        assert self.terminal_value(x, 1.2, 0.0) == 1.2


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
        _, action_idx = value_iteration(0.0, model, grid)
        assert np.all(action_idx == 0)

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
        (np.array([0.1, 0.6]), np.array([np.nan, 1.0])),
    ], ids=["sum-below-one", "negative", "shape-mismatch", "nan"])
    def test_invalid_rows_rejected(self, rows):
        model = dataclasses.replace(line_model(), disturbance=lambda x, u: rows)
        with pytest.raises(ValueError, match="disturbance"):
            precompute_transitions(model, line_grid())


def nan_above(fn, limit):
    """``fn`` with every output above ``limit`` replaced by NaN."""
    def wrapped(*args):
        out = np.asarray(fn(*args))
        return np.where(out > limit, np.nan, out)
    return wrapped


class TestTransitionRangeChecks:
    # Each range is a condition that must hold, so a NaN fails it.
    @pytest.mark.parametrize("field, limit, error, match", [
        ("dynamics", 1.5, RuntimeError, "transition left the grid"),
        ("stage_cost", 0.4, ValueError, "stage costs must lie"),
        ("terminal_cost", 0.4, ValueError, "terminal costs must lie"),
    ])
    def test_nan_is_out_of_range(self, field, limit, error, match):
        model = line_model()
        model = dataclasses.replace(
            model, **{field: nan_above(getattr(model, field), limit)})
        with pytest.raises(error, match=match):
            precompute_transitions(model, line_grid())

    @pytest.mark.parametrize("bad", [9.0, np.nan])
    def test_last_atom_leaving_the_box(self, bad):
        # Atoms are checked one at a time: a next state that leaves the box
        # along dimension 1, or is NaN there, only for the last atom still
        # raises, naming the dimension.
        law = smoke_disturbance()
        model = make_stormwater_model(disturbance=law)

        def dyn(x, u, w):
            nxt = model.dynamics(x, u, w)
            nxt[..., 1] = np.where(np.asarray(w) == law.values[-1], bad, nxt[..., 1])
            return nxt

        grid = AugmentedGrid.uniform(model, (4, 4), 3, 3, 3)
        with pytest.raises(RuntimeError, match="along dimension 1"):
            precompute_transitions(dataclasses.replace(model, dynamics=dyn), grid)


class TestValueIteration:
    def test_single_step_identity(self):
        # with on-node transitions the recursion reduces to a direct formula
        model = line_model(horizon=1, step=1.0, cost_scale=0.5,
                           atoms=((0.0, 0.25), (1.0, 0.75)), c_bar=1.0)
        grid = line_grid()
        for s in (0.0, 0.3, 1.0):
            values, _ = value_iteration(s, model, grid)
            for i, x in enumerate(grid.x_axes[0]):
                best = np.inf
                for u in grid.action_axis:
                    q = 0.0
                    for w, p in zip(*[(0.0, 1.0), (0.25, 0.75)]):
                        xn = min(max(x + u + w, 0.0), 2.0)
                        c = 0.5 * x
                        q += p * max(max(0.5 * xn, c) - s, 0.0)
                    best = min(best, q)
                assert_allclose(values[0][i, 0], best, atol=1e-12)

    def test_s_at_cbar_is_identically_zero(self):
        model = line_model()
        values, _ = value_iteration(1.0, model, line_grid())
        assert np.all(values == 0.0)

    def test_bounds_and_z_monotonicity(self):
        model = make_stormwater_model(disturbance=smoke_disturbance())
        grid = AugmentedGrid.uniform(model, (7, 7), 5, 3, 3)
        for s in (0.0, 1.0, 2.0):
            values, _ = value_iteration(s, model, grid)
            assert values.min() >= 0.0
            assert values.max() <= max(model.c_bar - s, 0.0) + 1e-12
            assert np.all(np.diff(values, axis=2) >= -1e-12)

    def test_s_monotone_and_one_lipschitz(self):
        model = make_stormwater_model(disturbance=smoke_disturbance())
        grid = AugmentedGrid.uniform(model, (7, 7), 5, 3, 5)
        trans = precompute_transitions(model, grid)
        prev = None
        for s in grid.s_axis:
            values, _ = value_iteration(float(s), model, grid, trans)
            if prev is not None:
                drop = prev - values
                assert drop.min() >= -1e-12
                assert drop.max() <= 0.5 + 1e-12  # s spacing
            prev = values

    @pytest.mark.parametrize("law", [smoke_disturbance(), wet_or_smoke_rows],
                             ids=["smoke", "state-dependent"])
    def test_kernel_matches_pointwise_backup(self, law):
        # The merged sweep against the scalar interp path over every (atom,
        # corner): values within kernel_bound for the merged slot count; the
        # same action where z >= c(x, u) for every u, else a near-argmin
        # (see assert_matches_reference).
        model = make_stormwater_model(disturbance=law)
        grid = AugmentedGrid.uniform(model, (5, 5), 4, 3, 3)
        trans = precompute_transitions(model, grid)
        values, action_idx = value_iteration(0.5, model, grid, trans)
        nodes = grid.x_nodes()
        J_next = values[1]
        probs, _, corner_wt = unmerged_transitions(model, grid)
        bound = kernel_bound(J_next, probs, corner_wt, trans.corner_idx.shape[3])
        below = 0
        for flat in range(0, grid.n_xnodes, 3):
            for jz in range(grid.z_axis.size):
                z = float(grid.z_axis[jz])
                value, action = bellman_min(nodes[flat], z, 0.5, J_next, model, grid)
                got = values[0][flat, jz]
                got_action = grid.action_axis[action_idx[0, flat, jz]]
                assert abs(got - value) <= bound
                if z >= trans.cost[flat].max():
                    assert got_action == action
                    continue
                below += 1
                chosen = backup_q(nodes[flat], z, float(got_action), 0.5,
                                  J_next, model, grid)
                assert (got_action == action
                        or chosen <= value + TIE_TOL + 2.0 * bound)
        assert below > 0

    def test_interpolation_consistency_at_nodes(self):
        model = line_model()
        grid = line_grid()
        values, _ = value_iteration(0.25, model, grid)
        for t in range(model.horizon + 1):
            for i, x in enumerate(grid.x_axes[0]):
                for jz, z in enumerate(grid.z_axis):
                    got = interp_xz(grid, values[t],
                                    np.array([x]), float(z))
                    assert got == values[t][i, jz]


# Weights and probabilities that are often exactly zero (padded atoms,
# corners a transition does not touch).
_weights = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def kernel_inputs(draw):
    """A small random Bellman step; with ``tie`` every action has the same
    costs, probabilities and weights and J_next is constant, so all actions
    tie exactly. With ``dyadic`` the z steps are powers of two and the
    costs, probabilities, weights and J_next small multiples of 1/16, 1/16,
    1/16 and 1/8, so every product and sum either path forms is exact."""
    n_x, n_z = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_u, n_w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_c = draw(st.sampled_from([1, 2, 4]))
    tie, dyadic = draw(st.booleans()), draw(st.booleans())
    if dyadic:
        steps = st.sampled_from([0.25, 0.5, 1.0])
        weights = st.integers(0, 16).map(lambda k: k / 16)
        j_values = st.integers(0, 40).map(lambda k: k / 8)
    else:
        steps = st.floats(0.1, 1.0)
        weights = _weights
        j_values = st.floats(0.0, 5.0)
    z_axis = np.cumsum(np.concatenate(
        [[0.0], draw(arrays(np.float64, n_z - 1, elements=steps))]))
    # Stage costs on z nodes, between them and above the top node.
    top = float(z_axis[-1]) + 1.0
    between = (st.integers(0, int(16 * top)).map(lambda k: k / 16) if dyadic
               else st.floats(0.0, top))
    cost_values = st.one_of(st.sampled_from(z_axis.tolist()), between)
    n_uf = 1 if tie else n_u
    cost = draw(arrays(np.float64, (n_x, n_uf), elements=cost_values))
    probs = draw(arrays(np.float64, (n_x, n_uf, n_w), elements=weights))
    if n_w > 1 and draw(st.booleans()):
        probs[..., -1] = 0.0  # a zero-padded atom
    corner_wt = draw(arrays(np.float64, (n_x, n_uf, n_w, n_c), elements=weights))
    if tie:
        cost, probs, corner_wt = (np.repeat(a, n_u, axis=1).copy()
                                  for a in (cost, probs, corner_wt))
        J_next = np.full((n_x, n_z), draw(j_values))
    else:
        J_next = draw(arrays(np.float64, (n_x, n_z), elements=j_values))
    corner_idx = draw(arrays(np.int64, (n_x, n_u, n_w, n_c),
                             elements=st.integers(0, n_x - 1)))
    cz_idx, cz_frac = locate_batch(z_axis, cost)
    return tie, dyadic, (J_next, z_axis, cost, probs, corner_idx, corner_wt,
                         cz_idx, cz_frac)


class TestSweepKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_inputs())
    def test_matches_scalar_reference_exactly(self, case):
        # The kernel on the merged tables against the loops on the same
        # slots: exact at or above the stage cost, on dyadic inputs and on
        # ties; within kernel_bound elsewhere (see assert_matches_reference).
        tie, dyadic, args = case
        args = merged_args(args)
        values, action_idx = sweep_kernel(*args)
        assert action_idx.dtype == np.int64
        assert_matches_reference(args, values, action_idx, exact=dyadic)
        if tie:
            assert np.all(action_idx == 0)

    @settings(max_examples=300, deadline=None)
    @given(kernel_inputs())
    def test_merged_operator_matches_scalar_reference(self, case):
        # The kernel on the merged tables against the loops on the (atom,
        # corner) tables they merge: exact on dyadic inputs and on ties,
        # within kernel_bound elsewhere.
        tie, dyadic, args = case
        action_idx = assert_merged_matches_reference(args, exact=dyadic)
        if tie:
            assert np.all(action_idx == 0)

    @pytest.mark.parametrize("gap, lowest_wins", [(1e-14, True), (1e-10, False)])
    def test_tie_rule(self, gap, lowest_wins):
        # Two actions whose backups differ by less than TIE_TOL tie and the
        # lower index wins; a larger gap goes to the smaller backup.
        # Action 0 moves to node 0, action 1 to node 1, from either node.
        J_next = np.array([[1.0], [1.0 - gap]])
        cost = np.zeros((2, 2))
        corner_idx = np.array([[0, 1], [0, 1]]).reshape(2, 2, 1, 1)
        args = (J_next, np.zeros(1), cost, corner_idx, np.ones((2, 2, 1, 1)),
                np.zeros((2, 2), np.int64), cost)
        values, action_idx = sweep_kernel(*args)
        assert np.all(values == 1.0 - gap)
        assert np.all(action_idx == (0 if lowest_wins else 1))
        assert np.array_equal(sweep_loops(*one_group(args))[1], action_idx)

    def test_matches_scalar_reference_on_stormwater_grid(self):
        model = make_stormwater_model(disturbance=smoke_disturbance())
        grid = AugmentedGrid.uniform(model, (5, 5), 4, 3, 3)
        trans = precompute_transitions(model, grid)
        values, _ = value_iteration(0.5, model, grid, trans)
        args = (values[1], grid.z_axis, trans.cost, trans.corner_idx,
                trans.corner_wt, trans.cz_idx, trans.cz_frac)
        assert_matches_reference(args, *sweep_kernel(*args))

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_merged_operator_layout(self, law):
        # k slots behind an axis of length 1, each (x, u) table stored u-major: the
        # transpose of every (x, u) slice is C-contiguous. Per row,
        # nonnegative weights summing to 1 within rounding on distinct
        # nodes, and no more slots than (atom, corner) entries. The laws'
        # probabilities sum to 1 in floating point, each corner's (1 - f) + f
        # is 1 within u per dimension, and each product and sum rounds once.
        model = make_stormwater_model(disturbance=law)
        grid = AugmentedGrid.uniform(model, (5, 4), 3, 3, 3)
        trans = precompute_transitions(model, grid)
        n_w = unmerged_transitions(model, grid)[0].shape[2]
        k = trans.corner_idx.shape[3]
        assert k <= n_w * 4
        assert trans.corner_idx.shape == trans.corner_wt.shape == (20, 3, 1, k)
        assert trans.cost.shape == trans.cz_idx.shape == trans.cz_frac.shape == (20, 3)
        for j in range(k):
            assert trans.corner_idx[:, :, 0, j].T.flags.c_contiguous
            assert trans.corner_wt[:, :, 0, j].T.flags.c_contiguous
        for table in (trans.cost, trans.cz_idx, trans.cz_frac):
            assert table.T.flags.c_contiguous
        wt = trans.corner_wt[:, :, 0]
        assert wt.min() >= 0.0
        eps = np.finfo(np.float64).eps
        assert np.abs(wt.sum(axis=2) - 1.0).max() <= (n_w * 4 + k + 2) * eps
        for nodes, weights in zip(trans.corner_idx[:, :, 0].reshape(-1, k),
                                  wt.reshape(-1, k)):
            live = nodes[weights > 0.0]
            assert np.unique(live).size == live.size
            assert np.all(nodes[weights == 0.0] == nodes[0])

    def test_precompute_peak_within_its_tables(self):
        # The atoms are evaluated and merged one at a time, so building the
        # operator on the coarse baseline grid (default law) peaks below 2.5
        # times the bytes of the tables it returns.
        model = make_stormwater_model()
        grid = AugmentedGrid.uniform(model, (25, 25), 11, 11, 21)
        tracemalloc.start()
        try:
            trans = precompute_transitions(model, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = sum(getattr(trans, f.name).nbytes
                     for f in dataclasses.fields(trans))
        assert peak < 2.5 * tables

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_merge_of_unmerged_tables(self, law):
        # precompute_transitions merges exactly the entries that the
        # pointwise builder finds, in the same order.
        model = make_stormwater_model(disturbance=law)
        grid = AugmentedGrid.uniform(model, (6, 5), 4, 3, 3)
        trans = precompute_transitions(model, grid)
        corner_idx, corner_wt = merge(*unmerged_transitions(model, grid))
        assert np.array_equal(corner_idx, trans.corner_idx)
        assert np.array_equal(corner_wt, trans.corner_wt)

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_merged_and_unmerged_solves_agree(self, law):
        # On the coarse baseline grid, the merged operator against the
        # unmerged (atom, corner) tables run through the x-major reference
        # (one group per atom): every step within kernel_bound of the
        # unmerged step from the same J_{t+1} (the reference rounds and
        # multiplies no more often than sweep_loops), and both recursions
        # choose the same action everywhere.
        model = make_stormwater_model(disturbance=law)
        grid = AugmentedGrid.uniform(model, (25, 25), 11, 11, 21)
        trans = precompute_transitions(model, grid)
        values, action_idx = value_iteration(0.5, model, grid, trans)
        probs, corner_idx, corner_wt = unmerged_transitions(model, grid)
        tables = (trans.cost, probs, corner_idx, corner_wt, trans.cz_idx,
                  trans.cz_frac)
        J = values[-1]
        k = trans.corner_idx.shape[3]
        for t in range(model.horizon - 1, -1, -1):
            step, _ = sweep_kernel_xmajor(values[t + 1], grid.z_axis, *tables)
            bound = kernel_bound(values[t + 1], probs, corner_wt, k)
            assert np.abs(values[t] - step).max() <= bound
            J, U = sweep_kernel_xmajor(J, grid.z_axis, *tables)
            assert np.array_equal(U, action_idx[t])

    @pytest.mark.parametrize("groups", [1, 2])
    def test_zero_slot_rows(self, groups):
        # Entries that all have weight 0, in one group or two, merge into
        # no slot (k = 0): every backup is 0 and action 0 wins, as in the
        # reference's groups of no slot. A first step of the same shapes
        # with unit weights leaves freed work arrays of nonzero values behind.
        J_next = np.array([[1.5, 2.5]])
        z_axis = np.array([0.0, 1.0])
        cost = np.array([[0.0, 0.5]])
        cz_idx, cz_frac = locate_batch(z_axis, cost)
        probs = np.full((1, 2, groups), 1.0 / groups)
        corner_idx = np.zeros((1, 2, groups, 1), np.int64)
        for weight in (1.0, 0.0):
            corner_wt = np.full((1, 2, groups, 1), weight)
            merged = merge(probs, corner_idx, corner_wt)
            values, action_idx = sweep_kernel(J_next, z_axis, cost, *merged,
                                              cz_idx, cz_frac)
        assert merged[0].shape == (1, 2, 1, 0)
        unmerged = sweep_kernel_xmajor(J_next, z_axis, cost, probs, corner_idx[..., :0],
                                       corner_wt[..., :0], cz_idx, cz_frac)
        for got_values, got_idx in ((values, action_idx), unmerged):
            assert np.array_equal(got_values, np.zeros((1, 2)))
            assert np.array_equal(got_idx, np.zeros((1, 2), np.int64))

    @pytest.mark.parametrize("design, law", [("a", None), ("a", smoke_disturbance()),
                                             ("b", None), ("b", smoke_disturbance())],
                             ids=["a-default", "a-smoke", "b-default", "b-smoke"])
    def test_bit_identical_to_xmajor_kernel(self, design, law):
        # Every step of a solve on the coarse baseline grid, from the same
        # J_{t+1}: the z-major kernel and the x-major reference agree bit for
        # bit in values and actions, on the merged tables as built and on
        # the unmerged (atom, corner) entries as slots of weight p_w * wt_c.
        model = make_stormwater_model(design_params(design), disturbance=law)
        grid = AugmentedGrid.uniform(model, (25, 25), 11, 11, 21)
        trans = precompute_transitions(model, grid)
        values, action_idx = value_iteration(0.5, model, grid, trans)
        merged = (trans.cost, trans.corner_idx, trans.corner_wt,
                  trans.cz_idx, trans.cz_frac)
        operators = [merged]
        if law is None:
            probs, corner_idx, corner_wt = unmerged_transitions(model, grid)
            slots = (grid.n_xnodes, grid.action_axis.size, 1, -1)
            operators.append((trans.cost, corner_idx.reshape(slots),
                              (probs[..., None] * corner_wt).reshape(slots),
                              trans.cz_idx, trans.cz_frac))
        for tables in operators:
            for t in range(model.horizon):
                args = (values[t + 1], grid.z_axis, *tables)
                got = sweep_kernel(*args)
                ref = sweep_kernel_xmajor(*one_group(args))
                assert np.array_equal(got[0].view(np.int64), ref[0].view(np.int64))
                assert np.array_equal(got[1], ref[1])
                assert got[0].flags.c_contiguous and got[1].flags.c_contiguous
                if tables is merged:
                    assert np.array_equal(got[0].view(np.int64),
                                          values[t].view(np.int64))
                    assert np.array_equal(got[1], action_idx[t])

    def test_layout_changes_no_answer(self):
        # The tables as built and C-ordered copies of them give bit-identical
        # values and argmins: the layout may change the speed, never answers.
        model = make_stormwater_model()
        grid = AugmentedGrid.uniform(model, (6, 5), 4, 3, 3)
        trans = precompute_transitions(model, grid)
        values, _ = value_iteration(0.5, model, grid, trans)
        tables = (trans.cost, trans.corner_idx, trans.corner_wt,
                  trans.cz_idx, trans.cz_frac)
        for J_next in values[:3]:
            built = sweep_kernel(J_next, grid.z_axis, *tables)
            copied = sweep_kernel(J_next, grid.z_axis,
                                  *map(np.ascontiguousarray, tables))
            assert np.array_equal(built[0], copied[0])
            assert np.array_equal(built[1], copied[1])


class TestTableSerialization:
    def test_csv_layout(self, tmp_path):
        model = line_model(horizon=2)
        grid = line_grid()
        path = tmp_path / "tables.csv"
        write_tables_csv(path, 0.0, *value_iteration(0.0, model, grid), grid,
                         config_hash="deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config=deadbeef"
        assert lines[2] == "t,i0,iz,value,action"
        # (N + 1) time layers x 3 states x 3 z nodes
        assert len(lines) == 3 + 3 * 3 * 3
        last = lines[-1].split(",")
        assert last[0] == "2" and last[-1] == ""  # terminal rows carry no action
