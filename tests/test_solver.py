"""Dual sweep, outer minimization, and safe-set extraction tests."""

import threading
from concurrent.futures import Future

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvarsafe import (AugmentedGrid, exact_optimal_cvar,
                      extract_safe_set, generate_corpus, make_stormwater_model,
                      risk_value, smoke_disturbance, solver, sweep)
from cvarsafe.oracle import _excess_dp


def coarse_sweep(threads=1):
    model = make_stormwater_model(disturbance=smoke_disturbance())
    grid = AugmentedGrid.uniform(model, (9, 9), 5, 5, 5)
    return model, grid, sweep(model, grid, threads=threads)


class TestSweep:
    def test_shape_and_boundaries(self):
        model, grid, v0 = coarse_sweep()
        assert v0.shape == (5, 81)
        assert np.all(v0[-1] == 0.0)           # s = c_bar row
        assert np.all(np.diff(v0, axis=0) <= 1e-12)  # nonincreasing rows
        dv = np.abs(np.diff(v0, axis=0))
        assert dv.max() <= np.diff(grid.s_axis).max() + 1e-12

    def test_thread_count_does_not_change_results(self):
        _, _, v0_1 = coarse_sweep(threads=1)
        _, _, v0_4 = coarse_sweep(threads=4)
        assert np.array_equal(v0_1, v0_4)

    def test_tiny_instance_sweep_at_zero_matches_expectation_dp(self):
        # V^0 minimizes E[max(Y - 0, 0)] = E[Y]: compare to the oracle's
        # independent dict-based expectation DP
        inst = generate_corpus(seed=5, count=3)[2]
        model, grid = inst.to_model_and_grid()
        v0 = sweep(model, grid)
        assert grid.s_axis[0] == 0.0
        assert_allclose(v0[0][inst.x0], _excess_dp(inst, 0.0), atol=1e-12)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_writes_nothing_to_stderr(self, capfd, threads):
        coarse_sweep(threads=threads)
        model = make_stormwater_model(disturbance=smoke_disturbance())
        solved = []
        sweep(model, AugmentedGrid.uniform(model, (5, 5), 3, 3, 3),
              threads=threads, on_solve=lambda s, *tables: solved.append(s))
        assert sorted(solved) == [0.0, 1.0, 2.0]
        assert capfd.readouterr() == ("", "")

    def test_calling_thread_solves_beside_one_helper(self):
        # threads=2: the calling thread and one helper each solve. Each
        # thread's first solve waits at a barrier for the other's, which
        # only a second solving thread can meet.
        model = make_stormwater_model(disturbance=smoke_disturbance())
        grid = AugmentedGrid.uniform(model, (5, 5), 3, 3, 5)
        meet = threading.Barrier(2, timeout=30)
        solved = {}

        def on_solve(s, *tables):
            first = threading.get_ident() not in solved
            solved.setdefault(threading.get_ident(), []).append(float(s))
            if first:
                meet.wait()

        sweep(model, grid, threads=2, on_solve=on_solve)
        assert threading.get_ident() in solved and len(solved) == 2
        assert sorted(sum(solved.values(), [])) == grid.s_axis.tolist()

    def test_helpers_bounded_by_the_s_values(self, monkeypatch):
        # threads=1000 on 3 s values asks for at most 2 helpers. The fake pool
        # runs each submitted call inline, so no thread is started.
        pools, submits = [], []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn):
                submits.append(fn)
                done = Future()
                done.set_result(fn())
                return done

        model = make_stormwater_model(disturbance=smoke_disturbance())
        grid = AugmentedGrid.uniform(model, (5, 5), 3, 3, 3)
        expected = sweep(model, grid)
        monkeypatch.setattr(solver, "ThreadPoolExecutor", InlinePool)
        assert np.array_equal(sweep(model, grid, threads=1000), expected)
        assert pools == [2] and len(submits) == 2

    @staticmethod
    def two_node_grid(z_axis):
        return AugmentedGrid(x_axes=(np.array([0.0, 5.0]), np.array([0.0, 6.0])),
                             z_axis=np.array(z_axis),
                             action_axis=np.array([0.0, 1.0]),
                             s_axis=np.array([0.0, 2.0]))

    # The z axis must hold the running maximum from 0 up to c_bar = 2: one
    # that stops short clamps every larger maximum to its last node.
    @pytest.mark.parametrize("z_axis, ends", [
        ([0.5, 2.0], "0.5 to 2.0"), ([0.0, 1.0], "0.0 to 1.0")],
        ids=["starts-above-0", "stops-below-c_bar"])
    def test_rejects_grid_without_zero_z(self, z_axis, ends):
        model = make_stormwater_model(disturbance=smoke_disturbance())
        with pytest.raises(ValueError, match="from 0 to at least c_bar=2.0, "
                                             f"got {ends}$"):
            sweep(model, self.two_node_grid(z_axis))

    def test_accepts_z_axis_past_c_bar(self):
        model = make_stormwater_model(disturbance=smoke_disturbance())
        v0 = sweep(model, self.two_node_grid([0.0, 1.0, 2.0, 2.5]))
        assert np.all(v0[-1] == 0.0)  # s = c_bar row


class TestRiskValue:
    def test_all_safe_region_minimizes_at_zero(self):
        w_star, s_star = risk_value(np.array([0.0, 1.0, 2.0]), np.zeros((3, 4)), 0.5)
        assert np.all(w_star == 0.0)
        assert np.all(s_star == 0.0)

    def test_matches_oracle_on_tiny_instance(self):
        inst = generate_corpus(seed=9, count=1)[0]
        model, grid = inst.to_model_and_grid()
        v0 = sweep(model, grid)
        for alpha in (0.05, 0.5, 1.0):
            w_star, _ = risk_value(grid.s_axis, v0, alpha)
            expected = exact_optimal_cvar(inst, alpha).value
            assert abs(float(w_star[inst.x0]) - expected) <= 1e-9

    def test_invalid_alpha(self):
        for alpha in (0.0, -1.0, 1.01):
            with pytest.raises(ValueError):
                risk_value(np.array([0.0, 1.0]), np.zeros((2, 2)), alpha)

    def test_smallest_minimizer_reported(self):
        # flat objective: every s ties, the smallest must be reported
        w_star, s_star = risk_value(np.array([0.0, 1.0, 2.0]),
                                    np.array([[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]]), 1.0)
        assert np.all(s_star == 0.0)
        assert np.all(w_star == 2.0)


class TestSafeSets:
    def test_threshold_extremes(self):
        _, grid, v0 = coarse_sweep()
        w_star, _ = risk_value(grid.s_axis, v0, 0.5)
        everything = extract_safe_set(w_star, 2.0)   # r = c_bar
        assert everything.sum() == grid.n_xnodes
        nothing = extract_safe_set(w_star, float(w_star.min()) - 1e-9)
        assert nothing.sum() == 0

    def test_alpha_and_r_nesting(self):
        _, grid, v0 = coarse_sweep()
        alphas = (0.99, 0.05, 0.005)
        rs = (0.2, 1.0, 1.8)
        masks = {(a, r): extract_safe_set(risk_value(grid.s_axis, v0, a)[0], r)
                 for a in alphas for r in rs}
        for r in rs:
            for hi, lo in zip(alphas, alphas[1:]):  # smaller alpha: subset
                assert np.all(masks[(lo, r)] <= masks[(hi, r)])
        for a in alphas:
            for lo, hi in zip(rs, rs[1:]):
                assert np.all(masks[(a, lo)] <= masks[(a, hi)])

    def test_intermediate_threshold_is_proper_subset(self):
        _, grid, v0 = coarse_sweep()
        mask = extract_safe_set(risk_value(grid.s_axis, v0, 0.99)[0], 1.0)
        assert 0 < mask.sum() < grid.n_xnodes
