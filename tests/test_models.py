"""Physics and parameter tests for the stormwater designs."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvarsafe import (default_disturbance, design_params, g_k,
                      make_stormwater_model, q_cso, q_pump, q_storm, q_valve,
                      smoke_disturbance, transition)
from cvarsafe.models import PumpParams, StormwaterParams
from references import q_pump_piecewise

BASE = design_params("a")
PUMP = design_params("b")
# Maximum outlet rates: each outlet's flow with the tank at its lid.
STORM_MAX = q_storm(BASE.kbar2, BASE)
CSO_MAX = {1: q_cso(BASE.kbar1, 1, BASE), 2: q_cso(BASE.kbar2, 2, BASE)}


class TestParams:
    def test_design_factory(self):
        assert design_params("d").a2 == 12000.0
        assert PUMP.pump == PumpParams(10.0, 1.0 / 12.0, 1.0)
        assert design_params("c").a2 == 10000.0

    def test_pump_only_on_design_b(self):
        with pytest.raises(ValueError):
            StormwaterParams(design="a", pump=PumpParams())
        with pytest.raises(ValueError):
            StormwaterParams(design="b", pump=None)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            design_params("a", kbar1=3.0)  # not above the invert
        with pytest.raises(ValueError):
            design_params("a", a1=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [
        "a1", "a2", "c_d", "g_tilde", "k1", "k2", "kbar1", "kbar2", "r_s",
        "r_v", "dt", "z1", "z1_in", "z2", "r_cso1", "r_cso2"])
    def test_nonfinite_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            design_params("a", **{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["q_max", "eps", "z_elev"])
    def test_nonfinite_pump_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            PumpParams(**{name: value})


class TestCostFunction:
    def test_at_the_inverts(self):
        assert g_k(np.array([3.0, 4.0]), BASE) == 0.0

    def test_at_the_lids(self):
        assert g_k(np.array([5.0, 6.0]), BASE) == 2.0

    def test_one_tank_above(self):
        assert g_k(np.array([4.0, 3.0]), BASE) == 1.0
        assert g_k(np.array([3.5, 4.0]), BASE) == 0.5

    def test_model_costs_match_and_ignore_u(self):
        model = make_stormwater_model(BASE)
        x = np.array([4.2, 3.1])
        for u in (0.0, 0.5, 1.0):
            assert model.stage_cost(x, u) == g_k(x, BASE)
        assert model.terminal_cost(x) == g_k(x, BASE)

    def test_range_on_dense_sample(self):
        rng = np.random.default_rng(7)
        x = rng.uniform([0, 0], [5, 6], size=(5000, 2))
        c = g_k(x, BASE)
        assert c.min() >= 0.0 and c.max() <= 2.0


class TestStormFlow:
    def test_zero_at_outlet_elevation(self):
        assert q_storm(1.0, BASE) == 0.0
        assert q_storm(0.2, BASE) == 0.0

    def test_max_at_lid(self):
        # independent evaluation of c_d * pi * r^2 * sqrt(2 g h)
        q_max = 0.61 * np.pi * (1.0 / 3.0) ** 2 * np.sqrt(2.0 * 32.2 * (6.0 - 1.0))
        assert_allclose(q_storm(6.0, BASE), q_max, rtol=1e-14)
        assert round(float(q_storm(6.0, BASE)), 1) == 3.8

    def test_midpoint_of_ramp(self):
        assert_allclose(q_storm(3.5, BASE), STORM_MAX / 2, rtol=1e-14)


class TestCsoFlow:
    def test_zero_at_or_below_invert(self):
        for level in (0.0, 2.0, 3.0):
            assert q_cso(level, 1, BASE) == 0.0

    def test_max_at_lid(self):
        q_max = 3 * 0.61 * np.pi * 0.25 ** 2 * np.sqrt(2.0 * 32.2 * (5.0 - 3.0))
        assert_allclose(q_cso(5.0, 1, BASE), q_max, rtol=1e-14)
        assert round(float(q_cso(5.0, 1, BASE)), 1) == 4.1

    def test_midpoint(self):
        assert_allclose(q_cso(4.0, 1, BASE), CSO_MAX[1] / 2, rtol=1e-14)
        assert_allclose(q_cso(5.0, 2, BASE), CSO_MAX[2] / 2, rtol=1e-14)


class TestValveFlow:
    def test_closed_valve(self):
        rng = np.random.default_rng(0)
        x = rng.uniform([0, 0], [5, 6], size=(50, 2))
        assert_allclose(q_valve(x, 0.0, BASE), 0.0, atol=0)

    def test_zero_head(self):
        assert q_valve(np.array([1.0, 2.0]), 1.0, BASE) == 0.0

    def test_two_foot_head(self):
        expected = np.pi * (1.0 / 3.0) ** 2 * np.sqrt(2.0 * 32.2 * 2.0)
        assert_allclose(q_valve(np.array([3.0, 2.0]), 1.0, BASE), expected, rtol=1e-14)
        assert round(float(expected), 2) == 3.96

    def test_reverse_flow_sign(self):
        # tank 2 above the pipe inlet drives water back into tank 1
        assert q_valve(np.array([0.5, 3.0]), 1.0, BASE) < 0.0


class TestPumpFlow:
    def test_full_speed(self):
        assert q_pump(np.array([3.0, 3.0]), 1.0, PUMP) == -10.0

    def test_dry_source_tank(self):
        assert q_pump(np.array([3.0, 0.0]), 0.5, PUMP) == 0.0

    def test_startup_ramp(self):
        assert_allclose(q_pump(np.array([1.0, 3.0]), -1.0, PUMP), 5.0, rtol=1e-14)

    def test_case_form_agrees_with_closed_form(self):
        rng = np.random.default_rng(11)
        x = rng.uniform([0, 0], [5, 6], size=(10_000, 2))
        u = rng.uniform(-1, 1, size=10_000)
        closed = q_pump(x, u, PUMP)
        cases = np.array([q_pump_piecewise(xi, ui, PUMP) for xi, ui in zip(x, u)])
        assert np.max(np.abs(closed - cases)) <= 1e-12

    def test_requires_pump_params(self):
        with pytest.raises(ValueError):
            q_pump(np.array([1.0, 1.0]), 0.5, BASE)


def estimated_jump(f, b, delta=1e-6, mode="linear"):
    """Discontinuity estimate |f(b+) - f(b-)| from samples within ``delta``.

    One-sided limits are extrapolated with a model that is exact for the
    local branch behavior (linear pieces for the pump, square-root head
    dependence for the valve), so continuous kinks read as ~0 while a
    genuine branch jump passes through at full size.
    """
    if mode == "linear":
        hi = 2.0 * f(b + delta / 2) - f(b + delta)
        lo = 2.0 * f(b - delta / 2) - f(b - delta)
    else:  # sqrt: f(b +- t) = limit +- c * sqrt(t) near the boundary
        hi = 2.0 * f(b + delta / 4) - f(b + delta)
        lo = 2.0 * f(b - delta / 4) - f(b - delta)
    return abs(hi - lo)


class TestFlowContinuity:
    """Sampled continuity checks at every branch boundary (1e-6 scale)."""

    def test_valve_across_zero_head(self):
        # h(x) = 0 along x1 - 1 = x2 - 2 (both above their elevations)
        for x2 in (2.5, 3.0, 4.0):
            f = lambda x1, x2=x2: float(q_valve(np.array([x1, x2]), 1.0, BASE))
            assert estimated_jump(f, x2 - 1.0, mode="sqrt") <= 1e-8

    def test_ramp_outlets_at_their_elevations(self):
        assert estimated_jump(lambda v: float(q_storm(v, BASE)), BASE.z2) <= 1e-8
        assert estimated_jump(lambda v: float(q_cso(v, 1, BASE)), BASE.k1) <= 1e-8
        assert estimated_jump(lambda v: float(q_cso(v, 2, BASE)), BASE.k2) <= 1e-8

    def test_pump_across_level_bands(self):
        zp, eps = PUMP.pump.z_elev, PUMP.pump.eps
        for u in (-1.0, -0.3, 0.4, 1.0):
            for b in (zp - eps, zp, zp + eps):
                f1 = lambda x1, u=u: float(q_pump(np.array([x1, 3.0]), u, PUMP))
                f2 = lambda x2, u=u: float(q_pump(np.array([3.0, x2]), u, PUMP))
                assert estimated_jump(f1, b) <= 1e-8
                assert estimated_jump(f2, b) <= 1e-8

    def test_pump_across_u_zero(self):
        for x in ([3.0, 3.0], [1.0, 0.5], [0.5, 1.0], [5.0, 6.0]):
            f = lambda u, x=x: float(q_pump(np.array(x), u, PUMP))
            assert estimated_jump(f, 0.0) <= 1e-8

    def test_estimator_flags_a_real_jump(self):
        step = lambda v: 0.0 if v < 1.0 else 3.0
        assert estimated_jump(step, 1.0) >= 2.9
        assert estimated_jump(step, 1.0, mode="sqrt") >= 2.9


class TestTransition:
    def test_overflow_clips_to_lids(self):
        x = transition(np.array([4.9, 5.9]), 0.0, 1e5, BASE)
        assert x.tolist() == [5.0, 6.0]

    def test_empty_tanks_stay_empty(self):
        x = transition(np.array([0.0, 0.0]), 0.0, 0.0, BASE)
        assert x.tolist() == [0.0, 0.0]

    def test_hand_evaluated_step(self):
        # below the inverts only the storm outlet drains; evaluate the Euler
        # step with independent arithmetic
        w = 12.2
        q_s = STORM_MAX * (2.0 - 1.0) / (6.0 - 1.0)
        expected = [2.0 + 180.0 * w / 30000.0,
                    2.0 + 180.0 * (w - q_s) / 10000.0]
        got = transition(np.array([2.0, 2.0]), 0.0, w, BASE)
        assert_allclose(got, expected, rtol=1e-14)

    def test_design_c_adds_tank1_storm_outlet(self):
        x = np.array([4.0, 0.0])
        base_step = transition(x, 0.0, 0.0, BASE)
        c_step = transition(x, 0.0, 0.0, design_params("c"))
        assert c_step[0] < base_step[0]
        # tank 2 sees the same flows in both designs at zero valve head
        assert c_step[1] == base_step[1]

    def test_stays_in_box_all_designs(self):
        dist = default_disturbance()
        for design in "abcd":
            p = design_params(design)
            model = make_stormwater_model(p, dist)
            g1 = np.linspace(0, p.kbar1, 12)
            g2 = np.linspace(0, p.kbar2, 12)
            lo, hi = model.action_bounds
            for u in np.linspace(lo, hi, 5):
                for w in dist.values:
                    xx, yy = np.meshgrid(g1, g2)
                    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
                    nxt = transition(pts, u, w, p)
                    assert nxt[:, 0].min() >= 0.0 and nxt[:, 0].max() <= p.kbar1
                    assert nxt[:, 1].min() >= 0.0 and nxt[:, 1].max() <= p.kbar2


class TestDisturbance:
    def test_default_moments_within_two_percent(self):
        pmf = default_disturbance()
        mean = pmf.mean()
        var = float(pmf.probs @ (pmf.values - mean) ** 2)
        skew = float(pmf.probs @ (pmf.values - mean) ** 3) / var ** 1.5
        assert abs(mean - 12.2) / 12.2 <= 0.02
        assert abs(var - 9.9) / 9.9 <= 0.02
        assert abs(skew - 0.74) / 0.74 <= 0.02

    def test_default_shape(self):
        pmf = default_disturbance()
        assert len(pmf) == 9
        assert np.all(np.diff(pmf.values) == 2.0)
        assert np.all(pmf.probs > 0)

    def test_smoke_mean_and_variance(self):
        pmf = smoke_disturbance()
        assert len(pmf) == 2
        assert_allclose(pmf.mean(), 12.2, atol=1e-12)
        var = float(pmf.probs @ (pmf.values - pmf.mean()) ** 2)
        assert_allclose(var, 9.9, atol=1e-12)
