"""Grid construction, bracketing, and interpolation tests."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from cvarsafe import AugmentedGrid, grids, make_stormwater_model, solver
from cvarsafe.grids import decision_points, locate_batch
from pointwise import interp_xz, locate, nearest_on_axis

MODEL = make_stormwater_model()


def small_grid():
    return AugmentedGrid.uniform(MODEL, (5, 7), 4, 3, 3)


class TestConstruction:
    def test_uniform_endpoints(self):
        g = small_grid()
        assert g.x_axes[0][0] == 0.0 and g.x_axes[0][-1] == 5.0
        assert g.x_axes[1][0] == 0.0 and g.x_axes[1][-1] == 6.0
        assert g.z_axis[0] == 0.0 and g.z_axis[-1] == MODEL.c_bar
        assert g.s_axis[0] == 0.0 and g.s_axis[-1] == MODEL.c_bar
        assert g.n_xnodes == 35

    def test_counts_below_two_rejected(self):
        with pytest.raises(ValueError):
            AugmentedGrid.uniform(MODEL, (1, 5), 4, 3, 3)
        with pytest.raises(ValueError):
            AugmentedGrid.uniform(MODEL, (5, 5), 1, 3, 3)

    def test_explicit_nonuniform_axes(self):
        g = AugmentedGrid(x_axes=(np.array([0.0, 0.5, 2.0]),),
                          z_axis=np.array([0.0, 0.25, 2.0]),
                          action_axis=np.array([0.0, 1.0]),
                          s_axis=np.array([0.0, 0.25, 2.0]))
        assert g.n_xnodes == 3

    @pytest.mark.parametrize("axes, error", [
        ({"action_axis": [1.0, 0.0]}, "grid action axis must be"),
        ({"z_axis": [0.0, np.nan, 2.0]}, "grid z axis must be"),
        ({"x_axes": ([0.0, 1.0], [])}, "grid x axis 1 must be"),
        ({"x_axes": ([np.nan],)}, "grid x axis 0 must be"),
        ({"x_axes": ([np.inf],)}, "grid x axis 0 must be"),
        ({"x_axes": ([0.0, 1.0], [0.0, np.inf])}, "grid x axis 1 must be"),
        ({"x_axes": ([-1e308, 0.0, 1e308],)}, "grid x axis 0 must be"),
        ({"z_axis": [-1.7e308, 1.7e308]}, "grid z axis must be .* finite span"),
        ({"s_axis": [1.7e308, -1.7e308, 1.7e308]}, "grid s axis must be"),
    ], ids=["descending", "nan", "empty", "single-nan", "single-inf", "inf-last",
            "span-overflows", "step-overflows", "descending-step-overflows"])
    def test_bad_axis_named(self, axes, error):
        spec = {"x_axes": ([0.0, 1.0],), "z_axis": [0.0, 2.0],
                "action_axis": [0.0, 1.0], "s_axis": [0.0, 2.0], **axes}
        with pytest.raises(ValueError, match=error):
            AugmentedGrid(**spec)

    def test_singleton_x_axis_allowed(self):
        g = AugmentedGrid(x_axes=(np.array([1.0]),),
                          z_axis=np.array([0.0, 1.0]),
                          action_axis=np.array([0.0]),
                          s_axis=np.array([0.0, 1.0]))
        assert g.n_xnodes == 1

    def test_unsorted_axis_rejected(self):
        with pytest.raises(ValueError):
            AugmentedGrid(x_axes=(np.array([1.0, 0.0]),),
                          z_axis=np.array([0.0, 1.0]),
                          action_axis=np.array([0.0]),
                          s_axis=np.array([0.0, 1.0]))

    def test_node_enumeration_row_major(self):
        g = small_grid()
        nodes = g.x_nodes()
        # last axis varies fastest
        assert nodes[0].tolist() == [0.0, 0.0]
        assert nodes[1][0] == 0.0 and nodes[1][1] == 1.0


class TestLocate:
    AXIS = np.array([0.0, 0.5, 1.5, 4.0])

    def test_exact_nodes_have_zero_fraction(self):
        for i, v in enumerate(self.AXIS[:-1]):
            idx, frac = locate(self.AXIS, float(v))
            assert (idx, frac) == (i, 0.0)
        # top node brackets from below with fraction exactly 1
        assert locate(self.AXIS, 4.0) == (2, 1.0)

    def test_interior(self):
        idx, frac = locate(self.AXIS, 1.0)
        assert idx == 1
        assert_allclose(frac, 0.5)

    def test_out_of_range_clamps(self):
        assert locate(self.AXIS, -3.0) == (0, 0.0)
        assert locate(self.AXIS, 9.0) == (2, 1.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        vs = rng.uniform(-1, 5, size=200)
        idx, frac = locate_batch(self.AXIS, vs)
        for v, i, f in zip(vs, idx, frac):
            si, sf = locate(self.AXIS, float(v))
            assert (si, sf) == (i, f)


class TestInterpolation:
    def test_node_queries_are_bit_exact(self):
        g = small_grid()
        rng = np.random.default_rng(2)
        table = rng.random((g.n_xnodes, g.z_axis.size))
        nodes = g.x_nodes()
        for flat in range(g.n_xnodes):
            for jz in range(g.z_axis.size):
                got = interp_xz(g, table, nodes[flat], float(g.z_axis[jz]))
                assert got == table[flat, jz]

    def test_constant_table(self):
        g = small_grid()
        table = np.full((g.n_xnodes, g.z_axis.size), 0.7)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform([0, 0], [5, 6])
            z = rng.uniform(0, 2)
            assert_allclose(interp_xz(g, table, x, z), 0.7, rtol=1e-15)

    def test_linear_function_reproduced(self):
        # multilinear interpolation is exact on affine functions
        g = small_grid()
        nodes = g.x_nodes()
        table = (2.0 * nodes[:, 0:1] - 0.5 * nodes[:, 1:2]
                 + 3.0 * g.z_axis[None, :])
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform([0, 0], [5, 6])
            z = rng.uniform(0, 2)
            expected = 2.0 * x[0] - 0.5 * x[1] + 3.0 * z
            assert_allclose(interp_xz(g, table, x, z), expected, atol=1e-12)


def ulps(v, k):
    """``v`` moved ``k`` doubles up (k > 0) or down (k < 0)."""
    v = np.asarray(v, dtype=np.float64)
    for _ in range(abs(k)):
        v = np.nextafter(v, np.copysign(np.inf, k))
    return v


def probe_values(axis, extra=()):
    """Nodes, midpoints +-5 ulps, decision points +-1 ulp, random values
    in and around the axis, values far outside it and +-inf."""
    mids = axis[:-1] / 2 + axis[1:] / 2
    cuts = decision_points(axis)[1:-1]
    span = axis[-1] - axis[0] or 1.0
    rng = np.random.default_rng(axis.size)
    return np.concatenate(
        [axis, *(ulps(mids, k) for k in range(-5, 6)),
         *(ulps(cuts, k) for k in (-1, 0, 1)),
         rng.uniform(axis[0] - span, axis[-1] + span, 300),
         [axis[0] - 1e6 * span, axis[-1] + 1e6 * span, -np.inf, np.inf],
         np.asarray(extra, dtype=np.float64)])


def grid_on(axis):
    """A grid with ``axis`` as x axis 0 (and as the z axis if it has 2+ nodes)."""
    return AugmentedGrid(x_axes=(axis, np.array([-1.0, 0.5, 2.0])),
                         z_axis=axis if axis.size > 1 else np.array([0.0, 1.0]),
                         action_axis=np.array([0.0]),
                         s_axis=np.array([0.0, 1.0]))


def assert_matches_reference(axis, vs):
    g = grid_on(axis)
    other = np.resize(np.array([-2.0, -0.25, -0.249, 1.25, 1.26, 9.0]), vs.size)
    want = nearest_on_axis(axis, vs) * 3 + nearest_on_axis(g.x_axes[1], other)
    pts = np.stack([vs, other], axis=-1)
    assert np.array_equal(g.nearest_x_index(pts), want)
    for k in range(0, vs.size, 17):
        assert g.nearest_x_index(pts[k]) == want[k]
    if axis.size > 1:
        want_z = nearest_on_axis(axis, vs)
        assert np.array_equal(g.nearest_z_index(vs), want_z)
        for k in range(0, vs.size, 17):
            assert g.nearest_z_index(vs[k]) == want_z[k]


AXES = {
    "uniform": np.linspace(0.0, 5.0, 25),
    "straddles-zero": np.linspace(-3.0, 3.0, 4),
    "nonuniform": np.array([0.0, 0.5, 2.0, 2.1, 7.0]),
    "negative": np.linspace(-7.3, -1.1, 13),
    "offset": 1e5 + np.linspace(0.0, 1.0, 11),
    "tiny": np.array([0.0, 5e-324, 1e-320, 1e-300, 1.0]),
    "one-node": np.array([3.0]),
    "two-node": np.array([1.0, 2.0]),
}


@st.composite
def axes(draw):
    """Uniform (linspace) or arbitrary strictly increasing axes of 1-12 nodes."""
    values = st.floats(-1e6, 1e6, allow_subnormal=True)
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(values, min_size=2, max_size=2,
                                      unique=True)))
        axis = np.linspace(lo, hi, draw(st.integers(2, 12)))
        # Over a span of a few subnormals linspace repeats nodes, and
        # grids.checked_axis refuses such an axis.
        assume(np.all(np.diff(axis) > 0))
        return axis
    return np.array(sorted(draw(st.lists(values, min_size=1, max_size=12,
                                         unique=True))))


class TestNearest:
    def test_ties_go_to_lower_node(self):
        g = AugmentedGrid(x_axes=(np.array([0.0, 1.0]), np.array([0.0, 2.0])),
                          z_axis=np.array([0.0, 1.0]),
                          action_axis=np.array([0.0]),
                          s_axis=np.array([0.0, 1.0]))
        assert g.nearest_x_index(np.array([0.5, 1.0])) == 0
        assert g.nearest_x_index(np.array([0.6, 1.1])) == 3

    def test_batch_and_z(self):
        g = small_grid()
        pts = np.array([[0.0, 0.0], [5.0, 6.0], [2.49, 3.1]])
        idx = g.nearest_x_index(pts)
        assert idx.shape == (3,)
        assert idx[0] == 0 and idx[1] == g.n_xnodes - 1
        assert g.nearest_z_index(0.32) == 0
        assert g.nearest_z_index(0.34) == 1

    @pytest.mark.parametrize("name", AXES)
    def test_matches_reference(self, name):
        assert_matches_reference(AXES[name], probe_values(AXES[name]))

    @settings(max_examples=200, deadline=None)
    @given(axes(), st.lists(st.floats(allow_nan=False), max_size=20))
    def test_matches_reference_on_random_axes(self, axis, extra):
        assert_matches_reference(axis, probe_values(axis, extra))

    @settings(max_examples=200, deadline=None)
    @given(axes().filter(lambda ax: ax.size > 1))
    def test_decision_points_are_exact(self, axis):
        # t_j is the first double the reference sends to node j + 1.
        cuts = decision_points(axis)
        assert cuts[0] == -np.inf and cuts[-1] == np.inf
        nodes = np.arange(axis.size - 1)
        assert np.array_equal(nearest_on_axis(axis, cuts[1:-1]), nodes + 1)
        assert np.array_equal(nearest_on_axis(axis, ulps(cuts[1:-1], -1)), nodes)

    def test_guess_corrected_over_several_nodes(self):
        # The affine guess spreads the 5 nodes evenly over [0, 100], so near
        # node 3 it lands up to 3 nodes low and the correction loop takes
        # several passes.
        axis = np.array([0.0, 1.0, 2.0, 3.0, 100.0])
        vs = np.array([1.4, 2.6, 3.0, 45.0, 51.5, 52.0])
        guess = np.rint(vs * 4 / 100)
        assert np.abs(guess - nearest_on_axis(axis, vs)).max() >= 3
        assert_matches_reference(axis, vs)

    def test_decision_points_found_on_first_lookup(self, monkeypatch):
        # Sweeps never look nodes up, so they never pay for decision points.
        calls = []
        monkeypatch.setattr(grids, "decision_points",
                            lambda axis: calls.append(axis) or decision_points(axis))
        g = small_grid()
        solver.sweep(MODEL, g)
        assert calls == []
        assert g.nearest_x_index([2.6, 3.1]) == 2 * 7 + 3
        assert len(calls) == 2  # one per x axis
        g.nearest_x_index([1.0, 1.0])
        assert g.nearest_z_index(MODEL.c_bar) == 3
        assert len(calls) == 3  # the z axis's, once

    def test_nan_refused_naming_the_axis(self):
        g = small_grid()
        with pytest.raises(ValueError, match="grid z axis"):
            g.nearest_z_index(np.nan)
        with pytest.raises(ValueError, match="grid z axis"):
            g.nearest_z_index(np.array([0.1, np.nan]))
        with pytest.raises(ValueError, match="grid x axis 1"):
            g.nearest_x_index(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="grid x axis 0"):
            g.nearest_x_index(np.array([[1.0, 2.0], [np.nan, 1.0]]))
