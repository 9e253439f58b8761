"""Grid construction, bracketing, and interpolation tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvarsafe import AugmentedGrid, make_stormwater_model
from cvarsafe.grids import locate_batch
from pointwise import interp_xz, locate

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
    ], ids=["descending", "nan", "empty", "single-nan", "single-inf", "inf-last"])
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
