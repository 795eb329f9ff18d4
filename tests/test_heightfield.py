import numpy as np
import pytest

from relieforge.errors import GeometryError
from relieforge.heightfield import (
    GridTooSmallError,
    HeightGrid,
    PhysicalExtent,
    ScalarGrid,
    assign_extent,
    grid_from_image,
    pad_border,
)
from relieforge.image_io import GrayImage


class TestGridFromImage:
    def test_single_row_is_identity(self):
        g = grid_from_image(GrayImage(np.array([[0.2, 0.8]])))
        assert np.array_equal(g.values, [[0.2, 0.8]])

    def test_vertical_flip(self):
        img = GrayImage(np.array([[0.1], [0.9]]))  # top=0.1, bottom=0.9
        g = grid_from_image(img)
        assert np.array_equal(g.values, [[0.9], [0.1]])

    def test_mirror_x(self):
        g = grid_from_image(GrayImage(np.array([[0.2, 0.8]])), mirror_x=True)
        assert np.array_equal(g.values, [[0.8, 0.2]])

    @pytest.mark.parametrize("mirror", [False, True])
    def test_reorienting_twice_restores_the_image(self, mirror):
        rng = np.random.default_rng(2)
        values = rng.uniform(size=(5, 4))
        once = grid_from_image(GrayImage(values), mirror_x=mirror)
        twice = grid_from_image(GrayImage(once.values), mirror_x=mirror)
        assert np.array_equal(twice.values, values)


class TestPadBorder:
    def test_single_cell(self):
        g = pad_border(ScalarGrid(np.array([[7.0]])), value=0.0, thickness=1)
        assert g.values.shape == (3, 3)
        assert g.values[1, 1] == 7.0
        assert g.values.sum() == 7.0

    def test_zero_thickness_identity(self):
        src = ScalarGrid(np.array([[1.0, 2.0]]))
        out = pad_border(src, thickness=0)
        assert np.array_equal(out.values, src.values)

    def test_row_example(self):
        out = pad_border(ScalarGrid(np.array([[1.0, 2.0]])), value=0.0, thickness=1)
        assert out.values.shape == (3, 4)
        assert np.array_equal(out.values[1], [0.0, 1.0, 2.0, 0.0])

    def test_pad_then_crop_is_identity(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(size=(3, 6))
        for t in (1, 2, 5):
            padded = pad_border(ScalarGrid(values), value=0.25, thickness=t)
            assert np.array_equal(padded.values[t:-t, t:-t], values)

    def test_nonzero_value(self):
        out = pad_border(ScalarGrid(np.array([[5.0]])), value=1.5)
        assert out.values[0, 0] == 1.5


class TestAssignExtent:
    def test_single_cell_spacing(self):
        hg, clamped = assign_extent(
            ScalarGrid(np.zeros((2, 2))), PhysicalExtent(80.0, 28.0)
        )
        assert np.array_equal(np.diff(hg.x), [80.0]) and np.array_equal(np.diff(hg.y), [28.0])
        assert clamped == 0

    def test_fencepost_spacing(self):
        hg, _ = assign_extent(ScalarGrid(np.zeros((3, 5))), PhysicalExtent(80.0, 28.0))
        assert np.array_equal(np.diff(hg.x), [20.0] * 4)
        assert np.array_equal(np.diff(hg.y), [14.0] * 2)

    def test_too_small(self):
        with pytest.raises(GridTooSmallError):
            assign_extent(ScalarGrid(np.zeros((1, 5))), PhysicalExtent(80.0, 28.0))

    def test_heights_preserved_exactly(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(0.1, 9.0, size=(4, 7))
        hg, _ = assign_extent(ScalarGrid(values), PhysicalExtent(80.0, 28.0))
        assert np.array_equal(hg.heights, values)

    def test_extent_endpoints_exact(self):
        # Sample positions must land exactly on the requested extent even
        # when the spacing is not representable (e.g. 80/3).
        for cols in (2, 3, 4, 7, 11):
            hg, _ = assign_extent(
                ScalarGrid(np.zeros((3, cols))), PhysicalExtent(80.0, 28.0)
            )
            assert hg.x[0] == 0.0 and hg.x[-1] == 80.0
            assert hg.y[0] == 0.0 and hg.y[-1] == 28.0

    def test_negative_heights_clamped_and_counted(self):
        grid = ScalarGrid(np.array([[1.0, -0.5], [-0.25, 2.0]]))
        hg, clamped = assign_extent(grid, PhysicalExtent(10.0, 10.0))
        assert clamped == 2
        assert hg.heights.min() == 0.0
        assert hg.heights[0, 0] == 1.0 and hg.heights[1, 1] == 2.0


class TestHeightGrid:
    def test_from_spacing(self):
        hg = HeightGrid.from_spacing(np.zeros((2, 3)), dx=2.0, dy=3.0)
        assert np.array_equal(hg.x, [0.0, 2.0, 4.0])
        assert np.array_equal(hg.y, [0.0, 3.0])

    def test_rejects_tiny_grid(self):
        with pytest.raises(GridTooSmallError):
            HeightGrid.from_spacing(np.zeros((1, 2)))

    def test_rejects_negative_heights(self):
        with pytest.raises(ValueError):
            HeightGrid.from_spacing(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_heights(self, bad):
        with pytest.raises(GeometryError, match="finite"):
            HeightGrid.from_spacing(np.array([[0.0, 1.0], [bad, 0.0]]))

    def test_rejects_values_beyond_float32(self):
        with pytest.raises(GeometryError, match="float32"):
            HeightGrid.from_spacing(np.array([[0.0, 1.0], [1e39, 0.0]]))
        with pytest.raises(GeometryError, match="float32"):
            HeightGrid(np.zeros((2, 2)), x=[0.0, 1e39], y=[0.0, 1.0])
        HeightGrid.from_spacing(np.full((2, 2), 3.4028234e38))  # largest float32s pass

    def test_rejects_positions_not_strictly_increasing(self):
        with pytest.raises(GeometryError, match="strictly increasing"):
            HeightGrid(np.zeros((2, 3)), x=[0.0, 1.0, 1.0], y=[0.0, 1.0])
        with pytest.raises(GeometryError, match="strictly increasing"):
            HeightGrid(np.zeros((3, 2)), x=[0.0, 1.0], y=[0.0, 2.0, 1.0])

    def test_extent_invariants(self):
        with pytest.raises(ValueError):
            PhysicalExtent(0.0, 10.0)
        with pytest.raises(ValueError):
            PhysicalExtent(10.0, -1.0)
