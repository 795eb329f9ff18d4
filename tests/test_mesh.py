import numpy as np
import pytest

from relieforge.heightfield import HeightGrid
from relieforge.mesh import (
    InvertedSolidError,
    TriangleMesh,
    analytic_volume,
    close_solid,
    face_normals,
    tessellate_top,
    validate,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def grid(heights, dx=1.0, dy=1.0):
    return HeightGrid.from_spacing(np.asarray(heights, dtype=float), dx=dx, dy=dy)


class TestTessellateTop:
    def test_flat_cell(self):
        m = tessellate_top(grid([[2.0, 2.0], [2.0, 2.0]]))
        assert len(m.vertices) == 4 and m.triangle_count == 2
        normals = face_normals(m.vertices[m.triangles])
        assert np.array_equal(normals, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])

    def test_counts_2x3(self):
        m = tessellate_top(grid(np.zeros((2, 3))))
        assert len(m.vertices) == 6 and m.triangle_count == 4

    def test_tilted_cell_normals(self):
        # Hand-derived cross products for heights [[0,0],[0,1]]:
        # (A,B,D) -> (0,-1,1)/sqrt2, (A,D,C) -> (-1,0,1)/sqrt2.
        m = tessellate_top(grid([[0.0, 0.0], [0.0, 1.0]]))
        normals = face_normals(m.vertices[m.triangles])
        assert normals[0] == pytest.approx([0.0, -INV_SQRT2, INV_SQRT2])
        assert normals[1] == pytest.approx([-INV_SQRT2, 0.0, INV_SQRT2])

    def test_vertices_at_sample_positions(self):
        g = grid([[1.0, 2.0], [3.0, 4.0]], dx=2.0, dy=5.0)
        m = tessellate_top(g)
        assert [2.0, 0.0, 2.0] in m.vertices.tolist()
        assert [2.0, 5.0, 4.0] in m.vertices.tolist()

    def test_open_surface_not_watertight(self):
        rep = validate(tessellate_top(grid(np.ones((3, 4)))))
        assert not rep.watertight
        assert rep.boundary_edge_count > 0

    def test_row_major_deterministic_order(self):
        g = grid(np.arange(12, dtype=float).reshape(3, 4))
        a = tessellate_top(g)
        b = tessellate_top(g)
        assert np.array_equal(a.triangles, b.triangles)
        assert a.triangles[0].tolist() == [0, 1, 5]  # cell (0,0): A, B, D
        assert a.triangles[1].tolist() == [0, 5, 4]  # cell (0,0): A, D, C


class TestCloseSolid:
    def test_unit_box(self):
        rep = validate(close_solid(grid([[3.0, 3.0], [3.0, 3.0]])))
        assert rep.vertex_count == 8 and rep.triangle_count == 12
        assert rep.edge_count == 18 and rep.euler_characteristic == 2
        assert rep.watertight
        assert rep.signed_volume == 3.0

    def test_3x3_constant(self):
        rep = validate(close_solid(grid(np.full((3, 3), 2.5))))
        assert rep.vertex_count == 18 and rep.triangle_count == 32
        assert rep.signed_volume == 4 * 2.5
        assert rep.euler_characteristic == 2 and rep.watertight

    def test_plate_and_glyph_heights(self):
        g = grid([[1.2, 1.2], [1.2, 5.2]])
        rep = validate(close_solid(g))
        assert rep.watertight
        assert rep.signed_volume == pytest.approx(analytic_volume(g), rel=1e-12)

    def test_height_below_base_rejected(self):
        with pytest.raises(InvertedSolidError):
            close_solid(grid([[1.0, 1.0], [1.0, 1.0]]), base_z=2.0)

    def test_flat_regions_at_base_allowed(self):
        # height == base_z is legal; only height < base_z inverts.
        mesh = close_solid(grid([[0.0, 0.0], [0.0, 1.0]]))
        assert mesh.triangle_count > 0

    def test_nonzero_base_z(self):
        rep = validate(close_solid(grid([[3.0, 3.0], [3.0, 3.0]]), base_z=1.0))
        assert rep.watertight
        assert rep.signed_volume == pytest.approx(2.0)
        assert rep.bbox_min[2] == 1.0 and rep.bbox_max[2] == 3.0

    def test_zero_border_walls_skipped_and_counted(self):
        heights = np.zeros((4, 4))
        heights[1:3, 1:3] = 2.0
        mesh = close_solid(grid(heights))
        assert mesh.degenerate_skipped == 24  # every wall quad collapses
        assert validate(mesh).degenerate_count == 24

    def test_sliver_walls_kept(self):
        # Walls 1e-13 mm tall have less area than the degenerate floor,
        # but they close the solid, so they stay and validate counts them.
        heights = np.full((4, 4), 1e-13)
        heights[1:3, 1:3] = 2.0
        mesh = close_solid(grid(heights))
        assert mesh.degenerate_skipped == 0
        rep = validate(mesh)
        assert rep.watertight and rep.boundary_edge_count == 0
        assert rep.degenerate_count == 24

    def test_deterministic(self):
        g = grid(np.random.default_rng(0).uniform(1, 5, size=(6, 7)))
        a, b = close_solid(g), close_solid(g)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)


class TestValidate:
    def test_box_with_triangle_deleted(self):
        mesh = close_solid(grid([[3.0, 3.0], [3.0, 3.0]]))
        holed = TriangleMesh(mesh.vertices, mesh.triangles[:-1])
        rep = validate(holed)
        assert not rep.watertight
        assert rep.edge_count == 18  # deleting a face removes no edges here
        assert rep.boundary_edge_count == 3

    def test_empty_mesh_not_watertight(self):
        rep = validate(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), int)))
        assert not rep.watertight
        assert rep.triangle_count == 0 and rep.signed_volume == 0.0

    def test_duplicated_face_not_watertight(self):
        mesh = close_solid(grid([[3.0, 3.0], [3.0, 3.0]]))
        tris = np.vstack([mesh.triangles, mesh.triangles[:1]])
        rep = validate(TriangleMesh(mesh.vertices, tris))
        assert not rep.watertight

    def test_translation_invariance(self):
        g = grid(np.random.default_rng(1).uniform(1, 4, size=(5, 5)))
        mesh = close_solid(g)
        moved = TriangleMesh(mesh.vertices + np.array([13.0, -7.0, 101.0]), mesh.triangles)
        a, b = validate(mesh), validate(moved)
        assert b.signed_volume == pytest.approx(a.signed_volume, rel=1e-9)
        assert b.surface_area == pytest.approx(a.surface_area, rel=1e-9)
        assert not np.array_equal(a.bbox_min, b.bbox_min)

    def test_positive_volume_for_outward_solid(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = grid(rng.uniform(0.5, 9, size=(rng.integers(2, 9), rng.integers(2, 9))))
            assert validate(close_solid(g)).signed_volume > 0

    def test_surface_area_of_box(self):
        rep = validate(close_solid(grid([[2.0, 2.0], [2.0, 2.0]], dx=3.0, dy=4.0)))
        assert rep.surface_area == pytest.approx(2 * 3 * 4 + 2 * (3 + 4) * 2)


class TestAnalyticVolume:
    def test_constant_prism(self):
        assert analytic_volume(grid([[4.0, 4.0], [4.0, 4.0]])) == 4.0

    def test_single_raised_corner(self):
        # Fixed diagonal puts the h=3 corner in both triangles.
        assert analytic_volume(grid([[0.0, 0.0], [0.0, 3.0]])) == 1.0

    def test_zero_thickness_at_base(self):
        g = grid(np.full((3, 4), 2.0))
        assert analytic_volume(g, base_z=2.0) == 0.0

    def test_matches_mesh_volume(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rows, cols = rng.integers(2, 15, size=2)
            g = grid(
                rng.uniform(0.01, 10, size=(rows, cols)),
                dx=float(rng.uniform(0.2, 2)),
                dy=float(rng.uniform(0.2, 2)),
            )
            mesh_vol = validate(close_solid(g)).signed_volume
            oracle = analytic_volume(g)
            assert mesh_vol == pytest.approx(oracle, rel=1e-9)

    def test_below_base_rejected(self):
        with pytest.raises(InvertedSolidError):
            analytic_volume(grid([[1.0, 1.0], [1.0, 1.0]]), base_z=1.5)
