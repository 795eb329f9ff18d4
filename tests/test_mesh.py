import io

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relieforge.errors import GeometryError
from relieforge.heightfield import HeightGrid
from relieforge.mesh import (
    _CHUNK,
    InvertedSolidError,
    TriangleMesh,
    analytic_volume,
    close_solid,
    face_normals,
    validate,
)
from relieforge.stl_io import read_stl, write_binary_stl

from conftest import (
    cells_outside,
    flat_blocks_reference,
    open_top,
    rim_reference,
    top_corners,
    traced_peak,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def grid(heights, dx=1.0, dy=1.0):
    return HeightGrid.from_spacing(np.asarray(heights, dtype=float), dx=dx, dy=dy)


class TestFaceNormals:
    def test_flat_cell(self):
        a, b, c, d = [0.0, 0.0, 2.0], [1.0, 0.0, 2.0], [0.0, 1.0, 2.0], [1.0, 1.0, 2.0]
        normals = face_normals(np.array([[a, b, d], [a, d, c]]))
        assert np.array_equal(normals, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])

    def test_tilted_cell_normals(self):
        # Hand-derived cross products for a unit cell with D raised to 1:
        # (A,B,D) -> (0,-1,1)/sqrt2, (A,D,C) -> (-1,0,1)/sqrt2.
        a, b, c, d = [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]
        normals = face_normals(np.array([[a, b, d], [a, d, c]]))
        assert normals[0] == pytest.approx([0.0, -INV_SQRT2, INV_SQRT2])
        assert normals[1] == pytest.approx([-INV_SQRT2, 0.0, INV_SQRT2])


class TestCloseSolid:
    def test_unit_box(self):
        rep = validate(close_solid(grid([[3.0, 3.0], [3.0, 3.0]])))
        assert rep.vertex_count == 8 and rep.triangle_count == 12
        assert rep.edge_count == 18 and rep.euler_characteristic == 2
        assert rep.watertight
        assert rep.signed_volume == 3.0

    def test_3x3_constant(self):
        mesh = close_solid(grid(np.full((3, 3), 2.5)))
        rep = validate(mesh)
        # One 2x2 block: its 8 border samples (the centre one is dropped)
        # + 8 rim base vertices; 4*2 - 2 = 6 top + 6 base + 16 wall triangles
        assert rep.vertex_count == 16 and rep.triangle_count == 28
        assert [1.0, 1.0, 2.5] not in mesh.vertices.tolist()
        assert rep.signed_volume == 4 * 2.5
        assert rep.euler_characteristic == 2 and rep.watertight

    def test_base_plane_block_at_a_corner_stays_unmerged(self):
        # A 2x2 block on the base plane at the south-west corner would be
        # zipped with the base zipper's own chords, and those edges would
        # be used four times. Only blocks above base_z merge.
        heights = np.ones((5, 6))
        heights[:3, :3] = 0.0
        g = grid(heights)
        assert flat_blocks_reference(heights, 0.0)[0] == []
        mesh = close_solid(g)
        rep = validate(mesh)
        assert rep.watertight and rep.euler_characteristic == 2
        assert rep.nonmanifold_edge_count == 0 and rep.boundary_edge_count == 0
        perimeter = 2 * (5 + 6) - 4
        assert rep.triangle_count == 2 * 4 * 5 + perimeter - 2 + 2 * perimeter - 10
        assert mesh.degenerate_skipped == 10
        assert rep.signed_volume == pytest.approx(analytic_volume(g), rel=1e-12)

    def test_neighbouring_blocks_share_border_vertices(self):
        # A 4x4 block beside 2x2 blocks at its own height and at another,
        # and flat cells outside the quadtree's alignment: every grid
        # vertex on a block border is used, so no vertex lies inside an edge.
        heights = np.full((7, 9), 2.0)
        heights[:, 6:] = 3.0
        blocks, _ = flat_blocks_reference(heights, 0.0)
        assert blocks == [(0, 0, 4), (0, 6, 2), (2, 6, 2), (4, 0, 2), (4, 2, 2), (4, 6, 2)]
        check_merged_solid(grid(heights, dx=0.5, dy=1.5), 0.0)

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

    def test_no_volume_rejected(self):
        with pytest.raises(GeometryError, match="no volume"):
            close_solid(grid(np.full((3, 4), 2.0)), base_z=2.0)

    def test_interior_on_base_plane_closes(self):
        # The top touches the base inside the rim, but shares no edge with it.
        heights = np.full((5, 5), 1.0)
        heights[1:4, 1:4] = 0.0
        g = grid(heights)
        rep = validate(close_solid(g))
        assert rep.watertight and rep.euler_characteristic == 2
        assert rep.vertex_count == 25 + 16
        assert rep.signed_volume == pytest.approx(analytic_volume(g), rel=1e-12)

    def test_two_columns_not_pinched_on_base_plane(self):
        # With cols == 2 every sample is on the rim. A base zipped across
        # the row edges would share a row on the base plane with the top,
        # four triangles to the edge; the base avoids the top's edges.
        g = grid([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        mesh = close_solid(g)
        rep = validate(mesh)
        assert rep.watertight and rep.euler_characteristic == 2
        assert rep.nonmanifold_edge_count == 0 and rep.boundary_edge_count == 0
        assert rep.signed_volume == pytest.approx(analytic_volume(g), rel=1e-12)
        base = mesh.vertices[mesh.triangles[6:12]]  # after 6 top triangles
        assert np.array_equal(face_normals(base), np.tile([0.0, 0.0, -1.0], (6, 1)))

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

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_positions_merging_in_float32(self, axis):
        close = np.array([0.0, 1.0, 1.0 + 1e-9])
        apart = np.array([0.0, 1.0, 2.0])
        x, y = (close, apart) if axis == "x" else (apart, close)
        g = HeightGrid(np.ones((3, 3)), x, y)
        with pytest.raises(GeometryError, match=f"neighbouring {axis} positions"):
            close_solid(g)
        assert analytic_volume(g) > 0
        close_solid(HeightGrid(np.ones((3, 3)), apart, apart))

    def test_rim_merging_in_float32(self):
        # 100000001 lies above a base plane at 100000000 in float64, but
        # both round to 100000000 in float32, so every rim sample's base
        # corner would land on its top vertex in the file.
        g = grid(np.full((70, 200), 100000001.0))
        with pytest.raises(GeometryError, match="heights above the base plane"):
            close_solid(g, base_z=1e8)
        assert analytic_volume(g, base_z=1e8) > 0

    def test_interior_merging_in_float32(self):
        # The rim lies on the base plane, so only interior samples stand
        # above it; in float32 they round onto it, and the file's solid
        # would have no volume.
        h = np.full((6, 6), 1e8)
        h[1:-1, 1:-1] = 1e8 + 1
        g = grid(h)
        with pytest.raises(GeometryError, match="heights above the base plane"):
            close_solid(g, base_z=1e8)
        assert analytic_volume(g, base_z=1e8) == pytest.approx(16.0)

    def test_deterministic(self):
        g = grid(np.random.default_rng(0).uniform(1, 5, size=(6, 7)))
        a, b = close_solid(g), close_solid(g)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)


@st.composite
def plateau_grids(draw):
    rows = draw(st.integers(2, 7))
    cols = draw(st.integers(2, 7))
    base_z = draw(st.sampled_from([0.0, 0.75, 3.0]))
    # Offsets of 0 put plateaus on the base plane, whose walls collapse.
    levels = st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5])
    offsets = draw(arrays(np.float64, (rows, cols), elements=levels))
    assume(offsets.max() > 0)
    steps = st.sampled_from([0.1, 0.5, 1.0, 3.0])
    x = np.cumsum(draw(arrays(np.float64, cols, elements=steps))) - 0.1
    y = np.cumsum(draw(arrays(np.float64, rows, elements=steps)))
    return HeightGrid(base_z + offsets, x, y), base_z


def check_merged_solid(g, base_z):
    """close_solid(g, base_z) against exact expectations from the block oracle.

    The samples no block hides are the top vertices, in row-major order.
    The top has 2V - P - 2 triangles, each with its corners on two
    neighbouring grid lines. Inside a block they lie at its height, face
    exactly +Z and cover its footprint; every other one is its cell's
    (A,B,D) or (A,D,C), in row-major order.
    """
    rows, cols = g.rows, g.cols
    mesh = close_solid(g, base_z=base_z)
    blocks, hidden = flat_blocks_reference(g.heights, base_z)
    rim = np.ones((rows, cols), dtype=bool)
    rim[1:-1, 1:-1] = False
    perimeter = 2 * (rows + cols) - 4
    kr, kc = np.nonzero(~hidden)
    top_count = 2 * len(kr) - perimeter - 2
    expected_triangles = top_count + perimeter - 2 + 2 * perimeter - mesh.degenerate_skipped
    assert mesh.triangle_count == expected_triangles
    raised_rim = int(np.count_nonzero(g.heights[rim] > base_z))
    assert len(mesh.vertices) == len(kr) + raised_rim
    top_vertices = np.column_stack([g.x[kc], g.y[kr], g.heights[kr, kc]])
    assert np.array_equal(mesh.vertices[: len(kr)], top_vertices)
    assert np.array_equal(np.unique(mesh.triangles), np.arange(len(mesh.vertices)))
    assert mesh.triangles[:top_count].max() < len(kr)
    r, c, in_block = top_corners(mesh, blocks, hidden)
    assert np.all(r.max(axis=1) - r.min(axis=1) == 1)

    corners = mesh.vertices[mesh.triangles[:top_count]]
    for br, bc, side in blocks:
        inside = np.all((r >= br) & (r <= br + side) & (c >= bc) & (c <= bc + side), axis=1)
        tris = corners[inside]
        assert np.all(tris[:, :, 2] == g.heights[br, bc])
        assert np.array_equal(face_normals(tris), np.tile([0.0, 0.0, 1.0], (len(tris), 1)))
        cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        footprint = (g.x[bc + side] - g.x[bc]) * (g.y[br + side] - g.y[br])
        assert 0.5 * cross[:, 2].sum() == pytest.approx(footprint, rel=1e-12)
    anchors = np.flatnonzero(cells_outside(blocks, rows, cols))
    a = anchors + anchors // (cols - 1)
    d = a + cols + 1
    split = np.stack([a, a + 1, d, a, d, a + cols], axis=1).reshape(-1, 3)
    assert np.array_equal(r[~in_block] * cols + c[~in_block], split)

    rep = validate(mesh)
    assert rep.watertight and rep.euler_characteristic == 2
    assert abs(rep.signed_volume - analytic_volume(g, base_z)) <= 1e-9 * max(
        1.0, abs(rep.signed_volume)
    )
    return mesh


@settings(max_examples=200, deadline=None)
@given(plateau_grids())
def test_close_solid_counts_and_closure(case):
    check_merged_solid(*case)


@st.composite
def rim_grids(draw):
    """Plateau grids whose rim may lie wholly on the base plane."""
    g, base_z = draw(plateau_grids())
    if draw(st.booleans()):
        heights = g.heights.copy()
        heights[[0, -1]] = heights[:, [0, -1]] = base_z
        assume(heights.max() > base_z)
        g = HeightGrid(heights, g.x, g.y)
    return g, base_z


@settings(max_examples=200, deadline=None)
@given(rim_grids())
@example((grid([[1.0, 2.0], [0.0, 1.0], [2.5, 0.0]]), 0.0))
@example((grid([[0.75, 1.0, 0.75, 2.0], [1.0, 0.75, 3.0, 0.75]]), 0.75))
def test_base_and_walls_match_loop_reference(case):
    # The STL bytes follow the triangle order, so the base and walls are
    # pinned corner by corner, in order and winding.
    g, base_z = case
    mesh = close_solid(g, base_z=base_z)
    floor, walls = rim_reference(g, base_z)
    corners = mesh.vertices[mesh.triangles[-len(floor) - len(walls) :]]
    assert np.array_equal(corners[: len(floor)], floor)
    assert np.array_equal(corners[len(floor) :], walls)


@st.composite
def flat_region_grids(draw):
    """Grids of wide plateaus: a coarse level map blown up by a tile side,
    shifted against the quadtree, with a few single-sample specks."""
    rows = draw(st.integers(2, 20))
    cols = draw(st.integers(2, 20))
    base_z = draw(st.sampled_from([0.0, 0.75, 3.0]))
    tile = draw(st.integers(1, 9))
    levels = st.sampled_from([0.0, 0.25, 1.0, 2.5])
    coarse = draw(arrays(np.float64, (rows // tile + 2, cols // tile + 2), elements=levels))
    dr, dc = draw(st.integers(0, tile - 1)), draw(st.integers(0, tile - 1))
    offsets = np.kron(coarse, np.ones((tile, tile)))[dr : dr + rows, dc : dc + cols]
    for _ in range(draw(st.integers(0, 3))):
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        offsets[r, c] = draw(levels)
    assume(offsets.max() > 0)
    steps = st.sampled_from([0.1, 0.5, 1.0, 3.0])
    x = np.cumsum(draw(arrays(np.float64, cols, elements=steps))) - 0.1
    y = np.cumsum(draw(arrays(np.float64, rows, elements=steps)))
    return HeightGrid(base_z + offsets, x, y), base_z


@settings(max_examples=300, deadline=None)
@given(flat_region_grids())
def test_merged_blocks_close_exactly(case):
    check_merged_solid(*case)


@st.composite
def float32_edge_grids(draw):
    """Grids at float32's resolution: origins far from 0, spacings near one
    float32 ulp there, heights a few float32 ulps from a far base plane."""
    rows = draw(st.integers(2, 6))
    cols = draw(st.integers(2, 6))
    base_z = draw(st.sampled_from([0.0, 1e8]))
    offsets = draw(arrays(np.float64, (rows, cols), elements=st.sampled_from([0.0, 1.0, 2.0])))
    if draw(st.booleans()):  # a rim on the base plane has no base corners to merge
        offsets[[0, -1]] = offsets[:, [0, -1]] = 0.0
    assume(offsets.max() > 0)

    def positions(n):
        # float32 ulps: 1.2e-7 at 1, 1.0 at 1e7.
        steps = arrays(np.float64, n - 1, elements=st.sampled_from([1e-7, 0.5, 1.0, 1.5, 3.0]))
        return draw(st.sampled_from([0.0, 1e7])) + np.concatenate([[0.0], np.cumsum(draw(steps))])

    return HeightGrid(base_z + offsets, positions(cols), positions(rows)), base_z


@settings(max_examples=300, deadline=None)
@given(float32_edge_grids())
def test_accepted_solid_survives_float32_file(case):
    g, base_z = case
    try:
        mesh = close_solid(g, base_z=base_z)
    except GeometryError as exc:
        assert "float32" in str(exc)
        return
    buf = io.BytesIO()
    write_binary_stl(mesh, buf)
    rep = validate(read_stl(buf.getvalue()))
    assert rep.vertex_count == len(mesh.vertices)
    assert rep.watertight and rep.euler_characteristic == 2


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
        assert rep.edge_count == 0 and rep.euler_characteristic == 0
        assert np.array_equal(rep.bbox_min, np.zeros(3))
        assert np.array_equal(rep.bbox_max, np.zeros(3))
        points = np.array([[1.0, 2.0, 3.0], [4.0, -5.0, 6.0], [0.0, 0.0, 9.0]])
        rep = validate(TriangleMesh(points, np.zeros((0, 3), int)))
        assert not rep.watertight and rep.surface_area == 0.0
        assert rep.edge_count == 0 and rep.euler_characteristic == 3
        assert np.array_equal(rep.bbox_min, [0.0, -5.0, 3.0])
        assert np.array_equal(rep.bbox_max, [4.0, 2.0, 9.0])

    def test_open_surface_not_watertight(self):
        rep = validate(open_top(grid(np.ones((3, 4)))))
        assert not rep.watertight
        assert rep.boundary_edge_count == 2 * (2 + 3)
        assert rep.nonmanifold_edge_count == 0 and rep.repeated_edge_count == 0

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

    @pytest.mark.parametrize("offset", [1e2, 1e3, 1e4])
    def test_volume_keeps_its_digits_far_from_the_origin(self, offset):
        # The volume terms come from the edges' cross product, so moving
        # the solid, base plane and all, away from the origin costs few
        # digits: these grids miss by 2.6e-12 at 1e4 mm, where terms
        # v0 . (v1 x v2) missed by 1.2e-6 and 1.0e-9 at 1e3 mm.
        rng = np.random.default_rng(20260819)
        for _ in range(20):
            rows, cols = rng.integers(2, 41, size=2)
            dx, dy = rng.uniform(0.1, 3.0, size=2)
            g = HeightGrid(
                offset + rng.uniform(0.01, 10.0, size=(rows, cols)),
                offset + dx * np.arange(cols),
                offset + dy * np.arange(rows),
            )
            volume = validate(close_solid(g, base_z=offset)).signed_volume
            assert volume == pytest.approx(analytic_volume(g, base_z=offset), rel=1e-11)

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


def test_validate_memory_is_bounded():
    # 107,628 triangles in four blocks: beside the mesh, validate holds
    # 3T edge keys and one block's temporaries, then the sorted keys and
    # one mask as long at a time. The peak, in the block loop, is 2.8
    # times the mesh's own bytes here.
    mesh = close_solid(grid(np.random.default_rng(0).uniform(0.5, 3.0, size=(230, 230))))
    rep, peak = traced_peak(validate, mesh)
    assert rep.watertight and mesh.triangle_count == 107628
    assert peak < 3.5 * (mesh.vertices.nbytes + mesh.triangles.nbytes)


def test_validate_counts_edges_with_one_mask_beside_the_keys(monkeypatch):
    # With small blocks the peak falls after the sort: the 3T int64 keys
    # and one comparison mask, a byte per key, at a time. Two masks held
    # together would pass 2 bytes per key.
    monkeypatch.setattr("relieforge.mesh._CHUNK", 256)
    mesh = close_solid(grid(np.random.default_rng(0).uniform(0.5, 3.0, size=(230, 230))))
    rep, peak = traced_peak(validate, mesh)
    keys = 3 * mesh.triangle_count
    assert rep.watertight and mesh.triangle_count == 107628
    assert peak - 8 * keys < 1.5 * keys


@pytest.mark.parametrize("chunk", [_CHUNK, 1024])
def test_validate_keys_in_parts_are_bounded(monkeypatch, chunk):
    # With _KEYS = 2**17 the 322,884 directed edges of the 230x230 solid
    # go in three parts by their lower vertex. Beside the mesh, validate
    # then holds the keys of one part, 8 bytes each, and one block's
    # temporaries: origin and moment, the corners' coordinates and the
    # edge product's operands, under 256 bytes a triangle. No part id is
    # stored: each part is found again from its edges' lower vertices.
    # The 8-byte keys of all 3T edges would not fit. At the default
    # _CHUNK the block loop sets the peak; at 1024 the part buffer and
    # its comparison masks do.
    monkeypatch.setattr("relieforge.mesh._KEYS", 1 << 17)
    monkeypatch.setattr("relieforge.mesh._CHUNK", chunk)
    mesh = close_solid(grid(np.random.default_rng(0).uniform(0.5, 3.0, size=(230, 230))))
    t = mesh.triangles
    parts = -(-3 * len(t) // (1 << 17))
    width = -(-len(mesh.vertices) // parts)
    largest = np.bincount((np.minimum(t, np.roll(t, -1, axis=1)) // width).ravel()).max()
    rep, peak = traced_peak(validate, mesh)
    assert rep.watertight and mesh.triangle_count == 107628 and parts == 3
    assert peak < 8 * largest + 256 * chunk


@pytest.mark.parametrize("side", [230, 460])
def test_close_solid_memory_is_bounded(side):
    # Beside the mesh it returns, close_solid holds masks of a few bytes
    # per sample and one band's temporaries: a handful of int64 index
    # arrays over the band's triangles, two a sample, under 96 bytes for
    # each of a band's _CHUNK samples. _top_triangles forms them before
    # the vertex array exists, so the peak over the mesh falls there
    # when the vertices take fewer bytes than a band's temporaries, as
    # at 230 (2.7 MiB), and otherwise where the vertices are filled, one
    # coordinate of the kept samples at a time, as at 460 (2.2 MiB). A
    # second copy of the triangles would not fit.
    g = grid(np.random.default_rng(0).uniform(0.5, 3.0, size=(side, side)))
    mesh, peak = traced_peak(close_solid, g)
    assert mesh.triangle_count == 2 * (side - 1) ** 2 + (4 * side - 6) + 8 * (side - 1)
    assert peak - (mesh.vertices.nbytes + mesh.triangles.nbytes) < 8 * side**2 + 96 * _CHUNK
