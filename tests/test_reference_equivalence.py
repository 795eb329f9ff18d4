"""The whole-array code paths against the loops and sorts they replaced.

read_stl and validate find vertex and edge identity by sorting integers,
read_stl one block of corners before the whole file, and validate
measures triangles coordinate by coordinate; close_solid finds identity
by grid index, with a top zipped row by row over the samples that flat
blocks do not hide and a base zipped from the rim, instead of the
oracle's cell split and mirrored copy of the grid; the ASCII STL writer
formats each distinct float32 once, and the ASCII parser matches one
pattern per facet and walks line by line only where that pattern stops;
the PGM decoder reads P2 samples in whole-array passes; the PNG decoder
undoes scanline filters one anti-diagonal at a time, and to_grayscale
reads integer codes a band of rows at a time instead of float samples. The
functions here are the earlier implementations -- np.unique over bit
rows and edge codes, np.cross and np.linalg.norm over (n, 3) rows, a
Python loop per facet, per line and per sample, whole float arrays --
kept as oracles; hypothesis checks that both give the same meshes,
counts, bytes, samples, gray and errors."""

import dataclasses
import io
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relieforge import image_io, stl_io
from relieforge import mesh as mesh_module
from relieforge.errors import GeometryError
from relieforge.heightfield import HeightGrid
from relieforge.image_io import PgmParseError, decode_pgm
from relieforge.mesh import (
    DEFAULT_MIN_FEATURE,
    TriangleMesh,
    close_solid,
    face_normals,
    validate,
)
from relieforge.stl_io import AsciiStlError, _parse_ascii, read_stl, write_ascii_stl

from conftest import (
    cells_outside,
    flat_blocks_reference,
    make_pgm,
    make_png,
    make_png_filtered,
    top_corners,
)

SETTINGS = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# Oracles


def weld_reference(soup: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bit weld of a (T, 3, 3) float32 soup by np.unique over uint32 rows.

    Adding +0.0 folds -0.0 into 0.0; the distinct rows come in the order
    of their (x, y, z) bits, which is the vertex numbering read_stl keeps.
    """
    rows = (soup + np.float32(0.0)).reshape(-1, 3).view(np.uint32)
    bits, inverse = np.unique(rows, axis=0, return_inverse=True)
    return bits, inverse.reshape(-1, 3)


def close_solid_reference(g: HeightGrid, base_z: float = 0.0) -> TriangleMesh:
    """close_solid as a full base grid, wall loops and a coordinate weld."""
    rows, cols, n = g.rows, g.cols, g.rows * g.cols

    def grid_vertices(z):
        xs = np.broadcast_to(g.x, (rows, cols))
        ys = np.broadcast_to(g.y[:, None], (rows, cols))
        return np.column_stack([xs.ravel(), ys.ravel(), np.asarray(z, dtype=np.float64).ravel()])

    def cell_triangles(flip):
        tris = []
        for r in range(rows - 1):
            for c in range(cols - 1):
                a = r * cols + c
                b, cc, d = a + 1, a + cols, a + cols + 1
                tris += [(a, d, b), (a, cc, d)] if flip else [(a, b, d), (a, d, cc)]
        return np.array(tris, dtype=np.int64)

    raw_vertices = np.vstack(
        [grid_vertices(g.heights), grid_vertices(np.full((rows, cols), float(base_z)))]
    )
    top = np.arange(n).reshape(rows, cols)
    base = top + n
    walls = []
    for c in range(cols - 1):  # south
        walls.append((base[0, c], base[0, c + 1], top[0, c + 1]))
        walls.append((base[0, c], top[0, c + 1], top[0, c]))
    for c in range(cols - 1):  # north
        walls.append((base[-1, c + 1], base[-1, c], top[-1, c]))
        walls.append((base[-1, c + 1], top[-1, c], top[-1, c + 1]))
    for r in range(rows - 1):  # west
        walls.append((base[r + 1, 0], base[r, 0], top[r, 0]))
        walls.append((base[r + 1, 0], top[r, 0], top[r + 1, 0]))
    for r in range(rows - 1):  # east
        walls.append((base[r, -1], base[r + 1, -1], top[r + 1, -1]))
        walls.append((base[r, -1], top[r + 1, -1], top[r, -1]))
    triangles = np.vstack(
        [cell_triangles(False), cell_triangles(True) + n, np.array(walls, dtype=np.int64)]
    )
    vertices, remap = np.unique(raw_vertices, axis=0, return_inverse=True)
    triangles = remap.reshape(-1)[triangles]
    v0, v1, v2 = (vertices[triangles[:, k]] for k in range(3))
    areas = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
    keep = areas >= DEFAULT_MIN_FEATURE * DEFAULT_MIN_FEATURE * 1e-6
    return TriangleMesh(vertices, triangles[keep], int(np.count_nonzero(~keep)))


def write_ascii_reference(mesh: TriangleMesh, name: str = "relieforge") -> bytes:
    """ASCII STL, one facet at a time, formatting every number on its own."""

    def fmt(value):
        return str(np.float32(value))

    corners = mesh.vertices[mesh.triangles]
    lines = [f"solid {name}"]
    for tri, normal in zip(corners, face_normals(corners)):
        lines.append("  facet normal " + " ".join(fmt(v) for v in normal))
        lines.append("    outer loop")
        for vertex in tri:
            lines.append("      vertex " + " ".join(fmt(v) for v in vertex))
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append(f"endsolid {name}")
    lines.append("")
    return "\n".join(lines).encode("ascii")


def parse_ascii_reference(data: bytes) -> np.ndarray:
    """The (T, 3, 3) float32 corners of ASCII STL text, read line by line."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise AsciiStlError("not decodable as ASCII text", line=data[: exc.start].count(b"\n") + 1)
    stream = ((n, raw.split()) for n, raw in enumerate(text.splitlines(), start=1) if raw.split())

    def take(last):
        try:
            return next(stream)
        except StopIteration:
            raise AsciiStlError("unexpected end of file inside solid", line=last) from None

    def expect(tokens, lineno, *words):
        if [w.lower() for w in tokens[: len(words)]] != list(words):
            raise AsciiStlError(f"expected '{' '.join(words)}', got '{' '.join(tokens)}'", line=lineno)

    def floats(tokens, lineno, start):
        if len(tokens) != start + 3:
            raise AsciiStlError(
                f"expected 3 numbers, got '{' '.join(tokens[start:])}'", line=lineno
            )
        out = []
        for tok in tokens[start:]:
            try:
                out.append(float(np.float32(tok)))
            except ValueError:
                raise AsciiStlError(f"bad number '{tok}'", line=lineno) from None
        return out

    lineno, tokens = take(0)
    expect(tokens, lineno, "solid")
    corners = []
    with np.errstate(over="ignore"):
        while True:
            lineno, tokens = take(lineno)
            if tokens[0].lower() == "endsolid":
                break
            expect(tokens, lineno, "facet", "normal")
            floats(tokens, lineno, 2)
            lineno, tokens = take(lineno)
            expect(tokens, lineno, "outer", "loop")
            for _ in range(3):
                lineno, tokens = take(lineno)
                expect(tokens, lineno, "vertex")
                xyz = floats(tokens, lineno, 1)
                if not np.isfinite(xyz).all():
                    raise AsciiStlError(
                        f"non-finite vertex '{' '.join(tokens[1:])}'", line=lineno
                    )
                corners.append(xyz)
            lineno, tokens = take(lineno)
            expect(tokens, lineno, "endloop")
            lineno, tokens = take(lineno)
            expect(tokens, lineno, "endfacet")
    for extra_lineno, extra in stream:
        raise AsciiStlError(f"content after endsolid: '{' '.join(extra)}'", line=extra_lineno)
    return np.asarray(corners, dtype=np.float32).reshape(-1, 3, 3)


def edge_counts_reference(t: np.ndarray, nv: int) -> dict:
    """Edge statistics from two np.unique passes over edge codes."""
    directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    self_loops = int(np.count_nonzero(directed[:, 0] == directed[:, 1]))
    _, dir_counts = np.unique(directed[:, 0] * nv + directed[:, 1], return_counts=True)
    und = np.sort(directed, axis=1)
    und_unique, und_counts = np.unique(und[:, 0] * nv + und[:, 1], return_counts=True)
    boundary = int(np.count_nonzero(und_counts == 1))
    nonmanifold = int(np.count_nonzero(und_counts > 2))
    return {
        "edge_count": len(und_unique),
        "boundary_edge_count": boundary,
        "nonmanifold_edge_count": nonmanifold,
        "repeated_edge_count": int(np.sum(dir_counts - 1)),
        "watertight": boundary == 0
        and nonmanifold == 0
        and not (dir_counts > 1).any()
        and self_loops == 0,
    }


# ---------------------------------------------------------------------------
# STL weld


def binary_stl(soup: np.ndarray) -> bytes:
    body = np.zeros((len(soup), 50), dtype=np.uint8)
    body[:, 12:48] = np.ascontiguousarray(soup, dtype="<f4").reshape(-1, 9).view(np.uint8)
    return b"\x00" * 80 + struct.pack("<I", len(soup)) + body.tobytes()


# Thirteen triangles around one corner, (1, 2, 3): at a chunk of 5 every
# block of records holds it, and its run of 13 equal keys crosses blocks
# of the sort order.
SHARED_CORNER = np.array(
    [[[1, 2, 3], [k, 0, 0], [0, k, 0]] for k in range(4, 17)], dtype=np.float32
)

# A small pool makes repeated corners likely; the open range covers the
# rest of the finite float32 line, subnormals included.
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-45, -3.4028235e38, 2.0**-126]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@SETTINGS
@given(
    st.integers(0, 24).flatmap(
        lambda t: st.tuples(
            arrays(np.float32, (t, 3, 3), elements=COORD), st.permutations(range(t))
        )
    ),
    st.sampled_from([5, stl_io._CHUNK]),
)
@example((SHARED_CORNER, list(range(13))[::-1]), 5)
def test_stl_weld_matches_unique(case, chunk):
    # A chunk of 5 reads most soups in several blocks and ranks the keys
    # 5 places of their sort order at a time, so runs of equal keys cross
    # blocks; the numbering is pinned to the (x, y, z) bit order whatever
    # the order of the triangles. The third pass writes one corner of
    # each vertex, whichever block holds it.
    soup, order = case
    for triangles in (soup, soup[np.array(order, dtype=np.intp)]):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stl_io, "_CHUNK", chunk)
            mesh = read_stl(binary_stl(triangles))
        ref_bits, ref_triangles = weld_reference(triangles)
        assert np.array_equal(mesh.vertices.astype(np.float32).view(np.uint32), ref_bits)
        assert np.array_equal(mesh.triangles, ref_triangles)
        assert np.array_equal(mesh.vertices[mesh.triangles], triangles)


def test_stl_weld_merges_signed_zeros():
    soup = np.array([[[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]], dtype=np.float32)
    mesh = read_stl(binary_stl(soup))
    assert len(mesh.vertices) == 2
    assert mesh.triangles[0, 0] == mesh.triangles[0, 1]
    assert not np.signbit(mesh.vertices).any()
    # Every corner of vertex (-0, -0, -0) carries the sign, so whichever
    # corner the third pass writes, the fold must clear it there.
    soup = np.array([[[-0.0, -0.0, -0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]] * 2, dtype=np.float32)
    mesh = read_stl(binary_stl(soup))
    assert len(mesh.vertices) == 3
    assert not np.signbit(mesh.vertices).any()


# ---------------------------------------------------------------------------
# close_solid


@st.composite
def grids(draw):
    rows = draw(st.integers(2, 7))
    cols = draw(st.integers(2, 7))
    base_z = draw(st.sampled_from([0.0, 0.75, 3.0]))
    # Offsets of 0 put plateaus on the base plane, whose walls collapse.
    levels = st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5])
    offsets = draw(arrays(np.float64, (rows, cols), elements=levels))
    steps = st.sampled_from([0.1, 0.5, 1.0, 3.0])
    x = np.cumsum(draw(arrays(np.float64, cols, elements=steps))) - 0.1
    y = np.cumsum(draw(arrays(np.float64, rows, elements=steps)))
    return HeightGrid(base_z + offsets, x, y), base_z


def thin(shape):
    heights = np.arange(shape[0] * shape[1], dtype=float).reshape(shape) % 3
    return HeightGrid.from_spacing(heights, dx=0.5, dy=2.0), 0.0


def plateau(shape, low_corner):
    heights = np.ones(shape)
    heights[:low_corner, :low_corner] = 0.0
    return HeightGrid.from_spacing(heights, dx=0.5, dy=2.0), 0.0


def triangle_rows(corners: np.ndarray) -> list:
    return sorted(tri.tobytes() for tri in corners)


@SETTINGS
@given(grids())
@example(thin((2, 2)))
@example(thin((2, 6)))
@example(thin((6, 2)))
@example(plateau((5, 6), 3))
@example(plateau((9, 7), 1))
def test_close_solid_matches_coordinate_weld(case):
    # The row zip inside flat blocks and the zipper base differ from the
    # oracle's cell split and mirrored base. The cells outside every
    # block and the walls are the same, the blocks are covered flat and
    # facing +Z by triangles on two neighbouring grid lines, the base
    # covers the footprint facing -Z, and no grid that the oracle closes
    # is left open.
    g, base_z = case
    if not (g.heights > base_z).any():
        with pytest.raises(GeometryError, match="no volume"):
            close_solid(g, base_z=base_z)
        return
    mesh = close_solid(g, base_z=base_z)
    ref = close_solid_reference(g, base_z=base_z)
    assert mesh.degenerate_skipped == ref.degenerate_skipped
    blocks, hidden = flat_blocks_reference(g.heights, base_z)
    r, _, in_block = top_corners(mesh, blocks, hidden)
    assert np.all(r.max(axis=1) - r.min(axis=1) == 1)
    cells = 2 * (g.rows - 1) * (g.cols - 1)
    zipped = 2 * (g.rows + g.cols) - 6
    top, base, walls = np.split(
        mesh.vertices[mesh.triangles], [len(in_block), len(in_block) + zipped]
    )
    ref_corners = ref.vertices[ref.triangles]
    outside = cells_outside(blocks, g.rows, g.cols)
    ref_top = ref_corners[:cells].reshape(-1, 2, 3, 3)[outside.ravel()]
    assert top[~in_block].tobytes() == ref_top.tobytes()
    assert triangle_rows(walls) == triangle_rows(ref_corners[2 * cells :])
    block = top[in_block]
    block_area = 0.5 * np.cross(block[:, 1] - block[:, 0], block[:, 2] - block[:, 0])[:, 2]
    block_footprint = sum(
        (g.x[c + side] - g.x[c]) * (g.y[r + side] - g.y[r]) for r, c, side in blocks
    )
    assert block_area.sum() == pytest.approx(block_footprint, rel=1e-12, abs=0.0)
    assert np.all(block_area > 0)
    assert np.all(block[:, :, 2] == block[:, :1, 2])
    assert np.array_equal(face_normals(block), np.tile([0.0, 0.0, 1.0], (len(block), 1)))
    assert np.all(base[:, :, 2] == base_z)
    assert np.array_equal(face_normals(base), np.tile([0.0, 0.0, -1.0], (zipped, 1)))
    area = 0.5 * np.linalg.norm(np.cross(base[:, 1] - base[:, 0], base[:, 2] - base[:, 0]), axis=1)
    footprint = (g.x[-1] - g.x[0]) * (g.y[-1] - g.y[0])
    assert area.sum() == pytest.approx(footprint, rel=1e-12)
    rep, ref_rep = validate(mesh), validate(ref)
    assert rep.watertight or not ref_rep.watertight
    if rep.watertight:
        assert rep.euler_characteristic == 2
        assert rep.signed_volume == pytest.approx(ref_rep.signed_volume, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# validate


def report_counts(mesh: TriangleMesh) -> dict:
    rep = validate(mesh)
    return {
        "edge_count": rep.edge_count,
        "boundary_edge_count": rep.boundary_edge_count,
        "nonmanifold_edge_count": rep.nonmanifold_edge_count,
        "repeated_edge_count": rep.repeated_edge_count,
        "watertight": rep.watertight,
    }


def box() -> TriangleMesh:
    return close_solid(HeightGrid.from_spacing(np.full((3, 3), 2.0)))


def mutated(kind: str) -> TriangleMesh:
    m = box()
    t = m.triangles.copy()
    if kind == "hole":
        t = t[:-1]
    elif kind == "nonmanifold_fan":
        # A third face on the edge (t[0,0], t[0,1]), through a fresh apex.
        apex = len(m.vertices)
        vertices = np.vstack([m.vertices, [[0.5, 0.5, 9.0]]])
        return TriangleMesh(vertices, np.vstack([t, [[t[0, 0], t[0, 1], apex]]]))
    elif kind == "directed_dup":
        t[0] = t[0, ::-1]  # every edge still used twice, one pair same way
    elif kind == "self_loop":
        t[0, 1] = t[0, 0]
    elif kind == "duplicate_face":
        t = np.vstack([t, t[:1]])
    return TriangleMesh(m.vertices, t)


@pytest.mark.parametrize(
    "kind", ["closed", "hole", "nonmanifold_fan", "directed_dup", "self_loop", "duplicate_face"]
)
def test_validate_defects_match_reference(kind):
    mesh = mutated(kind)
    expected = edge_counts_reference(mesh.triangles, len(mesh.vertices))
    assert report_counts(mesh) == expected
    assert expected["watertight"] == (kind == "closed")


@pytest.mark.parametrize("uses", [1, 2, 3, 4, 5])
def test_validate_edge_used_n_times_matches_reference(uses):
    # A fan of triangles on the edge 0-1, alternately wound: that edge is
    # a run of `uses` keys, and each fan edge to an apex a run of one.
    triangles = np.array([(0, 1, 2 + i) if i % 2 == 0 else (1, 0, 2 + i) for i in range(uses)])
    nv = 2 + uses
    mesh = TriangleMesh(np.random.default_rng(uses).uniform(size=(nv, 3)), triangles)
    counts = report_counts(mesh)
    assert counts == edge_counts_reference(triangles, nv)
    assert counts["edge_count"] == 1 + 2 * uses
    assert counts["boundary_edge_count"] == 2 * uses + (uses == 1)
    assert counts["nonmanifold_edge_count"] == (uses >= 3)


@st.composite
def index_meshes(draw):
    # Few vertices and many faces: holes, fans, repeats and loops abound.
    nv = draw(st.integers(1, 9))
    shape = (draw(st.integers(1, 30)), 3)
    return nv, draw(arrays(np.int64, shape, elements=st.integers(0, nv - 1)))


@SETTINGS
@given(index_meshes())
def test_validate_random_index_meshes_match_reference(case):
    nv, triangles = case
    mesh = TriangleMesh(np.random.default_rng(nv).uniform(size=(nv, 3)), triangles)
    assert report_counts(mesh) == edge_counts_reference(triangles, nv)


@SETTINGS
@given(index_meshes())
@example((3, np.zeros((0, 3), dtype=np.int64)))  # empty
@example((4, np.array([[0, 1, 2], [0, 2, 3]])))  # open
@example((4, np.array([[0, 1, 2]] + [[1, 3, 2]] * 4 + [[0, 1, 3]])))  # 0->1 in blocks 0 and 1
@example((2, np.array([[0, 0, 1], [1, 0, 1]])))  # self-loop
def test_validate_blocks_change_no_result(case):
    nv, triangles = case
    mesh = TriangleMesh(np.random.default_rng(nv).uniform(size=(nv, 3)), triangles)
    expected = edge_counts_reference(triangles, nv)
    expected["watertight"] &= len(triangles) > 0  # validate also asks for a triangle
    one = validate(mesh)  # at most 30 triangles: one block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_CHUNK", 5)
        assert report_counts(mesh) == expected
        blocks = validate(mesh)
    assert blocks.degenerate_count == one.degenerate_count
    assert blocks.signed_volume == pytest.approx(one.signed_volume, rel=1e-12, abs=1e-12)
    assert blocks.surface_area == pytest.approx(one.surface_area, rel=1e-12, abs=1e-12)


@st.composite
def wide_index_meshes(draw):
    # index_meshes' defects on up to 300 triangles whose corners come from
    # a pool of at most 40 vertex ids out of 257 to 600: one key a part
    # makes more parts than a byte can number.
    nv = draw(st.integers(257, 600))
    pool = draw(st.lists(st.integers(0, nv - 1), min_size=1, max_size=40, unique=True))
    shape = (draw(st.integers(1, 300)), 3)
    return nv, draw(arrays(np.int64, shape, elements=st.sampled_from(pool)))


def report_fields(rep) -> dict:
    return {
        k: v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in dataclasses.asdict(rep).items()
    }


@SETTINGS
@given(st.one_of(index_meshes(), wide_index_meshes()), st.sampled_from([3, mesh_module._CHUNK]))
@example((600, np.arange(900).reshape(300, 3) % 600), mesh_module._CHUNK)  # 600 parts
@example((3, np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 1, 2]])), 3)  # a face again, a block on
@example((40, np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])), 3)  # no edges in the top parts
@example((40, np.array([[0, 38, 1], [0, 1, 39], [0, 39, 38], [1, 38, 39]])), 3)  # none in the middle
def test_validate_parts_change_no_report_field(case, chunk):
    # Up to 900 keys: one part at the default _KEYS. A _KEYS of 1 gives a
    # part per vertex, a prime parts of a few vertices, and a _CHUNK of 3
    # triangles gathers each part from many blocks.
    nv, triangles = case
    mesh = TriangleMesh(np.random.default_rng(nv).uniform(size=(nv, 3)), triangles)
    expected = edge_counts_reference(triangles, nv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_CHUNK", chunk)
        one = report_fields(validate(mesh))
        for keys in (1, 7):
            mp.setattr(mesh_module, "_KEYS", keys)
            assert report_fields(validate(mesh)) == one
            assert report_counts(mesh) == expected


def geometry_reference(mesh: TriangleMesh) -> tuple[float, float, int]:
    """Area, volume and degenerate count from (n, 3) corner rows in one sum."""
    v0, v1, v2 = (mesh.vertices[mesh.triangles[:, k]] for k in range(3))
    areas = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
    volume = float(np.einsum("ij,ij->", v0, np.cross(v1 - v0, v2 - v0))) / 6.0
    floor = DEFAULT_MIN_FEATURE * DEFAULT_MIN_FEATURE * 1e-6
    degenerate = int(np.count_nonzero(areas < floor)) + mesh.degenerate_skipped
    return float(areas.sum()), volume, degenerate


def normals_reference(corners: np.ndarray) -> np.ndarray:
    """face_normals by np.cross and np.linalg.norm over (n, 3) rows."""
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    norms = np.linalg.norm(cross, axis=1, keepdims=True)
    return cross / np.where(norms == 0.0, 1.0, norms)


def assert_geometry_exact(mesh: TriangleMesh) -> None:
    rep = validate(mesh)
    assert mesh.triangle_count <= mesh_module._CHUNK  # one block: one sum
    assert (rep.surface_area, rep.signed_volume, rep.degenerate_count) == geometry_reference(mesh)
    corners = mesh.vertices[mesh.triangles]
    assert np.array_equal(face_normals(corners), normals_reference(corners))


def blockwise_reference(mesh: TriangleMesh) -> tuple[float, float, int]:
    """Area, volume and degenerate count from whole-block arrays, summed per _CHUNK.

    Each block of _CHUNK triangles gathers its corners whole, as (n, 3)
    rows, and adds one sum of its areas and one einsum of its volume
    terms; validate forms the same terms coordinate by coordinate.
    """
    floor = DEFAULT_MIN_FEATURE * DEFAULT_MIN_FEATURE * 1e-6
    area = volume6 = 0.0
    degenerate = mesh.degenerate_skipped
    for lo in range(0, mesh.triangle_count, mesh_module._CHUNK):
        block = mesh.triangles[lo : lo + mesh_module._CHUNK]
        v0, v1, v2 = (mesh.vertices[block[:, k]] for k in range(3))
        areas = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
        degenerate += int(np.count_nonzero(areas < floor))
        area += float(areas.sum())
        volume6 += float(np.einsum("ij,ij->", v0, np.cross(v1 - v0, v2 - v0)))
    return area, volume6 / 6.0, degenerate


# Triangle counts on either side of one and two blocks.
_CHUNK = mesh_module._CHUNK
BLOCK_EDGE_COUNTS = [n + d for n in (1, _CHUNK, 2 * _CHUNK) for d in (-1, 0, 1) if n + d > 0]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(BLOCK_EDGE_COUNTS),
    st.integers(3, 5000),
    st.sampled_from([1.0, 1e-7, 1e6]),
    st.integers(0, 2**32 - 1),
)
def test_validate_matches_whole_blocks(count, nv, spread, seed):
    # Bit-identical, not approximate: validate's column-wise terms sum
    # to the whole (n, 3) blocks' sums.
    rng = np.random.default_rng(seed)
    mesh = TriangleMesh(rng.normal(scale=spread, size=(nv, 3)), rng.integers(0, nv, (count, 3)))
    rep = validate(mesh)
    assert (rep.surface_area, rep.signed_volume, rep.degenerate_count) == blockwise_reference(mesh)
    assert report_counts(mesh) == edge_counts_reference(mesh.triangles, nv)


@SETTINGS
@given(index_meshes(), st.sampled_from([1.0, 1e-7, 1e6]), st.integers(0, 2**32 - 1))
def test_validate_geometry_is_exact(case, spread, seed):
    # Exact, not approximate: the column-wise cross product and length do
    # the same IEEE operations as np.cross and np.linalg.norm.
    nv, triangles = case
    vertices = np.random.default_rng(seed).normal(scale=spread, size=(nv, 3))
    assert_geometry_exact(TriangleMesh(vertices, triangles))


@SETTINGS
@given(grids())
def test_validate_geometry_is_exact_on_solids(case):
    g, base_z = case
    if (g.heights > base_z).any():
        assert_geometry_exact(close_solid(g, base_z=base_z))


# ---------------------------------------------------------------------------
# ASCII STL writer


# Signed zeros, subnormals, repeats, the float32 edge and values that
# round to it or past it (those print as inf).
ASCII_COORD = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 0.1, 1e-45, -1e-40, 2.0**-126, 3.4028235e38, -3.4028235e38,
         3.4028235677973366e38, 1e39, 123456.789]
    ),
    st.floats(-1e6, 1e6),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@st.composite
def soup_meshes(draw, min_triangles=0, max_triangles=12):
    nv = draw(st.integers(1, 8))
    vertices = draw(arrays(np.float64, (nv, 3), elements=ASCII_COORD))
    count = draw(st.integers(min_triangles, max_triangles))
    triangles = draw(arrays(np.int64, (count, 3), elements=st.integers(0, nv - 1)))
    return TriangleMesh(vertices, triangles)


@SETTINGS
@given(soup_meshes(), st.sampled_from(["relieforge", "x", ""]))
def test_ascii_writer_matches_reference(mesh, name):
    buf = io.BytesIO()
    with np.errstate(over="ignore", invalid="ignore"):
        written = write_ascii_stl(mesh, buf, name=name)
        expected = write_ascii_reference(mesh, name=name)
    assert buf.getvalue() == expected
    assert written == len(expected)


def test_ascii_writer_spans_blocks():
    g = HeightGrid.from_spacing(np.random.default_rng(5).uniform(0.5, 3.0, size=(120, 150)))
    mesh = close_solid(g)
    assert mesh.triangle_count > 1 << 15  # more than one formatting block
    buf = io.BytesIO()
    write_ascii_stl(mesh, buf)
    assert buf.getvalue() == write_ascii_reference(mesh)


# ---------------------------------------------------------------------------
# ASCII STL parser


BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"]
BLANKS = ["", " ", "\t", "  \x1f "]
WORDS = ["squid", "1_0", "_1", "nan", "-inf", "Infinity", "1e39", "-1e39", "3.4028236e38",
         "1e-46", "0x1", "1e", "+.5", "1.", "1\x00", "endsolid", "vertex", "1 2"]


@st.composite
def mutated_ascii(draw):
    mesh = draw(soup_meshes(min_triangles=1, max_triangles=4))
    with np.errstate(over="ignore", invalid="ignore"):
        lines = write_ascii_reference(mesh).decode("ascii").split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["delete", "duplicate", "swap", "blank", "upper", "extra", "drop", "number", "number",
             "cut", "trail"]
        ))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(BLANKS)))
        elif kind == "upper":
            lines[i] = draw(st.sampled_from([str.upper, str.swapcase, str.title]))(lines[i])
        elif kind == "extra":
            lines[i] += draw(st.sampled_from([" 1", " junk", "\t0.5 0.5", "\x1fx"]))
        elif kind == "drop":
            lines[i] = lines[i].rsplit(None, 1)[0] if lines[i].split() else lines[i]
        elif kind == "number":
            tokens = lines[i].split()
            if tokens:
                k = draw(st.integers(0, len(tokens) - 1))
                tokens[k] = draw(st.sampled_from(WORDS))
                lines[i] = " ".join(tokens)
        elif kind == "cut":
            del lines[i + 1 :]
        elif kind == "trail":
            lines.append(draw(st.sampled_from(["", "junk", "solid again"])))
    if draw(st.booleans()):
        text = draw(st.sampled_from(BREAKS)).join(lines)
    else:
        text = "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)
    data = text.encode("ascii")
    if draw(st.integers(0, 19)) == 19:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data


def outcome(parse, data):
    try:
        return parse(data)
    except AsciiStlError as exc:
        return exc


@settings(max_examples=600, deadline=None)
@given(mutated_ascii())
@example(b"")
@example(b"solid")
@example(b"solid x\n")
@example(b"solid x\nendsolid x\n  \nendsolid x\n")
@example(b"solid x\r\n\r\nendsolid\r")
@example(b"SOLID x\nEndSolid")
@example(b"solidx\nendsolid x\n")
@example(b"solid\x00\nendsolid\n")
@example(b"solid x\nendsolidx\nendsolid\n")  # keyword prefix of a longer word
@example(b"solid x\nfacet normal squid 0 0\n")  # first number is the bad one
def test_ascii_parser_matches_reference(data):
    expected = outcome(parse_ascii_reference, data)
    got = outcome(_parse_ascii, data)
    if isinstance(expected, AsciiStlError):
        assert isinstance(got, AsciiStlError), got
        assert (got.line, str(got)) == (expected.line, str(expected))
    else:
        assert not isinstance(got, AsciiStlError), got
        soup = got.vertices[got.triangles]
        assert np.array_equal(soup, expected.astype(np.float64))


def test_ascii_parser_long_and_nul_tokens():
    # Long tokens get their own field width; a NUL in a number is an error.
    head = "solid t\nfacet normal 0 0 1\nouter loop\n"
    tail = "endloop\nendfacet\nendsolid t\n"
    long_number = "0." + "0" * 5000 + "1"
    for body, line in [
        (f"vertex {long_number} 0 0\nvertex 1 0 0\nvertex 0 1 0\n", None),
        ("vertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\x00\n", 6),
        (f"vertex 0 0 0\nvertex 1 0 {'9' * 60}\nvertex 0 1 0\n", 5),
        # 16 bytes with a trailing NUL: its field must still end in a space.
        ("vertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0.0000000000001\x00\n", 6),
    ]:
        data = (head + body + tail).encode("ascii")
        expected, got = outcome(parse_ascii_reference, data), outcome(_parse_ascii, data)
        if line is None:
            assert np.array_equal(got.vertices[got.triangles], expected.astype(np.float64))
        else:
            assert got.line == expected.line == line
            assert str(got) == str(expected)


# ---------------------------------------------------------------------------
# P2 samples


def decode_p2_reference(data: bytes) -> np.ndarray:
    """P2 samples as int64, read one token at a time."""
    width, _, pos = image_io._read_int(data, 2, "width")
    height, _, pos = image_io._read_int(data, pos, "height")
    maxval, _, pos = image_io._read_int(data, pos, "maxval")
    count = width * height
    raw = np.empty(count, dtype=np.int64)
    for i in range(count):
        try:
            tok, start, pos = image_io._read_token(data, pos, f"sample {i}")
        except PgmParseError:
            raise PgmParseError(
                f"truncated pixel data: expected {count} samples, found {i}", len(data)
            ) from None
        if not tok.isdigit():
            raise PgmParseError(f"malformed sample: {tok!r}", start)
        if int(tok) > maxval:
            raise PgmParseError(f"sample {int(tok)} exceeds maxval {maxval}", start)
        raw[i] = int(tok)
    return raw


P2_PIECES = ["0", "7", "255", "256", "007", "000300", "1" * 7, "x", "-1", "1a", "#c", "#\n",
             " ", "\t", "\n", "\r", "\v", "\f", "\x1c"]


@SETTINGS
@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([1, 255, 300]),
    st.lists(st.sampled_from(P2_PIECES), max_size=30),
)
def test_p2_samples_match_reference(width, height, maxval, pieces):
    data = f"P2 {width} {height} {maxval}\n".encode() + " ".join(pieces).encode()
    try:
        expected = decode_p2_reference(data)
    except PgmParseError as exc:
        with pytest.raises(PgmParseError) as got:
            decode_pgm(data)
        assert (str(got.value), got.value.offset) == (str(exc), exc.offset)
    else:
        got = decode_pgm(data).samples.reshape(-1)
        assert np.array_equal(got, expected / maxval)


# ---------------------------------------------------------------------------
# PNG scanlines


def unfilter_reference(raw: bytes, width: int, height: int, nch: int) -> bytearray:
    """PNG scanlines unfiltered one byte at a time (RFC 2083 section 6)."""

    def paeth(a, b, c):
        p = a + b - c
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        if pa <= pb and pa <= pc:
            return a
        if pb <= pc:
            return b
        return c

    stride = width * nch
    out = bytearray(height * stride)
    prev_row = bytes(stride)
    for r in range(height):
        ftype = raw[r * (1 + stride)]
        row = bytearray(raw[r * (1 + stride) + 1 : (r + 1) * (1 + stride)])
        if ftype == 0:
            pass
        elif ftype == 1:  # Sub
            for i in range(nch, stride):
                row[i] = (row[i] + row[i - nch]) & 0xFF
        elif ftype == 2:  # Up
            for i in range(stride):
                row[i] = (row[i] + prev_row[i]) & 0xFF
        elif ftype == 3:  # Average
            for i in range(stride):
                left = row[i - nch] if i >= nch else 0
                row[i] = (row[i] + (left + prev_row[i]) // 2) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(stride):
                left = row[i - nch] if i >= nch else 0
                upleft = prev_row[i - nch] if i >= nch else 0
                row[i] = (row[i] + paeth(left, prev_row[i], upleft)) & 0xFF
        else:
            raise image_io.PngParseError(f"unknown scanline filter type {ftype}", 0)
        out[r * stride : (r + 1) * stride] = row
        prev_row = bytes(row)
    return out


def samples_reference(pixels: np.ndarray, color_type: int, maxval: int = 255) -> np.ndarray:
    """A raster's samples from (h, w, nch) codes, through full float arrays."""
    arr = pixels.astype(np.float64) / maxval
    if color_type in (0, 2):
        return arr
    if color_type == 4:
        a = arr[:, :, 1:2]
        return arr[:, :, 0:1] * a + (1.0 - a)
    a = arr[:, :, 3:4]
    return arr[:, :, 0:3] * a + (1.0 - a)


def gray_reference(samples: np.ndarray) -> np.ndarray:
    """to_grayscale's values from float samples: gray as is, RGB by Rec. 601 luma."""
    if samples.shape[2] == 1:
        return samples[:, :, 0]
    r, g, b = samples[:, :, 0], samples[:, :, 1], samples[:, :, 2]
    return 0.299 * r + (0.587 * g + 0.114 * b)


def assert_bitwise(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype == np.float64 and got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@st.composite
def filtered_scanlines(draw, max_side=12, channels=(1, 2, 3, 4)):
    # Random stored bytes under an independent filter type per row.
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    nch = draw(st.sampled_from(channels))
    rows = [
        (draw(st.integers(0, 4)), draw(st.binary(min_size=width * nch, max_size=width * nch)))
        for _ in range(height)
    ]
    return width, height, nch, rows


def scanlines(rows) -> bytes:
    return b"".join(bytes([ftype]) + stored for ftype, stored in rows)


@SETTINGS
@given(filtered_scanlines())
@example((12, 1, 4, [(1, bytes(range(48)))]))
@example((1, 12, 3, [(k % 5, bytes([200, 100, 50])) for k in range(12)]))
# Every filter type over step-width diagonals: one row of each, below a
# row of another type.
@example((2, 5, 4, [(k, bytes(range(37 * k, 37 * k + 8))) for k in range(5)]))
@example((3, 5, 3, [(4 - k, bytes(range(255 - 41 * k, 246 - 41 * k, -1))) for k in range(5)]))
def test_unfilter_matches_reference(case):
    width, height, nch, rows = case
    raw = scanlines(rows)
    got = image_io._unfilter(raw, width, height, nch)
    assert got.dtype == np.uint8 and got.shape == (height, width, nch)
    assert got.tobytes() == bytes(unfilter_reference(raw, width, height, nch))


@SETTINGS
@given(st.sampled_from([0, 2, 4, 6]), st.data())
def test_png_samples_match_float_reference(color_type, data):
    case = filtered_scanlines(max_side=6, channels=[image_io._CHANNELS[color_type]])
    width, height, nch, rows = data.draw(case)
    raw = scanlines(rows)
    pixels = np.frombuffer(unfilter_reference(raw, width, height, nch), dtype=np.uint8)
    expected = samples_reference(pixels.reshape(height, width, nch), color_type)
    raster = image_io.decode_png(make_png_filtered(width, height, color_type, rows))
    assert raster.pixels.tobytes() == pixels.tobytes()
    assert_bitwise(raster.samples, expected)
    assert_bitwise(image_io.to_grayscale(raster).values, gray_reference(expected))


@pytest.mark.parametrize("color_type", [4, 6])
def test_png_gray_covers_every_code_and_alpha(color_type):
    # Pixel (v, a) holds color v (blue 7v mod 256, a permutation) under
    # alpha a, so every pair of color and alpha code is composited once.
    v, a = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    planes = [v] if color_type == 4 else [v, 255 - v, 7 * v % 256]
    pixels = np.stack(planes + [a], axis=2).astype(np.uint8)
    raster = image_io.decode_png(make_png(pixels, color_type))
    expected = samples_reference(pixels, color_type)
    assert_bitwise(raster.samples, expected)
    assert_bitwise(image_io.to_grayscale(raster).values, gray_reference(expected))


@st.composite
def pgm_codes(draw):
    maxval = draw(st.one_of(st.integers(1, 300), st.integers(1, 65535)))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    codes = draw(arrays(np.int64, shape, elements=st.integers(0, maxval)))
    return codes, maxval


@SETTINGS
@given(pgm_codes(), st.booleans())
def test_pgm_samples_and_gray_match_float_reference(case, ascii_format):
    codes, maxval = case
    raster = decode_pgm(make_pgm(codes, maxval, ascii_format))
    assert raster.pixels.dtype == (np.uint8 if maxval < 256 else np.uint16)
    expected = samples_reference(codes[:, :, None], 0, maxval)
    assert_bitwise(raster.samples, expected)
    assert_bitwise(image_io.to_grayscale(raster).values, gray_reference(expected))
