"""The integer-keyed welds against the coordinate-sorting code they replaced.

read_stl, close_solid and validate find vertex and edge identity by
sorting integers. The functions here are the earlier implementations,
which found it with np.unique over float rows and edge codes; they stay
as oracles, and hypothesis checks that both give the same meshes and
counts.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relieforge.heightfield import HeightGrid
from relieforge.mesh import DEFAULT_MIN_FEATURE, TriangleMesh, close_solid, validate
from relieforge.stl_io import read_stl

SETTINGS = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# Oracles


def weld_reference(soup: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate weld of a (T, 3, 3) soup by np.unique over float rows."""
    vertices, inverse = np.unique(
        soup.reshape(-1, 3).astype(np.float64), axis=0, return_inverse=True
    )
    return vertices, inverse.reshape(-1, 3)


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


# A small pool makes repeated corners likely; the open range covers the
# rest of the finite float32 line, subnormals included.
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-45, -3.4028235e38, 2.0**-126]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@SETTINGS
@given(st.integers(1, 24).flatmap(lambda t: arrays(np.float32, (t, 3, 3), elements=COORD)))
def test_stl_weld_matches_unique(soup):
    mesh = read_stl(binary_stl(soup))
    ref_vertices, ref_triangles = weld_reference(soup)
    assert len(mesh.vertices) == len(ref_vertices)
    assert np.array_equal(mesh.vertices[mesh.triangles], ref_vertices[ref_triangles])
    assert np.array_equal(mesh.vertices[mesh.triangles], soup)


def test_stl_weld_merges_signed_zeros():
    soup = np.array([[[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]], dtype=np.float32)
    mesh = read_stl(binary_stl(soup))
    assert len(mesh.vertices) == 2
    assert mesh.triangles[0, 0] == mesh.triangles[0, 1]
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


@SETTINGS
@given(grids())
@example(thin((2, 2)))
@example(thin((2, 6)))
@example(thin((6, 2)))
def test_close_solid_matches_coordinate_weld(case):
    g, base_z = case
    mesh = close_solid(g, base_z=base_z)
    ref = close_solid_reference(g, base_z=base_z)
    assert len(mesh.vertices) == len(ref.vertices)
    assert mesh.degenerate_skipped == ref.degenerate_skipped
    assert mesh.vertices[mesh.triangles].tobytes() == ref.vertices[ref.triangles].tobytes()


# ---------------------------------------------------------------------------
# validate


def report_counts(mesh: TriangleMesh) -> dict:
    rep = validate(mesh)
    return {
        "edge_count": rep.edge_count,
        "boundary_edge_count": rep.boundary_edge_count,
        "nonmanifold_edge_count": rep.nonmanifold_edge_count,
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
