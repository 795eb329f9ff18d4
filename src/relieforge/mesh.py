"""Heightfield tessellation, solidification, and mesh measurement.

The top surface splits every cell along its (r,c)->(r+1,c+1) diagonal in
a fixed row-major order, so output is deterministic and a closed-form
prism-sum volume oracle exists. close_solid closes that surface with a
flat base triangulated from the rim alone and perimeter walls, forming a
watertight, outward-oriented solid. Its vertex identity comes from the
grid indices, not from comparing coordinates: sample (r, c) is vertex
r*cols + c, and a rim sample has a base corner of its own only where it
stands above the base plane, so a wall triangle collapses exactly when
two of its corner indices coincide. validate measures any mesh without
modifying it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .heightfield import FLOAT32_MAX, HeightGrid

__all__ = [
    "TriangleMesh",
    "MeshReport",
    "InvertedSolidError",
    "DEFAULT_MIN_FEATURE",
    "face_normals",
    "tessellate_top",
    "close_solid",
    "validate",
    "analytic_volume",
]

#: Smallest printable feature size in mm; validate counts triangles
#: below the derived area floor as degenerate.
DEFAULT_MIN_FEATURE = 0.001


class InvertedSolidError(GeometryError):
    """A height below the base plane would turn the solid inside out."""


@dataclass
class TriangleMesh:
    """Indexed triangle mesh.

    Winding is counter-clockwise seen from outside, so the
    face_normals() of a closed solid point out of it.
    ``degenerate_skipped`` counts the wall triangles close_solid leaves
    out because they collapse where the rim lies on the base plane;
    parsers leave it 0.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    degenerate_skipped: int = 0

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3))
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3))
        if len(t) and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle index out of range")
        self.vertices, self.triangles = v, t

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    def corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-triangle corner coordinates (v0, v1, v2), each (T, 3)."""
        return (
            self.vertices[self.triangles[:, 0]],
            self.vertices[self.triangles[:, 1]],
            self.vertices[self.triangles[:, 2]],
        )


@dataclass
class MeshReport:
    """Validation and measurement summary for one mesh."""

    vertex_count: int
    triangle_count: int
    edge_count: int
    euler_characteristic: int
    watertight: bool
    signed_volume: float
    surface_area: float
    bbox_min: np.ndarray
    bbox_max: np.ndarray
    degenerate_count: int
    boundary_edge_count: int
    nonmanifold_edge_count: int


def _triangle_cross(v0: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    return np.cross(v1 - v0, v2 - v0)


def face_normals(corners: np.ndarray) -> np.ndarray:
    """Unit normals by the right-hand rule over (T, 3, 3) corners.

    Zero-area triangles get a zero normal instead of NaN.
    """
    cross = _triangle_cross(corners[:, 0], corners[:, 1], corners[:, 2])
    norms = np.linalg.norm(cross, axis=1, keepdims=True)
    return cross / np.where(norms == 0.0, 1.0, norms)


def _grid_vertices(g: HeightGrid, z: np.ndarray) -> np.ndarray:
    xs = np.broadcast_to(g.x, (g.rows, g.cols))
    ys = np.broadcast_to(g.y[:, None], (g.rows, g.cols))
    return np.column_stack([xs.ravel(), ys.ravel(), np.asarray(z, dtype=np.float64).ravel()])


def _cell_triangles(rows: int, cols: int) -> np.ndarray:
    """Index triples for the grid surface, row-major cells, 2 per cell.

    Per cell with corners A=(r,c), B=(r,c+1), C=(r+1,c), D=(r+1,c+1) the
    diagonal is A-D; emission order is (A,B,D) then (A,D,C), which winds
    counter-clockwise seen from +Z.
    """
    r = np.arange(rows - 1).repeat(cols - 1)
    c = np.tile(np.arange(cols - 1), rows - 1)
    a = r * cols + c
    d = a + cols + 1
    return np.stack([a, a + 1, d, a, d, a + cols], axis=1).reshape(-1, 3)


def tessellate_top(g: HeightGrid) -> TriangleMesh:
    """Triangulate the height surface alone (open, not printable).

    One vertex per sample at (x[c], y[r], h[r,c]); normals face +Z-ward.
    """
    return TriangleMesh(_grid_vertices(g, g.heights), _cell_triangles(g.rows, g.cols))


def close_solid(g: HeightGrid, base_z: float = 0.0) -> TriangleMesh:
    """Close the height surface into a printable solid.

    Sample (r, c) is top vertex r*cols + c. The base at z = base_z
    triangulates the rim polygon alone by zipping two rim chains that
    run from the SW to the NE corner: ``a`` along the south row and up
    the east column, ``b`` up the west column and along the north row.
    Each has n = rows + cols - 2 edges, and the strip (a[k], b[k-1], b[k]),
    (a[k], b[k], a[k+1]) for 1 <= k <= n-1 gives 2(rows + cols) - 6
    triangles facing -Z. A rim sample's base corner is that same vertex
    where h == base_z, and otherwise a vertex of its own, numbered after
    the top ones in row-major order; interior samples have none. Walls
    join the two rims along the same chains. A wall triangle with a
    repeated corner index has zero height; those are left out by index
    alone and counted in ``degenerate_skipped``. Every other triangle is
    kept, however thin. With two columns the zipper would use the top's
    row edges, so there it starts from ``b`` instead, with each triangle
    wound the other way; no base edge is then a top edge. With at least
    one sample above base_z the result is watertight with outward
    normals; where top samples lie on the base plane the top touches the
    base. A grid with no sample above base_z has no volume and raises
    GeometryError.
    """
    heights = g.heights
    if not abs(base_z) <= FLOAT32_MAX:
        raise GeometryError(f"base plane z={base_z} lies outside +-{FLOAT32_MAX:g} (float32)")
    if heights.min() < base_z:
        raise InvertedSolidError(
            f"height {heights.min()} lies below the base plane z={base_z}"
        )
    if not heights.max() > base_z:
        raise GeometryError(f"every height lies on the base plane z={base_z}: no volume")
    rows, cols = g.rows, g.cols
    n = rows * cols

    raised = heights > base_z
    raised[1:-1, 1:-1] = False
    raised = raised.ravel()
    base = np.where(raised, n - 1 + np.cumsum(raised), np.arange(n))
    top_vertices = _grid_vertices(g, heights)
    vertices = np.vstack([top_vertices, top_vertices[raised]])
    vertices[n:, 2] = base_z

    top = np.arange(n).reshape(rows, cols)
    a = np.concatenate([top[0], top[1:, -1]])
    b = np.concatenate([top[:, 0], top[-1, 1:]])
    za, zb = (b, a) if cols == 2 else (a, b)
    k = np.arange(1, rows + cols - 2)
    zipper = np.stack([za[k], zb[k - 1], zb[k], za[k], zb[k], za[k + 1]], axis=1).reshape(-1, 3)
    if cols == 2:
        zipper = zipper[:, ::-1]

    # Walls: two triangles per rim edge from sample f to sample t. The
    # edges run counter-clockwise seen from +Z, and the triangles are wound
    # so normals face away from the footprint. (base[f], base[t], t)
    # collapses where base[t] is t itself, and (base[f], t, f) where
    # base[f] is f.
    f = np.concatenate([a[:-1], b[1:]])
    t = np.concatenate([a[1:], b[:-1]])
    wall_tris = np.stack([base[f], base[t], t, base[f], t, f], axis=1).reshape(-1, 3)
    keep = np.stack([base[t] != t, base[f] != f], axis=1).ravel()

    triangles = np.vstack([_cell_triangles(rows, cols), base[zipper], wall_tris[keep]])
    skipped = len(keep) - int(np.count_nonzero(keep))
    return TriangleMesh(vertices, triangles, degenerate_skipped=skipped)


def validate(m: TriangleMesh) -> MeshReport:
    """Measure a mesh and decide whether it bounds a printable solid.

    Watertight means: at least one triangle, every undirected edge shared
    by exactly two triangles that traverse it in opposite directions, and
    no repeated directed edge; a self-loop edge (v, v) always breaks one
    of these rules. Signed volume is the divergence-theorem sum over
    triangles; a closed outward-wound solid yields a positive value.
    Triangles with an area below DEFAULT_MIN_FEATURE**2 * 1e-6
    (1e-12 mm^2) count as degenerate, as do the ones
    ``degenerate_skipped`` says were left out.
    """
    t = m.triangles
    tri_count = len(t)

    if tri_count == 0:
        lo = np.zeros(3) if len(m.vertices) == 0 else m.vertices.min(axis=0)
        hi = np.zeros(3) if len(m.vertices) == 0 else m.vertices.max(axis=0)
        return MeshReport(
            vertex_count=len(m.vertices),
            triangle_count=0,
            edge_count=0,
            euler_characteristic=len(m.vertices),
            watertight=False,
            signed_volume=0.0,
            surface_area=0.0,
            bbox_min=lo,
            bbox_max=hi,
            degenerate_count=int(m.degenerate_skipped),
            boundary_edge_count=0,
            nonmanifold_edge_count=0,
        )

    v0, v1, v2 = m.corners()
    cross = _triangle_cross(v0, v1, v2)
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    degenerate = int(np.count_nonzero(areas < DEFAULT_MIN_FEATURE * DEFAULT_MIN_FEATURE * 1e-6))

    # One sort of the directed edges, keyed (undirected edge, direction):
    # runs of equal undirected codes give each edge's use count, and equal
    # neighbouring keys are a repeated directed edge.
    nv = len(m.vertices)
    a = t.ravel()
    b = t[:, [1, 2, 0]].ravel()
    keys = ((np.minimum(a, b) * nv + np.maximum(a, b)) << 1) | (a > b)
    keys.sort()
    directed_dup = bool((keys[1:] == keys[:-1]).any())
    und = keys >> 1
    starts = np.flatnonzero(np.concatenate([[True], und[1:] != und[:-1]]))
    und_counts = np.diff(starts, append=len(und))
    edge_count = len(starts)
    boundary = int(np.count_nonzero(und_counts == 1))
    nonmanifold = int(np.count_nonzero(und_counts > 2))

    watertight = boundary == 0 and nonmanifold == 0 and not directed_dup

    signed_volume = float(np.einsum("ij,ij->", v0, np.cross(v1, v2)) / 6.0)
    return MeshReport(
        vertex_count=nv,
        triangle_count=tri_count,
        edge_count=edge_count,
        euler_characteristic=nv - edge_count + tri_count,
        watertight=watertight,
        signed_volume=signed_volume,
        surface_area=float(areas.sum()),
        bbox_min=m.vertices.min(axis=0),
        bbox_max=m.vertices.max(axis=0),
        degenerate_count=degenerate + int(m.degenerate_skipped),
        boundary_edge_count=boundary,
        nonmanifold_edge_count=nonmanifold,
    )


def analytic_volume(g: HeightGrid, base_z: float = 0.0) -> float:
    """Closed-form volume of close_solid(g, base_z), cell by cell.

    Each triangle of the fixed diagonal split contributes
    (cell area / 2) * (mean corner height - base_z); its oblique top is
    planar, so the prism mean is exact, not an approximation.
    """
    h = g.heights
    if h.min() < base_z:
        raise InvertedSolidError(f"height {h.min()} lies below the base plane z={base_z}")
    wx = np.diff(g.x)
    wy = np.diff(g.y)
    cell_area = wy[:, None] * wx[None, :]
    tri_acd = (h[:-1, :-1] + h[1:, :-1] + h[1:, 1:]) / 3.0 - base_z
    tri_abd = (h[:-1, :-1] + h[:-1, 1:] + h[1:, 1:]) / 3.0 - base_z
    return float(np.sum(cell_area / 2.0 * (tri_acd + tri_abd)))
