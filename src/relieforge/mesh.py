"""Heightfield tessellation, solidification, and mesh measurement.

The top surface is one row zip: each row of cells is triangulated
between the samples kept on its two grid lines, so a cell with four kept
corners splits along its (r,c)->(r+1,c+1) diagonal, in a fixed row-major
order. close_solid hides the samples strictly inside flat aligned
quadtree blocks above the base plane, and closes the surface with a flat
base triangulated from the rim alone and perimeter walls, forming a
watertight, outward-oriented solid. Output is deterministic, and since a
block is flat, the cell-by-cell prism sum stays an exact volume oracle.
Vertex identity comes from the grid indices, not from comparing
coordinates: the kept samples are numbered in row-major order, the rim,
kept whole, is one counter-clockwise ring of samples whose vertices
follow from each row's kept count, and a rim sample has a base corner of
its own, numbered in ring order, only where it stands above the base
plane, so a wall triangle collapses exactly when two of its corner
indices coincide. close_solid refuses a grid whose vertices would merge,
or whose heights above the base plane would round onto it, once narrowed
to the float32 of an STL file, so every solid it returns is also
watertight as written and no part of it flattens onto its base. validate
measures any mesh without modifying it.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    "close_solid",
    "validate",
    "analytic_volume",
]

#: Smallest printable feature size in mm; validate counts triangles
#: below the derived area floor as degenerate.
DEFAULT_MIN_FEATURE = 0.001

# Triangles per block in validate and the STL writers, and samples per
# band in close_solid, which bounds the temporaries held at once.
_CHUNK = 1 << 15
# Directed-edge keys per part in validate: a mesh of T triangles sorts
# its 3T keys in ceil(3T / _KEYS) parts, each found in a pass over every
# block. A mesh with parts has over 700K triangles, and read_stl's weld
# of it holds 48 bytes a triangle, so a part's 16 MiB of keys does not
# set inspect's peak: smaller parts would add passes, not save memory.
_KEYS = 1 << 21


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
    repeated_edge_count: int


def _edge_cross(v0, v1, v2) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(v1 - v0) x (v2 - v0) and its length, for corners given as their coordinate arrays.

    Each corner is its x, y and z as three 1-D arrays. The operations
    are the ones np.cross and np.linalg.norm apply to (n, 3) rows, so
    the results are bit-equal to theirs.
    """
    a = [q - p for p, q in zip(v0, v1)]
    b = [q - p for p, q in zip(v0, v2)]
    cross = a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]
    del a, b  # freed before the length allocates its temporaries
    length = np.sqrt(cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2])
    return cross, length


def face_normals(corners: np.ndarray) -> np.ndarray:
    """Unit normals by the right-hand rule over (T, 3, 3) corners.

    Zero-area triangles get a zero normal instead of NaN.
    """
    cross, length = _edge_cross(*(corners[:, k].T for k in range(3)))
    length[length == 0.0] = 1.0
    return np.stack(cross, axis=1) / length[:, None]


def _zipper(chain_a: np.ndarray, chain_b: np.ndarray) -> np.ndarray:
    """Triangulate the polygon bounded by two chains with common ends.

    Both chains have n edges. The strip (a[k], b[k-1], b[k]),
    (a[k], b[k], a[k+1]) for 1 <= k <= n-1 gives 2n - 2 triangles. With
    ``a`` the first half of a grid's counter-clockwise rim and ``b`` the
    rest, read back from its start, they wind clockwise seen from +Z.
    """
    a, b = chain_a, chain_b
    k = np.arange(1, len(a) - 1)
    return np.stack([a[k], b[k - 1], b[k], a[k], b[k], a[k + 1]], axis=1).reshape(-1, 3)


def _top_triangles(kept: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Zip each row of cells over the kept samples on its two grid lines.

    ``kept`` is a (rows, cols) mask with its first and last columns set;
    the triangles index the kept samples in row-major order. Each kept
    sample at column c >= 1 adds one triangle to the row of cells below
    its line and one to the row above, whose other corners are the last
    kept samples before it on each line; on a tie the upper line advances
    first. Triangles come by row, then column, the lower line's first. A
    cell whose corners A=(r,c), B=(r,c+1), C=(r+1,c), D=(r+1,c+1) are all
    kept thus splits into (A,B,D), (A,D,C), counter-clockwise seen from
    +Z. With V samples kept, P of them on the rim, that makes 2V - P - 2,
    one for each kept sample past column 0 on the lower and on the upper
    line of a row: ``out`` is an int64 array of that many rows, filled
    and returned. Rows of cells go a band of about _CHUNK samples at a
    time, each numbered by one cumsum over its lines, so beside ``out``
    only one band's indices are held.
    """
    cols = kept.shape[1]
    band = max(1, _CHUNK // cols)
    done = before = 0  # rows of out filled; kept samples before the band's lines
    for lo in range(0, kept.shape[0] - 1, band):
        lines = kept[lo : lo + band + 1]
        # last[s] numbers the last kept sample up to s; column 0 is kept, so on s's line.
        last = np.cumsum(lines.ravel())
        last += before - 1
        # Slot 2 * cell + upper holds the triangle that the cell's corner B,
        # or D if upper, adds to its row when kept; a is the cell's corner A.
        slots = np.flatnonzero(np.stack([lines[:-1, 1:], lines[1:, 1:]], axis=-1))
        cell, upper = slots >> 1, slots & 1
        a = cell + cell // (cols - 1)
        tris = out[done : done + len(a)]
        for k, corner in enumerate([a, a + upper * cols + 1, a + cols + 1 - upper]):
            tris[:, k] = last[corner]
        done += len(a)
        before += int(np.count_nonzero(lines[:-1]))
    return out


def _hidden_samples(heights: np.ndarray, base_z: float) -> np.ndarray:
    """Mask of the samples strictly inside a flat aligned 2^k x 2^k block, k >= 1.

    A cell is flat when its four corners are equal and above base_z; an
    aligned block is flat when its four children are flat, and then they
    share one height, because neighbours share their border samples.
    """
    z = heights[:-1, :-1]
    flat = (
        (z == heights[:-1, 1:]) & (z == heights[1:, :-1]) & (z == heights[1:, 1:]) & (z > base_z)
    )
    hidden = np.zeros(heights.shape, dtype=bool)
    side = 1
    while flat.any():
        f = flat[: flat.shape[0] // 2 * 2, : flat.shape[1] // 2 * 2]
        flat = f[::2, ::2] & f[::2, 1::2] & f[1::2, ::2] & f[1::2, 1::2]
        side *= 2
        n, m = flat.shape
        # Views of hidden: each block's middle row and column, less its border. A sample
        # strictly inside blocks lies on the cross of the smallest of them, and on no other.
        across = hidden[side // 2 : n * side : side, : m * side].reshape(n, m, side)
        across[:, :, 1:] = flat[:, :, None]
        down = hidden[: n * side, side // 2 : m * side : side].reshape(n, side, m)
        down[:, 1:] = flat[:, None]
    return hidden


def close_solid(g: HeightGrid, base_z: float = 0.0) -> TriangleMesh:
    """Close the height surface into a printable solid.

    The top is the row zip of _top_triangles over the samples that
    _hidden_samples keeps, 2V - P - 2 triangles: it hides those strictly
    inside an aligned 2^k x 2^k block whose cells all have four equal
    corners at one height strictly above base_z. Every triangle has its
    corners on two neighbouring grid lines, and every kept sample is a
    vertex of the triangles around it, so no vertex lies inside another
    triangle's edge. Inside a block the triangles are flat and face +Z;
    every other cell splits into (A,B,D), (A,D,C). Blocks on the base
    plane hide nothing: at a rim corner their chords would be the base's
    chords too.

    The P rim samples form one counter-clockwise ring from the SW
    corner: east along the south row, up the east column, west along the
    north row, down the west column. The base at z = base_z triangulates
    the rim polygon alone by zipping the ring's two halves, ``a`` to the
    NE corner and ``b`` back from the SW corner the other way, into
    2(rows + cols) - 6 triangles facing -Z. A rim sample's base corner is
    that same vertex where h == base_z, and otherwise a vertex of its
    own, numbered after the top ones in ring order; interior samples
    have none. Walls join the two rims edge by edge, a's and then b's,
    each chain's from the SW corner on. A wall triangle with a repeated
    corner index has zero height; those are left out by index alone and
    counted in ``degenerate_skipped``. Every other triangle is kept,
    however thin. With two columns the zipper would use the top's row
    edges, so there it starts from ``b`` instead, with each triangle
    wound the other way; no base edge is then a top edge.

    Vertices are found by grid index, not by coordinates: the kept
    samples come first in row-major order, then the base corners of
    their own. Rim rows are kept whole, so a rim sample's vertex follows
    from the kept count of each row.

    Triangles come as top (row by row, see _top_triangles), then base,
    then walls. With at least one sample above base_z the result is
    watertight with outward normals; where top samples lie on the base
    plane the top touches the base. A grid with no sample above base_z
    has no volume and raises GeometryError.

    The top, base and wall counts are known from the rim and the mask of
    kept samples before any top triangle is formed, so the triangles
    fill one array allocated once, a band of rows at a time (see
    _top_triangles), and the vertices another, one coordinate at a time:
    beside the grid, close_solid holds the mesh it returns, a few masks
    of one byte per sample, one band's temporaries and one coordinate
    of the kept samples.

    STL files store float32, so the solid must also stay as measured
    once its coordinates are narrowed: GeometryError refuses a grid
    whose neighbouring x or y positions coincide in float32, because
    that would merge vertices in the file, or with any height above
    base_z that rounds onto it, which would flatten that part of the
    solid onto its base. Nothing is built before these checks.
    """
    heights = g.heights
    if not abs(base_z) <= FLOAT32_MAX:
        raise GeometryError(f"base plane z={base_z} lies outside +-{FLOAT32_MAX:g} (float32)")
    for axis, positions in (("x", g.x), ("y", g.y)):
        if not (np.diff(positions.astype(np.float32)) > 0).all():
            raise GeometryError(f"neighbouring {axis} positions coincide in float32")
    # Rounding is monotone, so the lowest height above base_z decides.
    lowest = heights.min(where=heights > base_z, initial=np.inf)
    if np.float32(lowest) <= np.float32(base_z):
        raise GeometryError(f"heights above the base plane z={base_z} round onto it in float32")
    if heights.min() < base_z:
        raise InvertedSolidError(
            f"height {heights.min()} lies below the base plane z={base_z}"
        )
    if not heights.max() > base_z:
        raise GeometryError(f"every height lies on the base plane z={base_z}: no volume")
    rows, cols = heights.shape

    kept = ~_hidden_samples(heights, base_z)
    counts = np.count_nonzero(kept, axis=1)
    ends = np.cumsum(counts)
    count = int(ends[-1])  # kept samples, the top's vertices
    # ring lists the rim samples counter-clockwise seen from +Z: east
    # along row 0, up the last column, west along the last row, down
    # column 0. Rim rows are kept whole, so index[i], the vertex of
    # ring[i], follows from its row's kept count; base[i] is its base
    # corner, a vertex of its own where ring[i] stands above base_z.
    ring = np.concatenate(
        [np.arange(cols), np.arange(2, rows + 1) * cols - 1]
        + [np.arange(rows * cols - 2, (rows - 1) * cols - 1, -1), np.arange(rows - 2, 0, -1) * cols]
    )
    r, c = np.divmod(ring, cols)
    index = np.where(c == cols - 1, ends[r] - 1, ends[r] - counts[r] + c)
    raised = heights[r, c] > base_z
    base = index.copy()
    base[raised] = count + np.arange(np.count_nonzero(raised))

    # The base zips the ring's halves from its SW to its NE corner.
    half = rows + cols - 1
    a, b = base[:half], np.r_[base[0], base[: half - 2 : -1]]
    zipper = _zipper(b, a)[:, ::-1] if cols == 2 else _zipper(a, b)

    # Walls: two triangles per rim edge from ring[f] to ring[t], a's
    # edges, then b's, each from the SW corner on, wound so normals face
    # away from the footprint. (base[f], base[t], t) collapses where t
    # has no base corner of its own, and (base[f], t, f) where f has none.
    P = len(ring)
    f = np.r_[: half - 1, P - 1 : half - 2 : -1]
    t = (f + 1) % P
    bf, bt, it, i_f = base[f], base[t], index[t], index[f]
    wall_tris = np.stack([bf, bt, it, bf, it, i_f], axis=1).reshape(-1, 3)
    keep = np.stack([bt != it, bf != i_f], axis=1).ravel()
    walls = wall_tris[keep]

    # Every count is known, so the triangles fill one array in place.
    top = 2 * count - P - 2
    triangles = np.empty((top + len(zipper) + len(walls), 3), dtype=np.int64)
    _top_triangles(kept, triangles[:top])
    triangles[top : top + len(zipper)] = zipper
    triangles[top + len(zipper) :] = walls

    # The kept samples come row-major, like np.nonzero, one coordinate at a time.
    vertices = np.empty((count + np.count_nonzero(raised), 3))
    vertices[:count, 0] = np.broadcast_to(g.x, heights.shape)[kept]
    vertices[:count, 1] = np.broadcast_to(g.y[:, None], heights.shape)[kept]
    vertices[:count, 2] = heights[kept]
    corners = vertices[count:]
    corners[:, 0], corners[:, 1], corners[:, 2] = g.x[c[raised]], g.y[r[raised]], base_z
    skipped = len(keep) - len(walls)
    return TriangleMesh(vertices, triangles, degenerate_skipped=skipped)


def _block_geometry(columns, block, origin, moment) -> tuple[np.ndarray, float]:
    """The areas of a block of triangles, and six times their signed volume.

    Each corner's x, y and z are gathered from ``columns``, the column
    views of the vertices, and both come from the one edge product
    e = (v1 - v0) x (v2 - v0) of those 1-D arrays (see _edge_cross),
    bit-equal to the (n, 3) forms: the area is |e| / 2, and the volume
    term v0 . e, which equals v0 . (v1 x v2) but keeps its digits far
    from the origin. v0 and e are written row by row into the (n, 3)
    buffers ``origin`` and ``moment``, and einsum sums their products in
    the order an (n, 3) sum takes.
    """
    n = len(block)
    v0, v1, v2 = ([axis[block[:, k]] for axis in columns] for k in range(3))
    cross, areas = _edge_cross(v0, v1, v2)
    areas *= 0.5
    for k in range(3):
        origin[:n, k] = v0[k]
        moment[:n, k] = cross[k]
    return areas, float(np.einsum("ij,ij->", origin[:n], moment[:n]))


def _edge_runs(keys: np.ndarray) -> tuple[int, int, int, int]:
    """Sort directed-edge keys in place and count equal keys among them.

    Returns the count of directed edges that repeat an earlier one, then
    c1, c2 and c3: the places where the undirected keys (each key >> 1)
    equal themselves shifted by one, two and three places. Beside the
    keys, one mask as long is held at a time.
    """
    keys.sort()
    repeated = int(np.count_nonzero(keys[1:] == keys[:-1]))
    keys >>= 1
    c1, c2, c3 = (int(np.count_nonzero(keys[s:] == keys[:-s])) for s in (1, 2, 3))
    return repeated, c1, c2, c3


def _part_keys(t: np.ndarray, nv: int, width: int, sizes: np.ndarray) -> Iterator[np.ndarray]:
    """Yield each part's directed-edge keys in turn, gathered into one buffer.

    Edge k of triangle i runs from t[i, k] to t[i, (k + 1) % 3], and
    part p holds the edges whose lower vertex v has v // width == p.
    ``sizes`` counts the edges in each part. A part is found and keyed
    as validate keys a block, _CHUNK triangles and one corner column at
    a time, into a buffer as long as the largest part, which the next
    part overwrites. Parts with no edges are skipped.
    """
    buffer = np.empty(int(sizes.max()), dtype=np.int64)
    for p in np.flatnonzero(sizes).tolist():
        filled = 0
        for lo in range(0, len(t), _CHUNK):
            block = t[lo : lo + _CHUNK]
            for k in range(3):
                a, b = block[:, k], block[:, (k + 1) % 3]
                mine = np.minimum(a, b) // width == p
                a, b = a[mine], b[mine]
                edges = (np.minimum(a, b) * nv + np.maximum(a, b)) << 1
                buffer[filled : filled + len(a)] = edges | (a > b)
                filled += len(a)
        yield buffer[:filled]


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

    Triangles are measured _CHUNK at a time, coordinate by coordinate
    (see _block_geometry), with the two (n, 3) volume buffers allocated
    once. Area and volume add up per-block sums, so past one block their
    last digits may differ from one sum's. The directed edges' int64
    keys, (undirected edge, direction), are sorted and counted in
    ceil(3T / _KEYS) parts, at most one per vertex (see _edge_runs):
    part p holds the edges whose lower vertex lies in [p * w, (p + 1) * w).
    Keys rise with the lower vertex, so no run of equal keys crosses
    parts. With one part, each block writes its keys into one array of
    3T, and beside the mesh validate then holds that array and one mask
    as long at a time. With more, each block counts its edges in each
    part, and the parts are gathered in turn into one buffer (see
    _part_keys). The volume buffers are freed before the edges are
    counted.
    ``repeated_edge_count`` counts the directed edges that repeat an
    earlier one.
    """
    t = m.triangles
    tri_count = len(t)
    nv = len(m.vertices)
    floor = DEFAULT_MIN_FEATURE * DEFAULT_MIN_FEATURE * 1e-6
    area = volume6 = 0.0
    degenerate = 0
    columns = m.vertices.T
    # v0 and (v1 - v0) x (v2 - v0), row by row, for the volume term.
    origin = np.empty((min(_CHUNK, tri_count), 3))
    moment = np.empty_like(origin)
    # Directed edges keyed (undirected edge, direction): runs of equal
    # undirected codes give each edge's use count, and equal neighbouring
    # keys are a repeated directed edge.
    parts = max(1, min(-(-3 * tri_count // _KEYS), nv))
    width = -(-nv // parts)
    if parts == 1:
        keys = np.empty(3 * tri_count, dtype=np.int64)
    else:
        sizes = np.zeros(parts, dtype=np.int64)
    for lo in range(0, tri_count, _CHUNK):
        block = t[lo : lo + _CHUNK]
        areas, block_volume6 = _block_geometry(columns, block, origin, moment)
        degenerate += int(np.count_nonzero(areas < floor))
        area += float(areas.sum())
        volume6 += block_volume6
        a = block.ravel()
        b = block[:, [1, 2, 0]].ravel()
        if parts > 1:
            sizes += np.bincount(np.minimum(a, b) // width, minlength=parts)
        else:
            edges = (np.minimum(a, b) * nv + np.maximum(a, b)) << 1
            keys[3 * lo : 3 * lo + len(a)] = edges | (a > b)
    del origin, moment

    runs = [_edge_runs(keys)] if parts == 1 else map(_edge_runs, _part_keys(t, nv, width, sizes))
    repeated, c1, c2, c3 = map(sum, zip(*runs))
    # An edge used L times is a run of L equal keys, in which
    # keys[i] == keys[i + s] holds max(L - s, 0) times. Summed over the
    # runs as c1, c2 and c3, these count the runs, the runs of one and
    # the runs of three or more.
    edge_count = 3 * tri_count - c1
    boundary = 3 * tri_count - 2 * c1 + c2
    nonmanifold = c2 - c3

    watertight = tri_count > 0 and boundary == 0 and nonmanifold == 0 and repeated == 0
    # One strided pass per coordinate; min(axis=0) over the (V, 3) rows
    # runs numpy's inner loop three elements at a time.
    box = columns if nv else np.zeros((3, 1))
    return MeshReport(
        vertex_count=nv,
        triangle_count=tri_count,
        edge_count=edge_count,
        euler_characteristic=nv - edge_count + tri_count,
        watertight=watertight,
        signed_volume=volume6 / 6.0,
        surface_area=area,
        bbox_min=np.array([c.min() for c in box]),
        bbox_max=np.array([c.max() for c in box]),
        degenerate_count=degenerate + int(m.degenerate_skipped),
        boundary_edge_count=boundary,
        nonmanifold_edge_count=nonmanifold,
        repeated_edge_count=repeated,
    )


def analytic_volume(g: HeightGrid, base_z: float = 0.0) -> float:
    """Closed-form volume of close_solid(g, base_z), cell by cell.

    Each triangle of the fixed diagonal split contributes
    (cell area / 2) * (mean corner height - base_z); its oblique top is
    planar, so the prism mean is exact, not an approximation. The cells
    of a block whose inner samples close_solid hides are flat at one
    height, so their prisms sum to the block's whatever the row zip
    makes of it.
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
