"""Shared fixtures: hand-built PGM/PNG bytes, the 4x4 logo stand-in, an
open top surface built by hand, loop oracles for the flat blocks whose
inner samples close_solid hides and for its base and walls, and a
tracemalloc peak reading for memory bounds.

The PNG builder here is written against the file-format documents, not
against the package decoder, so decode tests check two independent
implementations against each other.
"""

import os
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from relieforge.mesh import TriangleMesh

# pytest finds the package in src (pyproject's pythonpath); the CLI
# processes the tests spawn import it from the same checkout, and treat
# warnings as errors, as pyproject's filterwarnings does in process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = "error"


def traced_peak(fn, *args):
    """Call fn(*args) under tracemalloc; return its result and peak bytes allocated."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_pgm(arr, maxval=255, ascii_format=False) -> bytes:
    """Encode a 2-D uint array as P2 (ascii_format) or P5 bytes."""
    arr = np.asarray(arr)
    h, w = arr.shape
    if ascii_format:
        body = "\n".join(" ".join(str(int(v)) for v in row) for row in arr)
        return f"P2\n{w} {h}\n{maxval}\n{body}\n".encode()
    header = f"P5\n{w} {h}\n{maxval}\n".encode()
    if maxval < 256:
        payload = arr.astype(np.uint8).tobytes()
    else:
        payload = arr.astype(">u2").tobytes()
    return header + payload


def _chunk(ctype: bytes, body: bytes) -> bytes:
    return (
        struct.pack(">I", len(body))
        + ctype
        + body
        + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)
    )


def make_png(pixels, color_type: int, bit_depth: int = 8) -> bytes:
    """Encode (h, w, ch) uint8 pixels as a filter-0 PNG."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    h, w, _ = pixels.shape
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    raw = b"".join(b"\x00" + pixels[r].tobytes() for r in range(h))
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )


def make_png_filtered(width: int, height: int, color_type: int, rows) -> bytes:
    """PNG from explicit (filter_type, stored_bytes) per-row pairs."""
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    raw = b"".join(bytes([ftype]) + stored for ftype, stored in rows)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )


def logo_pixels() -> np.ndarray:
    """4x4 stand-in logo: light plate border, dark 2x2 glyph block."""
    px = np.full((4, 4), 255, dtype=np.uint8)
    px[1:3, 1:3] = 0
    return px


@pytest.fixture
def logo_pgm_bytes() -> bytes:
    return make_pgm(logo_pixels())


@pytest.fixture
def logo_pgm(tmp_path, logo_pgm_bytes):
    path = tmp_path / "logo.pgm"
    path.write_bytes(logo_pgm_bytes)
    return path


def open_top(grid) -> TriangleMesh:
    """The height surface of a grid alone, open, built by loops.

    One vertex per sample at (x[c], y[r], h[r, c]), in row-major order.
    Each cell, row-major, splits into (A,B,D), (A,D,C), where A=(r,c),
    B=(r,c+1), C=(r+1,c) and D=(r+1,c+1): counter-clockwise seen from +Z.
    """
    rows, cols = grid.heights.shape
    vertices = [
        [grid.x[j], grid.y[i], grid.heights[i, j]] for i in range(rows) for j in range(cols)
    ]
    triangles = []
    for i in range(rows - 1):
        for j in range(cols - 1):
            a = i * cols + j
            b, c, d = a + 1, a + cols, a + cols + 1
            triangles += [[a, b, d], [a, d, c]]
    return TriangleMesh(vertices, triangles)


def flat_blocks_reference(heights, base_z):
    """The flat top blocks close_solid hides samples inside, found by loops.

    An aligned block of side s = 2^k >= 2 whose (s+1)^2 samples all equal
    one height above base_z qualifies. Blocks are taken from the largest
    side down, row-major within a side, skipping cells already taken.
    Returns [(row, col, side)] and the (rows, cols) mask of the samples
    strictly inside a block.
    """
    rows, cols = heights.shape
    taken = np.zeros((rows - 1, cols - 1), dtype=bool)
    hidden = np.zeros((rows, cols), dtype=bool)
    blocks = []
    side = 1
    while 2 * side <= min(rows, cols) - 1:
        side *= 2
    while side >= 2:
        for r in range(0, rows - side, side):
            for c in range(0, cols - side, side):
                patch = heights[r : r + side + 1, c : c + side + 1]
                if not taken[r, c] and patch.min() == patch.max() > base_z:
                    blocks.append((r, c, side))
                    taken[r : r + side, c : c + side] = True
                    hidden[r + 1 : r + side, c + 1 : c + side] = True
        side //= 2
    return blocks, hidden


def cells_outside(blocks, rows, cols):
    """The (rows-1, cols-1) mask of the cells outside every block."""
    outside = np.ones((rows - 1, cols - 1), dtype=bool)
    for r, c, side in blocks:
        outside[r : r + side, c : c + side] = False
    return outside


def top_corners(mesh, blocks, hidden):
    """Where close_solid's top triangles lie on the grid.

    The top comes first: 2V - P - 2 triangles over the V samples that no
    block hides, which are numbered first in row-major order, P of them
    on the rim. Returns the grid rows and columns of each top triangle's
    corners, both (2V - P - 2, 3), and whether each triangle has all its
    corners on one block's samples.
    """
    rows, cols = hidden.shape
    kept = np.flatnonzero(~hidden)
    count = 2 * len(kept) - (2 * (rows + cols) - 4) - 2
    r, c = np.divmod(kept[mesh.triangles[:count]], cols)
    inside = np.zeros(count, dtype=bool)
    for br, bc, side in blocks:
        inside |= np.all((r >= br) & (r <= br + side) & (c >= bc) & (c <= bc + side), axis=1)
    return r, c, inside


def rim_reference(grid, base_z):
    """close_solid's base and walls, listed by grid position with loops.

    Two rim chains run from the SW sample to the NE one: ``a`` along row
    0 and up the last column, ``b`` up column 0 and along the last row.
    The base at base_z zips them, (a[k], b[k-1], b[k]), (a[k], b[k],
    a[k+1]) for 1 <= k <= n-2, over n samples a chain; with two columns
    a and b trade places and each triangle is wound the other way. The
    walls take a's edges, then b's, each chain's from the SW sample on
    and run counter-clockwise. An edge from f to t gives (base f, base
    t, top t), left out where t lies on the base plane, and (base f,
    top t, top f), left out where f does. Returns both lists of
    triangles as (n, 3, 3) corner coordinates.
    """
    rows, cols = grid.heights.shape
    a = [(0, c) for c in range(cols)] + [(r, cols - 1) for r in range(1, rows)]
    b = [(r, 0) for r in range(rows)] + [(rows - 1, c) for c in range(1, cols)]

    def top(p):
        return [grid.x[p[1]], grid.y[p[0]], grid.heights[p]]

    def base(p):
        return [grid.x[p[1]], grid.y[p[0]], base_z]

    za, zb = (b, a) if cols == 2 else (a, b)
    floor = []
    for k in range(1, len(a) - 1):
        for tri in ([za[k], zb[k - 1], zb[k]], [za[k], zb[k], za[k + 1]]):
            floor.append([base(p) for p in (tri[::-1] if cols == 2 else tri)])
    edges = [(a[k], a[k + 1]) for k in range(len(a) - 1)]
    edges += [(b[k + 1], b[k]) for k in range(len(b) - 1)]
    walls = []
    for f, t in edges:
        if grid.heights[t] != base_z:
            walls.append([base(f), base(t), top(t)])
        if grid.heights[f] != base_z:
            walls.append([base(f), top(t), top(f)])
    return np.array(floor), np.array(walls).reshape(-1, 3, 3)
