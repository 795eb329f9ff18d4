"""Seeded input generator and oracle expectations for the benchmark.

Runs in its own process so that ``run.py``, which spawns the measured
commands, never holds these arrays (Linux carries a parent's peak RSS
into the children it spawns). Nothing here imports relieforge: the PNG
encoder, the P2 writer, the binary STL writer, the intensity-to-height
map and the volume oracle are written from the file formats and from
the documented pipeline, so a bug in the package cannot shape its own
inputs or agree with itself.

    python3 perfbench/gen.py --workload logo-convert --seed 7 --out DIR [--tiny]

writes the workload's inputs into DIR and a ``manifest.json`` that
records each input's size and sha256 plus the values the oracles
expect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import zlib
from pathlib import Path

import numpy as np

# Physical footprint of every relief: the CLI's default 80 x 28 mm.
WIDTH_MM = 80.0
DEPTH_MM = 28.0

# (width, height) in pixels, or (cols, rows) of the STL grid. Full sizes
# are the ones the workloads are defined at; tiny ones keep the
# self-test fast while still giving every logo pixels at each of the
# transfer map's three levels.
SIZES = {
    "logo-convert": {"full": (800, 280), "tiny": (160, 56)},
    "stl-inspect": {"full": (800, 280), "tiny": (20, 8)},
    "text-roundtrip": {"full": (200, 70), "tiny": (80, 28)},
    "png-preview": {"full": (2400, 840), "tiny": (160, 56)},
}

# Columns left of this share of the width get alpha 128 in RGBA logos.
ALPHA_MARGIN = 0.06


# ---------------------------------------------------------------------------
# Logo raster


def _capsule(px, py, ax, ay, bx, by, r):
    """Signed distance (mm) to a stroke from (ax, ay) to (bx, by) of radius r."""
    dx, dy = bx - ax, by - ay
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    return np.hypot(px - ax - t * dx, py - ay - t * dy) - r


def _ring(px, py, cx, cy, radius, r):
    return np.abs(np.hypot(px - cx, py - cy) - radius) - r


def _box_frame(px, py, inset, r):
    """Rectangular frame line ``inset`` mm inside the footprint edge."""
    qx = np.abs(px - WIDTH_MM / 2) - (WIDTH_MM / 2 - inset)
    qy = np.abs(py - DEPTH_MM / 2) - (DEPTH_MM / 2 - inset)
    outside = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
    return np.abs(outside + np.minimum(np.maximum(qx, qy), 0.0)) - r


def _glyph_strokes(rng):
    """Seeded logo layout in mm: a frame plus a row of stroked glyphs.

    Returns (kind, params, ink, colour) per stroke: ink is the glyph's
    gray level (0 = black), colour its RGB for RGBA logos.
    """
    strokes = [("frame", (1.6, 0.45), 0.08, (30, 30, 60))]
    n = int(rng.integers(5, 8))
    cell = (WIDTH_MM - 16.0) / n
    for k in range(n):
        x0 = 8.0 + k * cell + 0.15 * cell
        x1 = 8.0 + (k + 1) * cell - 0.15 * cell
        y0, y1 = 6.5, 21.5
        r = float(rng.uniform(0.6, 1.0))
        ink = float(rng.uniform(0.02, 0.15))
        colour = tuple(int(v) for v in rng.integers(0, 70, size=3))
        for _ in range(int(rng.integers(2, 4))):
            shape = int(rng.integers(0, 4))
            if shape == 0:  # vertical bar
                x = float(rng.uniform(x0, x1))
                stroke = ("capsule", (x, y0, x, y1, r))
            elif shape == 1:  # horizontal bar
                y = float(rng.uniform(y0, y1))
                stroke = ("capsule", (x0, y, x1, y, r))
            elif shape == 2:  # diagonal
                ya, yb = (y0, y1) if rng.random() < 0.5 else (y1, y0)
                stroke = ("capsule", (x0, ya, x1, yb, r))
            else:  # bowl
                radius = float(rng.uniform(0.3, 0.5)) * min(x1 - x0, y1 - y0)
                cx, cy = (x0 + x1) / 2, float(rng.uniform(y0 + radius, y1 - radius))
                stroke = ("ring", (cx, cy, radius, r))
            strokes.append((*stroke, ink, colour))
    return strokes


def _bounds(kind, params):
    """Box (x0, y0, x1, y1) in mm outside which a stroke leaves no ink."""
    if kind == "frame":
        return 0.0, 0.0, WIDTH_MM, DEPTH_MM
    if kind == "capsule":
        ax, ay, bx, by, r = params
        return min(ax, bx) - r, min(ay, by) - r, max(ax, bx) + r, max(ay, by) + r
    cx, cy, radius, r = params
    return cx - radius - r, cy - radius - r, cx + radius + r, cy + radius + r


def _coverage(strokes, width, height):
    """Anti-aliased ink coverage per stroke, pixel row 0 on top.

    Coverage is 0.5 - distance / pixel pitch, clipped to [0, 1], which
    ramps across about one pixel at every glyph edge. Yields the pixel
    window each stroke can touch, its coverage there, its ink and colour.
    """
    pitch = WIDTH_MM / width
    xs = (np.arange(width) + 0.5) * pitch
    ys = DEPTH_MM - (np.arange(height) + 0.5) * (DEPTH_MM / height)
    sdf_of = {"frame": _box_frame, "capsule": _capsule, "ring": _ring}
    for kind, params, ink, colour in strokes:
        x0, y0, x1, y1 = _bounds(kind, params)
        cols = np.flatnonzero((xs > x0 - pitch) & (xs < x1 + pitch))
        rows = np.flatnonzero((ys > y0 - pitch) & (ys < y1 + pitch))
        win = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
        sdf = sdf_of[kind](xs[win[1]][None, :], ys[win[0]][:, None], *params)
        yield win, np.clip(0.5 - sdf / pitch, 0.0, 1.0), ink, colour


def logo_gray(rng, width, height) -> np.ndarray:
    """8-bit gray logo: white plate, dark glyphs, anti-aliased edges."""
    level = np.ones((height, width))
    for win, cov, ink, _ in _coverage(_glyph_strokes(rng), width, height):
        level[win] = np.minimum(level[win], 1.0 - cov * (1.0 - ink))
    return np.rint(level * 255.0).astype(np.uint8)


def logo_rgba(rng, width, height) -> np.ndarray:
    """8-bit RGBA logo: coloured glyphs on white, half-transparent left margin."""
    rgb = np.full((height, width, 3), 255.0)
    for win, cov, _, colour in _coverage(_glyph_strokes(rng), width, height):
        cov = cov[..., None]
        painted = 255.0 * (1.0 - cov) + np.asarray(colour, float) * cov
        rgb[win] = np.minimum(rgb[win], painted)
    alpha = np.full((height, width, 1), 255.0)
    alpha[:, : max(1, int(ALPHA_MARGIN * width))] = 128.0
    return np.rint(np.concatenate([rgb, alpha], axis=2)).astype(np.uint8)


# ---------------------------------------------------------------------------
# Encoders (written from RFC 2083 and the Netpbm and STL formats)


def _png_chunk(ctype: bytes, body: bytes) -> bytes:
    crc = zlib.crc32(ctype + body) & 0xFFFFFFFF
    return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)


def _paeth_predict(a, b, c):
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def encode_png(pixels: np.ndarray) -> bytes:
    """8-bit RGBA PNG whose rows cycle through filter types 0..4.

    Filtering reads only unfiltered bytes, so every row is computed at
    once; the decoder has to undo each type in turn.
    """
    height, width, nch = pixels.shape
    raw = pixels.reshape(height, width * nch).astype(np.int16)
    up = np.vstack([np.zeros((1, raw.shape[1]), np.int16), raw[:-1]])
    left = np.hstack([np.zeros((height, nch), np.int16), raw[:, :-nch]])
    upleft = np.hstack([np.zeros((height, nch), np.int16), up[:, :-nch]])
    predictors = [
        np.zeros_like(raw),
        left,
        up,
        (left + up) // 2,
        _paeth_predict(left, up, upleft),
    ]
    ftype = np.arange(height) % 5
    pred = np.choose(ftype[:, None], predictors)
    filtered = ((raw - pred) % 256).astype(np.uint8)
    stream = np.hstack([ftype[:, None].astype(np.uint8), filtered]).tobytes()
    compressed = zlib.compress(stream, 6)
    idat = b"".join(
        _png_chunk(b"IDAT", compressed[i : i + 65536]) for i in range(0, len(compressed), 65536)
    )
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 6, 0, 0, 0)
    return b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr) + idat + _png_chunk(b"IEND", b"")


def encode_p2(gray: np.ndarray) -> bytes:
    """Plain (ASCII) PGM, maxval 255, 16 samples per line."""
    height, width = gray.shape
    flat = [str(int(v)) for v in gray.ravel()]
    lines = [" ".join(flat[i : i + 16]) for i in range(0, len(flat), 16)]
    return f"P2\n# perfbench logo\n{width} {height}\n255\n".encode() + "\n".join(lines).encode() + b"\n"


def solid_triangles(rows: int, cols: int) -> np.ndarray:
    """Outward-wound (T, 3) vertex indices of a grid solid.

    Top vertex (r, c) is r * cols + c, base vertex is that plus
    rows * cols. Each cell splits along its (r, c)-(r+1, c+1) diagonal,
    so every interior vertex is shared by six triangles.
    """
    n = rows * cols
    idx = np.arange(n).reshape(rows, cols)
    a, b = idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel()
    c, d = idx[1:, :-1].ravel(), idx[1:, 1:].ravel()
    top = np.stack([np.stack([a, b, d], 1), np.stack([a, d, c], 1)], 1).reshape(-1, 3)
    base = np.stack([np.stack([a, d, b], 1), np.stack([a, c, d], 1)], 1).reshape(-1, 3) + n

    def wall(t0, t1):
        # One quad per rim edge t0 -> t1, walked with the solid on the left.
        b0, b1 = t0 + n, t1 + n
        return np.stack([np.stack([b0, b1, t1], 1), np.stack([b0, t1, t0], 1)], 1).reshape(-1, 3)

    walls = [
        wall(idx[0, :-1], idx[0, 1:]),  # south, walking +x
        wall(idx[-1, 1:], idx[-1, :-1]),  # north, walking -x
        wall(idx[1:, 0], idx[:-1, 0]),  # west, walking -y
        wall(idx[:-1, -1], idx[1:, -1]),  # east, walking +y
    ]
    return np.vstack([top, base, *walls])


def encode_binary_stl(vertices: np.ndarray, triangles: np.ndarray) -> bytes:
    """Binary STL: 80-byte header, uint32 count, 50-byte records."""
    corners = vertices[triangles]
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    normals = cross / np.linalg.norm(cross, axis=1, keepdims=True)
    record = np.dtype([("n", "<f4", (3,)), ("v", "<f4", (3, 3)), ("attr", "<u2")])
    records = np.zeros(len(triangles), dtype=record)
    records["n"] = normals
    records["v"] = corners
    header = b"perfbench seeded height grid".ljust(80, b"\x00")
    return header + struct.pack("<I", len(triangles)) + records.tobytes()


# ---------------------------------------------------------------------------
# Independent pipeline model (the oracles)


def gray_from_rgba(pixels: np.ndarray) -> np.ndarray:
    """Alpha over white, then Rec. 601 luma with green+blue summed first.

    This follows the documented arithmetic step by step, so intensities
    that land on a transfer breakpoint land on it here too.
    """
    arr = pixels.astype(np.float64) / 255.0
    a = arr[:, :, 3:4]
    rgb = arr[:, :, 0:3] * a + (1.0 - a)
    return 0.299 * rgb[:, :, 0] + (0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2])


def jdrf_heights(gray: np.ndarray, scale: float = 4.0) -> np.ndarray:
    """The jdrf-relief map times ``scale``, rows flipped so row 0 is south.

    0.3 above 0.9, 1.3 below 0.25, -0.5 x + 1.3 on [0.25, 0.9].
    """
    factor = np.where(gray > 0.9, 0.3, np.where(gray < 0.25, 1.3, -0.5 * gray + 1.3))
    return scale * factor[::-1, :]


def fenceposts(n: int, span: float) -> np.ndarray:
    """Sample c at c * span / (n - 1); the last one exactly on ``span``."""
    pos = np.arange(n) * (span / (n - 1))
    pos[-1] = span
    return pos


def prism_volume(x: np.ndarray, y: np.ndarray, h: np.ndarray) -> float:
    """Volume between z = 0 and the diagonal-split surface over the grid.

    Cell (r, c) holds two triangles over its A-D diagonal, so its prism
    volume is width * depth * (2 hA + hB + hC + 2 hD) / 6.
    """
    area = np.diff(y)[:, None] * np.diff(x)[None, :]
    corners = 2 * h[:-1, :-1] + h[:-1, 1:] + h[1:, :-1] + 2 * h[1:, 1:]
    return float(np.sum(area * corners) / 6.0)


def _f32(values: np.ndarray) -> np.ndarray:
    return values.astype(np.float32).astype(np.float64)


def relief_expectations(heights: np.ndarray) -> dict:
    """What convert must report for these heights, and what its STL holds.

    ``volume_mm3`` is the float64 solid; ``volume_f32_mm3`` the same solid
    with every coordinate rounded to float32 as an STL file stores it,
    which is what reading that file back must measure.
    """
    rows, cols = heights.shape
    x, y = fenceposts(cols, WIDTH_MM), fenceposts(rows, DEPTH_MM)
    return {
        "volume_mm3": prism_volume(x, y, heights),
        "volume_f32_mm3": prism_volume(_f32(x), _f32(y), _f32(heights)),
        "bbox_mm": [[0.0, 0.0, 0.0], [WIDTH_MM, DEPTH_MM, float(heights.max())]],
        "input_px": [cols, rows],
    }


def preview_pgm(heights: np.ndarray) -> bytes:
    """The preview rendering: round(255 (h - min) / (max - min)), top row first."""
    img = heights[::-1, :]
    span = img.max() - img.min()
    norm = np.zeros_like(img) if span == 0 else (img - img.min()) / span
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    return header + np.rint(norm * 255).astype(np.uint8).tobytes()


# ---------------------------------------------------------------------------


def _digest(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def generate(workload: str, seed: int, out: Path, size: str = "full", negative: bool = False) -> dict:
    """Write the workload's inputs into ``out``; return the manifest."""
    rng = np.random.default_rng([seed, sorted(SIZES).index(workload)])
    width, height = SIZES[workload][size]
    files: dict[str, bytes] = {}
    if workload in ("logo-convert", "png-preview"):
        pixels = logo_rgba(rng, width, height)
        files["logo.png"] = encode_png(pixels)
        heights = jdrf_heights(gray_from_rgba(pixels))
        if workload == "logo-convert":
            expect = relief_expectations(heights)
        else:
            expect = {"pgm": _digest(preview_pgm(heights))}
    elif workload == "text-roundtrip":
        gray = logo_gray(rng, width, height)
        files["logo.pgm"] = encode_p2(gray)
        expect = relief_expectations(jdrf_heights(gray / 255.0))
    else:
        cols, rows = width, height
        heights = rng.uniform(0.5, 5.5, size=(rows, cols))
        x, y = fenceposts(cols, WIDTH_MM), fenceposts(rows, DEPTH_MM)
        top = np.column_stack([np.tile(x, rows), np.repeat(y, cols), heights.ravel()])
        base = top * [1.0, 1.0, 0.0]
        vertices = _f32(np.vstack([top, base]))
        tris = solid_triangles(rows, cols)
        files["grid.stl"] = encode_binary_stl(vertices, tris)
        expect = relief_expectations(heights)
        for key in ("volume_mm3", "input_px", "bbox_mm"):
            expect.pop(key)
        expect["vertices"] = len(vertices)
        expect["triangles"] = len(tris)
        if negative:
            flipped = tris.copy()
            flipped[0] = flipped[0, ::-1]
            files["flipped.stl"] = encode_binary_stl(vertices, flipped)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data)
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "numpy": np.__version__,
        "inputs": {name: _digest(data) for name, data in files.items()},
        "expect": expect,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--negative", action="store_true", help="also write a broken STL")
    args = p.parse_args(argv)
    manifest = generate(
        args.workload, args.seed, args.out, "tiny" if args.tiny else "full", args.negative
    )
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
