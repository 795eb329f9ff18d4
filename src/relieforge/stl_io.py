"""Binary and ASCII STL emission and parsing.

Binary layout is the classic one: an 80-byte header that must not start
with "solid", a little-endian uint32 triangle count, then one 50-byte
record per triangle (normal + three vertices as float32 triples, plus a
zeroed uint16 attribute).  A well-formed file is therefore exactly
84 + 50*T bytes, which doubles as the truncation check when reading.

Both writers recompute normals from the winding in float64 and narrow
every number to float32 exactly once at serialization; the ASCII writer
prints the shortest decimal that round-trips to the same float32, so a
binary/ASCII pair of the same mesh parses back bit-identically.
"""

from __future__ import annotations

import math
import struct
from os import PathLike
from typing import BinaryIO, Iterator

import numpy as np

from .errors import ByteParseError, LineParseError
from .mesh import TriangleMesh, face_normals

__all__ = [
    "StlTruncationError",
    "AsciiStlError",
    "write_binary_stl",
    "write_ascii_stl",
    "read_stl",
    "BINARY_HEADER_TEXT",
]

BINARY_HEADER_TEXT = b"relieforge binary STL"
_SOLID_NAME = "relieforge"
_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attr", "<u2")])


class StlTruncationError(ByteParseError):
    """Binary STL whose byte length disagrees with its triangle count."""


class AsciiStlError(LineParseError):
    """ASCII STL that violates the solid/facet/loop grammar."""


def _write_bytes(target, payload: bytes) -> int:
    if hasattr(target, "write"):
        target.write(payload)
    else:
        with open(target, "wb") as fh:
            fh.write(payload)
    return len(payload)


def write_binary_stl(mesh: TriangleMesh, target: str | PathLike | BinaryIO) -> int:
    """Write the compact binary form; returns bytes written (84 + 50*T)."""
    corners = mesh.vertices[mesh.triangles]
    records = np.zeros(len(corners), dtype=_RECORD)
    records["normal"] = face_normals(corners).astype(np.float32)
    records["vertices"] = corners.astype(np.float32)
    header = BINARY_HEADER_TEXT.ljust(80, b"\x00")
    payload = header + struct.pack("<I", len(corners)) + records.tobytes()
    return _write_bytes(target, payload)


def _fmt(value: float) -> str:
    """Shortest decimal string that parses back to the same float32."""
    return str(np.float32(value))


def write_ascii_stl(
    mesh: TriangleMesh, target: str | PathLike | BinaryIO, name: str = _SOLID_NAME
) -> int:
    """Write the human-readable form; returns bytes written."""
    if "\n" in name or "\r" in name:
        raise ValueError("solid name must not contain newlines")
    corners = mesh.vertices[mesh.triangles]
    normals = face_normals(corners)
    lines = [f"solid {name}"]
    for tri, normal in zip(corners, normals):
        nx, ny, nz = (_fmt(v) for v in normal)
        lines.append(f"  facet normal {nx} {ny} {nz}")
        lines.append("    outer loop")
        for vx, vy, vz in tri:
            lines.append(f"      vertex {_fmt(vx)} {_fmt(vy)} {_fmt(vz)}")
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append(f"endsolid {name}")
    lines.append("")
    return _write_bytes(target, "\n".join(lines).encode("ascii"))


def _mesh_from_soup(corner_soup: np.ndarray) -> TriangleMesh:
    """Weld a finite float32 (T, 3, 3) corner soup into an indexed mesh.

    Corners weld by exact equality -- parsing must not invent tolerances
    the file does not contain. Adding +0.0 turns -0.0 into 0.0; after
    that, equal finite float32 values have equal bit patterns, so one
    integer sort of the (x, y, z) bits groups equal corners.
    """
    flat = (corner_soup + np.float32(0.0)).reshape(-1, 3)
    if len(flat) == 0:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    bits = flat.view(np.uint32)
    xy = (bits[:, 0].astype(np.uint64) << 32) | bits[:, 1]
    z = bits[:, 2]
    order = np.lexsort((z, xy))
    xy, z = xy[order], z[order]
    new = np.concatenate([[True], (xy[1:] != xy[:-1]) | (z[1:] != z[:-1])])
    inverse = np.empty(len(flat), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return TriangleMesh(flat[order[new]], inverse.reshape(-1, 3))


def _parse_binary(data: bytes) -> TriangleMesh:
    if len(data) < 84:
        raise StlTruncationError(
            f"need at least 84 bytes for a binary STL, got {len(data)}", offset=len(data)
        )
    (count,) = struct.unpack_from("<I", data, 80)
    expected = 84 + 50 * count
    if len(data) != expected:
        raise StlTruncationError(
            f"binary STL declares {count} triangles ({expected} bytes) but file has"
            f" {len(data)} bytes",
            offset=min(len(data), expected),
        )
    corners = np.frombuffer(data, dtype=_RECORD, count=count, offset=84)["vertices"]
    finite = np.isfinite(corners).reshape(count, 9).all(axis=1)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ByteParseError(
            f"triangle {first} has a non-finite vertex coordinate", offset=84 + 50 * first + 12
        )
    return _mesh_from_soup(corners)


def _ascii_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens:
            yield lineno, tokens


def _take(stream: Iterator[tuple[int, list[str]]], last_line: int) -> tuple[int, list[str]]:
    try:
        return next(stream)
    except StopIteration:
        raise AsciiStlError("unexpected end of file inside solid", line=last_line) from None


def _expect(tokens: list[str], lineno: int, *words: str) -> None:
    got = tokens[: len(words)]
    if [w.lower() for w in got] != list(words):
        raise AsciiStlError(
            f"expected '{' '.join(words)}', got '{' '.join(tokens)}'", line=lineno
        )


def _floats(tokens: list[str], lineno: int, start: int, n: int) -> list[float]:
    slot = tokens[start : start + n]
    if len(slot) != n or len(tokens) != start + n:
        raise AsciiStlError(
            f"expected {n} numbers, got '{' '.join(tokens[start:])}'", line=lineno
        )
    out = []
    for tok in slot:
        try:
            # Narrow through float32 so ASCII and binary files of the
            # same mesh parse to bit-identical coordinates.
            out.append(float(np.float32(tok)))
        except ValueError:
            raise AsciiStlError(f"bad number '{tok}'", line=lineno) from None
    return out


def _parse_ascii(data: bytes) -> TriangleMesh:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise AsciiStlError("not decodable as ASCII text", line=line) from None
    stream = _ascii_lines(text)
    lineno, tokens = _take(stream, 0)
    _expect(tokens, lineno, "solid")

    corners: list[list[float]] = []
    while True:
        lineno, tokens = _take(stream, lineno)
        if tokens[0].lower() == "endsolid":
            break
        _expect(tokens, lineno, "facet", "normal")
        _floats(tokens, lineno, 2, 3)  # grammar only; writers use the winding
        lineno, tokens = _take(stream, lineno)
        _expect(tokens, lineno, "outer", "loop")
        for _ in range(3):
            lineno, tokens = _take(stream, lineno)
            _expect(tokens, lineno, "vertex")
            xyz = _floats(tokens, lineno, 1, 3)
            if not all(map(math.isfinite, xyz)):
                raise AsciiStlError(f"non-finite vertex '{' '.join(tokens[1:])}'", line=lineno)
            corners.append(xyz)
        lineno, tokens = _take(stream, lineno)
        _expect(tokens, lineno, "endloop")
        lineno, tokens = _take(stream, lineno)
        _expect(tokens, lineno, "endfacet")

    for extra_lineno, extra in stream:
        raise AsciiStlError(f"content after endsolid: '{' '.join(extra)}'", line=extra_lineno)

    return _mesh_from_soup(np.asarray(corners, dtype=np.float32).reshape(-1, 3, 3))


def read_stl(source: str | PathLike | bytes) -> TriangleMesh:
    """Parse an STL file, sniffing ASCII ("solid" prefix) vs binary.

    A file that leads with "solid" but fails the ASCII grammar is given
    one chance as binary (some exporters write such files); if both
    parses fail, the ASCII error -- the more informative one -- is raised.
    """
    if isinstance(source, bytes):
        data = source
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    if data[:5] == b"solid":
        try:
            return _parse_ascii(data)
        except AsciiStlError as ascii_err:
            try:
                return _parse_binary(data)
            except ByteParseError:
                raise ascii_err from None
    return _parse_binary(data)
