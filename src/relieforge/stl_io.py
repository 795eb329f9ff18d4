"""Binary and ASCII STL emission and parsing.

Binary layout is the classic one: an 80-byte header that must not start
with "solid", a little-endian uint32 triangle count, then one 50-byte
record per triangle (normal + three vertices as float32 triples, plus a
zeroed uint16 attribute).  A well-formed file is therefore exactly
84 + 50*T bytes, which doubles as the truncation check when reading.

Both writers recompute normals from the winding in float64 and narrow
every number to float32 exactly once at serialization, in blocks of
facets that bound the memory held at once. The ASCII writer
prints each number as the shortest decimal that round-trips to the same
float32, formatting each distinct bit pattern once, so its bytes depend
only on the mesh and a binary/ASCII pair of the same mesh parses back
bit-identically.

The ASCII reader works on the raw bytes in whole-array passes. Lines
break as str.splitlines() breaks them and split into words on
str.split() whitespace; keywords match in any case, blank lines are
skipped, and the first offending line is reported by that line number.
See _parse_ascii for the grammar.
"""

from __future__ import annotations

import itertools
import struct
from os import PathLike
from typing import BinaryIO, Iterable, Iterator

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


def _write_bytes(target, chunks: Iterable[bytes]) -> int:
    """Write chunks in order to a path or binary file; returns bytes written."""
    if not hasattr(target, "write"):
        with open(target, "wb") as fh:
            return _write_bytes(fh, chunks)
    total = 0
    for chunk in chunks:
        target.write(chunk)
        total += len(chunk)
    return total


# Facets narrowed per block, which bounds the memory and text held at once.
_CHUNK = 1 << 15


def _facets(mesh: TriangleMesh) -> Iterator[np.ndarray]:
    """float32 (n, 4, 3) blocks of up to _CHUNK facets: normal, then corners."""
    for lo in range(0, mesh.triangle_count, _CHUNK):
        corners = mesh.vertices[mesh.triangles[lo : lo + _CHUNK]]
        with np.errstate(over="ignore"):
            block = np.concatenate([face_normals(corners)[:, None], corners], axis=1)
            block = block.astype(np.float32)
        yield block  # outside errstate, which must not leak to the caller


def write_binary_stl(mesh: TriangleMesh, target: str | PathLike | BinaryIO) -> int:
    """Write the compact binary form; returns bytes written (84 + 50*T)."""
    records = np.zeros(_CHUNK, dtype=_RECORD)

    def blocks() -> Iterator[bytes]:
        for facets in _facets(mesh):
            n = len(facets)
            records["normal"][:n] = facets[:, 0]
            records["vertices"][:n] = facets[:, 1:]
            yield records[:n].tobytes()

    header = BINARY_HEADER_TEXT.ljust(80, b"\x00") + struct.pack("<I", mesh.triangle_count)
    return _write_bytes(target, itertools.chain([header], blocks()))


# One facet of ASCII output: three normal and nine vertex slots.
_FACET = (
    "  facet normal {} {} {}\n"
    "    outer loop\n"
    "      vertex {} {} {}\n"
    "      vertex {} {} {}\n"
    "      vertex {} {} {}\n"
    "    endloop\n"
    "  endfacet\n"
)


def _ascii_facets(facets: np.ndarray) -> bytes:
    bits, inverse = np.unique(facets.view(np.uint32).ravel(), return_inverse=True)
    words = np.array([str(v) for v in bits.view(np.float32)], dtype=object)
    return (_FACET * len(facets)).format(*words[inverse].tolist()).encode("ascii")


def write_ascii_stl(
    mesh: TriangleMesh, target: str | PathLike | BinaryIO, name: str = _SOLID_NAME
) -> int:
    """Write the human-readable form; returns bytes written.

    Every number is narrowed to float32 and printed as str(np.float32),
    the shortest decimal that parses back to the same float32, so the
    bytes depend only on the mesh. Equal bit patterns print equally:
    each distinct pattern is formatted once (-0.0 and 0.0 differ in
    bits and print differently) and a block of facets is filled in by
    one str.format call. Lines end in "\n".
    """
    if "\n" in name or "\r" in name:
        raise ValueError("solid name must not contain newlines")
    head = f"solid {name}\n".encode("ascii")
    tail = f"endsolid {name}\n".encode("ascii")
    blocks = map(_ascii_facets, _facets(mesh))
    return _write_bytes(target, itertools.chain([head], blocks, [tail]))


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


# ASCII byte classes: str.split() whitespace, str.splitlines() breaks
# ("\r\n" is one break, handled in _line_of), and lower-casing.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b"\t\n\v\f\r\x1c\x1d\x1e\x1f ")] = True
_BREAK = np.zeros(256, dtype=bool)
_BREAK[list(b"\n\v\f\r\x1c\x1d\x1e")] = True
_LOWER = np.arange(256, dtype=np.uint8)
_LOWER[ord("A") : ord("Z") + 1] += 32


def _code(word: str) -> np.uint64:
    return np.frombuffer(word.encode("ascii").ljust(8), dtype="<u8")[0]


# The seven lines of a facet: leading keywords, and whether three
# numbers follow them (exactly, with nothing after).
_FACET_LINES = (
    (("facet", "normal"), True),
    (("outer", "loop"), False),
    (("vertex",), True),
    (("vertex",), True),
    (("vertex",), True),
    (("endloop",), False),
    (("endfacet",), False),
)
_WORD0 = np.array([_code(words[0]) for words, _ in _FACET_LINES])
_WORD1 = np.array([_code(words[1]) if len(words) > 1 else 0 for words, _ in _FACET_LINES])
_TWO_WORDS = _WORD1 != 0
_EXACT_TOKENS = np.array([len(words) + 3 if nums else 0 for words, nums in _FACET_LINES])
_VERTEX_LINE = _WORD0 == _code("vertex")
_SOLID, _ENDSOLID = _code("solid"), _code("endsolid")


# Number tokens parsed per pass.
_NUMBER_BLOCK = 1 << 16


def _tokens(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the maximal non-whitespace runs."""
    n = len(buf)
    space = _SPACE[buf]
    edge = np.zeros(n + 1, dtype=bool)
    if n:
        edge[0], edge[n] = not space[0], not space[-1]
        np.not_equal(space[1:], space[:-1], out=edge[1:n])
    del space
    bounds = np.flatnonzero(edge)
    del edge
    bounds = bounds.astype(np.int32 if n < 2**31 else np.int64)
    return bounds[0::2], bounds[1::2]


def _line_of(buf: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """1-based str.splitlines() line number of each offset."""
    breaks = np.flatnonzero(_BREAK[buf])
    after = buf[np.minimum(breaks + 1, len(buf) - 1)]
    breaks = breaks[~((buf[breaks] == ord("\r")) & (after == ord("\n")))]
    return (np.searchsorted(breaks, starts) + 1).astype(starts.dtype)


def _rows(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """Each token as a row of ``width`` bytes, padded with spaces.

    ``starts`` must be sorted; bytes of a row past its token (or past
    the end of ``buf``) read as spaces.
    """
    def items(source: np.ndarray) -> np.ndarray:
        # Every width-byte window of source, as one overlapping void item per offset.
        return np.ndarray((len(source) - width + 1,), f"V{width}", buffer=source, strides=(1,))

    rows = np.empty(len(starts), dtype=f"V{width}")
    lo = max(len(buf) - width + 1, 0)  # windows from lo on run off the end
    split = int(np.searchsorted(starts, lo))
    if split:
        rows[:split] = items(buf)[starts[:split]]
    tail = np.concatenate([buf[lo:], np.full(width, ord(" "), dtype=np.uint8)])
    rows[split:] = items(tail)[starts[split:] - lo]
    rows = rows.view(np.uint8).reshape(-1, width)
    rows[np.arange(width) >= lengths[:, None]] = ord(" ")
    return rows


def _keywords(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Lower-cased tokens as _code() integers; tokens over 8 bytes give 0."""
    codes = _LOWER[_rows(buf, starts, lengths, 8)].view("<u8").ravel()
    codes[lengths > 8] = 0
    return codes


def _float64(fields: np.ndarray) -> tuple[np.ndarray, int]:
    """Parse an ``S`` array; returns the values before the first field
    float() rejects, and that field's index (len(fields) if none)."""
    try:
        return fields.astype(np.float64), len(fields)
    except ValueError:
        lo, hi = 0, len(fields)  # all before lo parse; the first failure is below hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                fields[lo:mid].astype(np.float64)
                lo = mid
            except ValueError:
                hi = mid
        return fields[:lo].astype(np.float64), lo


def _numbers(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """float() of each token, and the index of the first it rejects.

    Values from that index on are not meaningful. Tokens become
    space-padded ``S`` fields, grouped by a power-of-two width above
    their length: the fields take at most about twice the bytes of the
    tokens, and a trailing NUL byte, which float() rejects, never ends
    a field, where numpy would drop it. Blocks of tokens bound the
    memory held at once.
    """
    values = np.empty(len(starts))
    for lo in range(0, len(starts), _NUMBER_BLOCK):
        block = slice(lo, lo + _NUMBER_BLOCK)
        exponent = np.maximum(np.frexp(lengths[block])[1], 4)
        first_bad = len(starts)
        for e in np.unique(exponent):
            pick = np.flatnonzero(exponent == e)
            width = 1 << int(e)
            fields = _rows(buf, starts[block][pick], lengths[block][pick], width)
            parsed, bad = _float64(fields.view(f"S{width}").ravel())
            values[lo + pick[:bad]] = parsed
            if bad < len(pick):
                first_bad = min(first_bad, lo + int(pick[bad]))
        if first_bad < len(starts):
            return values, first_bad
    return values, len(starts)


def _line_error(tokens: list[str], lineno: int, words: tuple[str, ...]) -> AsciiStlError:
    """The error for a line the grammar rejects, checked in this order:
    leading keywords, count of numbers, each number, finite vertex."""
    if [w.lower() for w in tokens[: len(words)]] != list(words):
        return AsciiStlError(f"expected '{' '.join(words)}', got '{' '.join(tokens)}'", line=lineno)
    rest = tokens[len(words) :]
    if len(rest) != 3:
        return AsciiStlError(f"expected 3 numbers, got '{' '.join(rest)}'", line=lineno)
    for tok in rest:
        try:
            float(tok)
        except ValueError:
            return AsciiStlError(f"bad number '{tok}'", line=lineno)
    return AsciiStlError(f"non-finite vertex '{' '.join(rest)}'", line=lineno)


def _parse_ascii(data: bytes) -> TriangleMesh:
    """Parse ASCII STL text in whole-array passes over its bytes.

    Grammar: a ``solid`` line, then seven lines per facet (``facet
    normal`` n n n / ``outer loop`` / three ``vertex`` x y z /
    ``endloop`` / ``endfacet``), then ``endsolid``, after which only
    blank lines may follow. Keywords match in any case; lines split on
    str.split() whitespace, and blank lines are skipped. Tokens after
    the keywords of the solid, outer loop, endloop, endfacet and
    endsolid lines are ignored; number lines must hold exactly three
    numbers, each in float()'s grammar. Numbers narrow str -> float64 ->
    float32, so ASCII and binary files of the same mesh parse to
    bit-identical coordinates, and a vertex must stay finite in float32.

    Errors name the first offending line, numbered as str.splitlines()
    numbers lines ("\n", "\r", "\r\n", "\v", "\f" and "\x1c"-"\x1e"
    each end one), and their message is built from that line alone. A
    missing line is reported at the last non-blank line; a non-ASCII
    byte at 1 + the number of "\n" before it.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if len(buf) and buf.max() >= 0x80:
        line = data.count(b"\n", 0, int(np.argmax(buf >= 0x80))) + 1
        raise AsciiStlError("not decodable as ASCII text", line=line)
    starts, ends = _tokens(buf)
    lengths = ends - starts
    del ends
    token_line = _line_of(buf, starts)
    first = np.flatnonzero(np.diff(token_line, prepend=0))  # first token of each non-blank line
    lineno = token_line[first]
    del token_line
    ntok = np.diff(first, append=len(starts))
    kw0 = _keywords(buf, starts[first], lengths[first])
    second = np.minimum(first + 1, max(len(starts) - 1, 0))
    kw1 = np.where(ntok > 1, _keywords(buf, starts[second], lengths[second]), 0)

    # Line k >= 1 plays role (k - 1) % 7 of a facet; the solid ends at
    # the first "endsolid" in a facet's first place.
    role = (np.arange(len(first)) - 1) % 7
    closing = np.flatnonzero((kw0 == _ENDSOLID) & (role == 0))
    stop = int(closing[0]) if len(closing) else len(first)
    r = role[1:stop]
    fits = (
        (kw0[1:stop] == _WORD0[r])
        & (~_TWO_WORDS[r] | (kw1[1:stop] == _WORD1[r]))
        & ((_EXACT_TOKENS[r] == 0) | (ntok[1:stop] == _EXACT_TOKENS[r]))
    )
    if len(first) and kw0[0] != _SOLID:
        bad = 0
    else:
        bad = 1 + int(np.argmin(fits)) if not fits.all() else stop
    del kw0, kw1, fits

    # Three numbers close each facet normal and vertex line before the
    # first misfit; a vertex must also be finite once narrowed.
    numbered = np.flatnonzero(_EXACT_TOKENS[role[1:bad]] > 0) + 1
    nums_from = first[numbered] + np.where(role[numbered] == 0, 2, 1)
    picks = (nums_from[:, None] + np.arange(3)).ravel()
    values, bad_token = _numbers(buf, starts[picks], lengths[picks])
    if bad_token < len(values):
        bad = min(bad, int(numbered[bad_token // 3]))
    whole = numbered[: bad_token // 3]
    vertex = _VERTEX_LINE[role[whole]]
    with np.errstate(over="ignore"):
        xyz = values[: 3 * len(whole)].reshape(-1, 3)[vertex].astype(np.float32)
    finite = np.isfinite(xyz).all(axis=1)
    if not finite.all():
        bad = min(bad, int(whole[vertex][np.argmin(finite)]))

    def words(k: int) -> list[str]:
        span = slice(first[k], first[k] + ntok[k])
        return [data[a : a + n].decode("ascii") for a, n in zip(starts[span], lengths[span])]

    if bad < stop:
        keywords = ("solid",) if bad == 0 else _FACET_LINES[role[bad]][0]
        raise _line_error(words(bad), int(lineno[bad]), keywords)
    if stop == len(first):
        last = int(lineno[-1]) if len(first) else 0
        raise AsciiStlError("unexpected end of file inside solid", line=last)
    if stop + 1 < len(first):
        extra = " ".join(words(stop + 1))
        raise AsciiStlError(f"content after endsolid: '{extra}'", line=int(lineno[stop + 1]))
    return _mesh_from_soup(xyz.reshape(-1, 3, 3))


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
