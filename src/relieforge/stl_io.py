"""Binary and ASCII STL emission and parsing.

Binary layout is the classic one: an 80-byte header that must not start
with "solid", a little-endian uint32 triangle count, then one 50-byte
record per triangle (normal + three vertices as float32 triples, plus a
zeroed uint16 attribute).  A well-formed file is therefore exactly
84 + 50*T bytes, which doubles as the truncation check when reading;
the reader checks it first and then reads the records three times, a
block at a time (see _mesh_from_soup).

Both writers recompute normals from the winding in float64 and narrow
every number to float32 exactly once at serialization, in blocks of
facets that bound the memory held at once. The ASCII writer
prints each number as the shortest decimal that round-trips to the same
float32, formatting each distinct bit pattern once, so its bytes depend
only on the mesh and a binary/ASCII pair of the same mesh parses back
bit-identically.

The ASCII reader matches one compiled pattern per facet over the raw
bytes and converts the captured numbers a block of facets at a time;
where the pattern stops, a line walker reports the first offending line
or accepts the end of the solid. Lines break as str.splitlines() breaks
them and split into words on str.split() whitespace; keywords match in
any case and blank lines are skipped. See _parse_ascii for the grammar.
"""

from __future__ import annotations

import io
import itertools
import re
import struct
from os import PathLike
from typing import BinaryIO, Iterable, Iterator, NoReturn

import numpy as np

from .errors import ByteParseError, LineParseError
from .mesh import _CHUNK, TriangleMesh, _edge_cross, face_normals

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


def _write_bytes(target, chunks: Iterable[bytes | np.ndarray]) -> int:
    """Write chunks in order to a path or binary file; returns bytes written.

    A chunk is bytes or a 1-D uint8 array. Each is written before the
    next is asked for, so a chunk may be a view of a buffer that the
    next one overwrites.
    """
    if not hasattr(target, "write"):
        with open(target, "wb") as fh:
            return _write_bytes(fh, chunks)
    total = 0
    for chunk in chunks:
        target.write(chunk)
        total += len(chunk)
    return total


def _fill_facets(rows: np.ndarray, corners: list) -> None:
    """Store the facets of triangles, given as their corners' coordinate arrays, in _RECORD rows.

    Each normal is the edges' cross product over its length (see
    mesh._edge_cross), zero for a zero-area triangle. Normals and
    corners narrow from float64 to float32 as they are stored, so each
    facet is bit-equal to face_normals and its corners narrowed whole.
    """
    cross, length = _edge_cross(*corners)
    length[length == 0.0] = 1.0
    for i in range(3):
        rows["normal"][:, i] = cross[i] / length
        for k in range(3):
            rows["vertices"][:, k, i] = corners[k][i]


def _record_bytes(mesh: TriangleMesh) -> Iterator[np.ndarray]:
    """Blocks of up to _CHUNK binary records, as uint8 views of one buffer.

    Each block overwrites the one before it, so a block must be used
    before the next is asked for. Beside the buffer, a block's
    temporaries are held only while it is filled (see _fill_facets).
    """
    records = np.zeros(min(_CHUNK, mesh.triangle_count), dtype=_RECORD)
    columns = mesh.vertices.T
    for lo in range(0, mesh.triangle_count, _CHUNK):
        block = mesh.triangles[lo : lo + _CHUNK]
        rows = records[: len(block)]
        with np.errstate(over="ignore"):
            _fill_facets(rows, [[axis[block[:, k]] for axis in columns] for k in range(3)])
        yield rows.view(np.uint8)  # outside errstate, which must not leak to the caller


def _facets(mesh: TriangleMesh) -> Iterator[np.ndarray]:
    """float32 (n, 4, 3) blocks of up to _CHUNK facets: normal, then corners."""
    for lo in range(0, mesh.triangle_count, _CHUNK):
        corners = mesh.vertices[mesh.triangles[lo : lo + _CHUNK]]
        with np.errstate(over="ignore"):
            block = np.concatenate([face_normals(corners)[:, None], corners], axis=1)
            block = block.astype(np.float32)
        yield block  # outside errstate, which must not leak to the caller


def write_binary_stl(mesh: TriangleMesh, target: str | PathLike | BinaryIO) -> int:
    """Write the compact binary form; returns bytes written (84 + 50*T).

    Each block of records goes to the file as a view of the one buffer
    it is filled into (see _record_bytes), so beside the mesh the writer
    holds that buffer and one block's temporaries, however many
    triangles there are.
    """
    header = BINARY_HEADER_TEXT.ljust(80, b"\x00") + struct.pack("<I", mesh.triangle_count)
    return _write_bytes(target, itertools.chain([header], _record_bytes(mesh)))


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


def _mesh_from_soup(blocks: Iterable[np.ndarray], count: int) -> TriangleMesh:
    """Weld float32 (n, 3, 3) corner blocks, ``count`` triangles in all, into a mesh.

    Corners weld by exact equality -- parsing must not invent tolerances
    the file does not contain. Adding +0.0 turns -0.0 into 0.0; after
    that, equal finite float32 values have equal bit patterns. ``blocks``
    is read three times, so it must give the same blocks on each pass, as
    a list does. No block is kept: the first pass writes each corner's
    (x, y) bits into one uint64 key. Ranking those keys makes
    (rank << 32) | z a 64-bit vertex key (below 1.4e9 triangles there
    are under 2**32 ranks), and the second pass ORs each corner's z bits
    into its shifted rank, so a corner takes 16 bytes at most: its key
    and its place in a sort order. Ranking those numbers the vertices in
    the order of their (x, y, z) bits, each rank written over the key it
    ranks (see _ranks), and the third pass writes each corner's
    coordinates over its vertex, one corner of each triangle at a time.
    """
    xy = np.empty(3 * count, dtype=np.uint64)
    lo = 0
    for corners in blocks:
        bits = (corners + np.float32(0.0)).reshape(-1, 3).view(np.uint32)
        hi = lo + len(bits)
        xy[lo:hi] = bits[:, 0]
        xy[lo:hi] <<= 32
        xy[lo:hi] |= bits[:, 1]
        lo = hi
    corners = bits = None  # a binary file's last block is a view of its record buffer
    key = _ranks(xy)[1].view(np.uint64)  # a rank from 2**31 on shifts into the top bit
    key <<= 32
    lo = 0
    for corners in blocks:
        bits = (corners[:, :, 2] + np.float32(0.0)).view(np.uint32).ravel()
        hi = lo + len(bits)
        key[lo:hi] |= bits
        lo = hi
    corners = bits = None
    vertex_count, inverse = _ranks(key)
    triangles = inverse.reshape(-1, 3)
    vertices = np.empty((vertex_count, 3))
    item = np.dtype((np.void, 24))  # a vertex's coordinates as one item, which scatters faster
    rows = vertices.view(item)[:, 0]
    lo = 0
    for corners in blocks:
        hi = lo + len(corners)
        for k in range(3):
            rows[triangles[lo:hi, k]] = np.add(corners[:, k], 0.0, dtype=float).view(item)[:, 0]
        lo = hi
    return TriangleMesh(vertices, triangles)


def _ranks(keys: np.ndarray) -> tuple[int, np.ndarray]:
    """The number of distinct uint64 keys, and each key's rank among them.

    The indices are written over ``keys``, which comes back viewed as
    int64. One argsort orders the keys; then, _CHUNK places of the order
    at a time, the keys are gathered, the starts of runs of equal keys
    give the block's running ranks, and the ranks are scattered back
    through the order. Beside the keys, only the order is held whole. No
    step is a binary search, whose cost climbs when keys come in random
    order, as the corners of a shuffled file do.
    """
    order = np.argsort(keys)
    ranks = keys.view(np.int64)
    done, last = 0, None
    for lo in range(0, len(keys), _CHUNK):
        at = order[lo : lo + _CHUNK]
        run = keys[at]  # earlier blocks wrote only to their own places
        starts = np.empty(len(run), dtype=bool)
        starts[0] = last is None or run[0] != last
        np.not_equal(run[1:], run[:-1], out=starts[1:])
        last = run[-1]
        rank = np.cumsum(starts, dtype=np.int64)
        rank += done - 1
        done = int(rank[-1]) + 1
        ranks[at] = rank
    del order
    return done, ranks


class _Records:
    """The corner blocks of a binary STL's ``count`` records, _CHUNK at a time.

    Each pass seeks to byte 84 and reads the records again into one
    buffer, so a pass holds one block of records whatever the count.
    Every pass checks every block: a short read raises
    StlTruncationError, a non-finite coordinate ByteParseError at its
    triangle's offset.
    """

    def __init__(self, fh: BinaryIO, count: int):
        self.fh, self.count = fh, count

    def __iter__(self) -> Iterator[np.ndarray]:
        fh, count = self.fh, self.count
        fh.seek(84)
        records = np.empty(min(_CHUNK, count), dtype=_RECORD)
        for lo in range(0, count, _CHUNK):
            block = records[: min(_CHUNK, count - lo)]
            got = fh.readinto(block)
            if got != block.nbytes:  # the file shrank after its size was read
                raise StlTruncationError(
                    f"binary STL ends at byte {84 + 50 * lo + got} of {84 + 50 * count}",
                    offset=84 + 50 * lo + got,
                )
            corners = block["vertices"]
            if not np.isfinite(corners).all():
                finite = np.isfinite(corners).reshape(len(block), 9).all(axis=1)
                first = lo + int(np.argmin(finite))
                raise ByteParseError(
                    f"triangle {first} has a non-finite vertex coordinate",
                    offset=84 + 50 * first + 12,
                )
            yield corners


def _parse_binary(fh: BinaryIO) -> TriangleMesh:
    """Parse a binary STL from a seekable file, _CHUNK records at a time.

    The file's length is checked against its declared triangle count
    before anything is allocated by that count. The weld reads the
    records three times (see _Records and _mesh_from_soup), each pass
    with the same checks, so records that change between the passes are
    refused as the first pass would refuse them.
    """
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    header = fh.read(84)
    if size < 84:
        raise StlTruncationError(
            f"need at least 84 bytes for a binary STL, got {size}", offset=size
        )
    (count,) = struct.unpack_from("<I", header, 80)
    expected = 84 + 50 * count
    if size != expected:
        raise StlTruncationError(
            f"binary STL declares {count} triangles ({expected} bytes) but file has"
            f" {size} bytes",
            offset=min(size, expected),
        )
    return _mesh_from_soup(_Records(fh, count), count)


# ASCII grammar classes: str.splitlines() ends a line at each byte of
# _BREAKS ("\r\n" counts once), and str.split() also splits on " \t\x1f".
# Bytes-mode \s would leave out "\x1c"-"\x1f", so the classes are spelt out.
_BREAKS = b"\n\r\v\f\x1c\x1d\x1e"
_S = rb"[ \t\x1f]"  # whitespace inside a line
_EOL = rb"(?=[\n\r\v\f\x1c-\x1e]|\Z)"
_GAP = rb"[ \t\x1f\n\r\v\f\x1c-\x1e]*"  # line breaks and blank lines
_XYZ = (_S + rb"+([^ \t\x1f\n\r\v\f\x1c-\x1e]+)") * 3 + _S + rb"*" + _EOL
_TAIL = rb"(?:" + _S + rb"[^\n\r\v\f\x1c-\x1e]*)?" + _EOL  # ignored words
_LINE_PATTERN = re.compile(_GAP + rb"([^\n\r\v\f\x1c-\x1e]*)")  # the next non-blank line
_SOLID_PATTERN = re.compile(_GAP + rb"solid" + _TAIL, re.I)
_FACET_PATTERN = re.compile(
    _GAP + rb"facet" + _S + rb"+normal" + _XYZ
    + _GAP + rb"outer" + _S + rb"+loop" + _TAIL
    + (_GAP + rb"vertex" + _XYZ) * 3
    + _GAP + rb"endloop" + _TAIL
    + _GAP + rb"endfacet" + _TAIL,
    re.I,
)

# Facets whose number words are held at once while parsing ASCII.
_PARSE_CHUNK = 1 << 12


def _float32(values) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.asarray(values, dtype=np.float64).astype(np.float32)


def _walk(data: bytes, pos: int) -> None:
    """Check ASCII STL from ``pos`` on, one line at a time.

    ``pos`` is 0, before the solid line, or the end of the solid line or
    of an endfacet line. Raises the first offending line's AsciiStlError;
    returns if only whole facets follow, which it does not record, then
    endsolid and blank lines.
    """
    lines = (
        (line.start(1), words)
        for line in _LINE_PATTERN.finditer(data, pos)
        if (words := line[1].decode("ascii").split())
    )
    last = pos or None  # an offset on the last non-blank line read

    def fail(message: str) -> NoReturn:
        if last is None:
            raise AsciiStlError(message, line=0)
        breaks = sum(data.count(c, 0, last) for c in _BREAKS) - data.count(b"\r\n", 0, last)
        raise AsciiStlError(message, line=breaks + 1)

    def take() -> list[str]:
        nonlocal last
        try:
            last, words = next(lines)
        except StopIteration:
            fail("unexpected end of file inside solid")
        return words

    def expect(words: list[str], *keywords: str, numbers: bool = False) -> None:
        if [w.lower() for w in words[: len(keywords)]] != list(keywords):
            fail(f"expected '{' '.join(keywords)}', got '{' '.join(words)}'")
        if not numbers:
            return
        rest = words[len(keywords) :]
        if len(rest) != 3:
            fail(f"expected 3 numbers, got '{' '.join(rest)}'")
        for word in rest:
            try:
                float(word)
            except ValueError:
                fail(f"bad number '{word}'")
        if keywords == ("vertex",) and not np.isfinite(_float32([float(w) for w in rest])).all():
            fail(f"non-finite vertex '{' '.join(rest)}'")

    if pos == 0:
        expect(take(), "solid")
    while (words := take())[0].lower() != "endsolid":
        expect(words, "facet", "normal", numbers=True)
        expect(take(), "outer", "loop")
        for _ in range(3):
            expect(take(), "vertex", numbers=True)
        expect(take(), "endloop")
        expect(take(), "endfacet")
    for last, words in lines:
        fail(f"content after endsolid: '{' '.join(words)}'")


def _parse_ascii(data: bytes) -> TriangleMesh:
    """Parse ASCII STL text with one pattern per facet and a line walker.

    Grammar: a ``solid`` line, then seven lines per facet (``facet
    normal`` n n n / ``outer loop`` / three ``vertex`` x y z /
    ``endloop`` / ``endfacet``), then ``endsolid``, after which only
    blank lines may follow. Keywords match in any case; lines split on
    str.split() whitespace, and blank lines are skipped. Words after
    the keywords of the solid, outer loop, endloop, endfacet and
    endsolid lines are ignored; number lines must hold exactly three
    numbers, each in float()'s grammar. Numbers narrow str -> float64 ->
    float32, so ASCII and binary files of the same mesh parse to
    bit-identical coordinates, and a vertex must stay finite in float32.

    _FACET_PATTERN matches one whole facet and captures its twelve
    numbers. It is applied facet after facet from the end of the solid
    line, and float() reads the words of up to _PARSE_CHUNK facets at a
    time. Where the pattern stops, or where a block holds a word float()
    rejects or a vertex that overflows float32, _walk reads on line by
    line: it raises the first offending line's error, or accepts
    endsolid and blank lines. Every repeat in the patterns is followed
    by a class disjoint from its own, so a match backtracks over each
    byte at most a fixed number of times and the whole parse takes time
    linear in the file's size.

    Errors name the first offending line, numbered as str.splitlines()
    numbers lines ("\n", "\r", "\r\n", "\v", "\f" and "\x1c"-"\x1e"
    each end one), and their message is built from that line alone. A
    missing line is reported at the last non-blank line; a non-ASCII
    byte at 1 + the number of "\n" before it.
    """
    if not data.isascii():
        at = re.search(rb"[\x80-\xff]", data).start()
        raise AsciiStlError("not decodable as ASCII text", line=data.count(b"\n", 0, at) + 1)
    head = _SOLID_PATTERN.match(data)
    if head is None:
        _walk(data, 0)  # raises: the first non-blank line is no solid line
    pos, blocks = head.end(), []
    while True:
        start, words = pos, []
        while len(words) < 12 * _PARSE_CHUNK and (facet := _FACET_PATTERN.match(data, pos)):
            words += facet.groups()
            pos = facet.end()
        try:
            values = np.fromiter(map(float, words), np.float64, len(words))
            corners = _float32(values.reshape(-1, 4, 3)[:, 1:])
            whole = np.isfinite(corners).all()
        except ValueError:
            whole = False
        if not whole:
            _walk(data, start)  # raises at the block's first bad number or vertex
        blocks.append(corners)
        if len(words) < 12 * _PARSE_CHUNK:
            break
    _walk(data, pos)
    return _mesh_from_soup(blocks, sum(map(len, blocks)))


def read_stl(source: str | PathLike | bytes) -> TriangleMesh:
    """Parse an STL file or its bytes, sniffing ASCII ("solid" prefix) vs binary.

    Binary records are read _CHUNK at a time into the weld's keys, so a
    binary file's bytes are never held whole; ASCII text is. The weld
    reads the records three times, their (x, y) bits, their z bits and
    then their coordinates, so it holds 16 bytes a corner and one block
    (see _mesh_from_soup). A path must name a file that can seek (no
    pipe): the binary length check comes before any record is read,
    and the later passes seek back to the first record. A file that
    leads with "solid" but fails the ASCII grammar is given one chance
    as binary (some exporters write such files); if both parses fail,
    the ASCII error -- the more informative one -- is raised.
    """
    with io.BytesIO(source) if isinstance(source, bytes) else open(source, "rb") as fh:
        if fh.read(5) == b"solid":
            fh.seek(0)
            try:
                return _parse_ascii(fh.read())
            except AsciiStlError as ascii_err:
                try:
                    return _parse_binary(fh)
                except ByteParseError:
                    raise ascii_err from None
        return _parse_binary(fh)
