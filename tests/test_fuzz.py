"""Arbitrary and mutated input bytes against every parser.

decode_pgm, decode_png, read_stl and parse_transfer_spec read files from
outside the program. For any input each must return a result or raise a
ReliefError subclass; anything else would escape the CLI's exit-code
mapping as a traceback.
"""

import io
import struct
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relieforge.errors import ReliefError
from relieforge.heightfield import HeightGrid
from relieforge.image_io import PNG_SIGNATURE, decode_pgm, decode_png
from relieforge.mesh import close_solid
from relieforge.stl_io import read_stl, write_ascii_stl, write_binary_stl
from relieforge.transfer import parse_transfer_spec, preset_jdrf, serialize_transfer_spec

from conftest import _chunk, logo_pixels, make_pgm, make_png

SETTINGS = settings(max_examples=150, deadline=None)


def returns_or_raises_relief_error(parse, data):
    try:
        parse(data)
    except ReliefError:
        pass


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """``valid`` with a few bytes overwritten, inserted or deleted, or cut short."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["set", "insert", "delete", "cut"]))
        if op == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            del data[pos : pos + draw(st.integers(1, 8))]
        elif op == "cut":
            del data[pos:]
    return bytes(data)


def _stl(write) -> bytes:
    heights = np.array([[1.0, 2.0, 1.0], [2.0, 3.5, 2.0]])
    buf = io.BytesIO()
    write(close_solid(HeightGrid.from_spacing(heights)), buf)
    return buf.getvalue()


PGMS = [make_pgm(logo_pixels()), make_pgm(logo_pixels(), ascii_format=True)]
PNGS = [make_png(logo_pixels(), color_type=0), make_png(np.zeros((2, 3, 4)), color_type=6)]
STLS = [_stl(write_binary_stl), _stl(write_ascii_stl)]
SPEC = serialize_transfer_spec(preset_jdrf()).encode()


@st.composite
def pngs(draw) -> bytes:
    """Well-formed chunks with valid CRCs around drawn IHDR fields and scanlines."""
    width, height = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    # bit depth, color type, compression, filter method, interlace
    options = ([8, 8, 1, 16], range(8), [0, 0, 1], [0, 0, 1], [0, 0, 1])
    ihdr = struct.pack(">II5B", width, height, *(draw(st.sampled_from(o)) for o in options))
    stride = 1 + width * draw(st.integers(1, 4))
    row = st.binary(min_size=stride - 1, max_size=stride - 1)
    raw = b"".join(bytes([draw(st.integers(0, 5))]) + draw(row) for _ in range(height))
    if draw(st.booleans()):
        raw = draw(mutated(raw))
    stream = zlib.compress(raw)
    if draw(st.booleans()):
        stream = draw(mutated(stream))
    chunks = [_chunk(b"IHDR", ihdr), _chunk(b"IDAT", stream), _chunk(b"IEND", b"")]
    if draw(st.booleans()):
        del chunks[draw(st.integers(0, len(chunks) - 1))]
    return PNG_SIGNATURE + b"".join(chunks)


@SETTINGS
@given(st.one_of(st.binary(max_size=256), st.sampled_from(PGMS).flatmap(mutated)))
def test_decode_pgm(data):
    returns_or_raises_relief_error(decode_pgm, data)


@SETTINGS
@given(
    st.one_of(
        st.binary(max_size=256).map(lambda b: PNG_SIGNATURE + b),
        st.sampled_from(PNGS).flatmap(mutated),
        pngs(),
    )
)
def test_decode_png(data):
    returns_or_raises_relief_error(decode_png, data)


@SETTINGS
@given(
    st.one_of(
        st.binary(max_size=512),
        st.binary(max_size=256).map(lambda b: b"solid " + b),
        st.sampled_from(STLS).flatmap(mutated),
    )
)
def test_read_stl(data):
    returns_or_raises_relief_error(read_stl, data)


@SETTINGS
@given(st.one_of(st.binary(max_size=256), mutated(SPEC)))
def test_parse_transfer_spec(data):
    # The CLI decodes transfer files the same way before parsing.
    returns_or_raises_relief_error(parse_transfer_spec, data.decode("utf-8", errors="replace"))
