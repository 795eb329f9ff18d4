"""Raster decoding and grayscale conversion.

Inputs are lossless by design: PGM (P2/P5) is the mandatory format, an
8-bit PNG subset (gray / RGB, alpha composited over white) the optional
convenience. Samples are normalized reals in [0, 1]; all operations are
pure and safe to call concurrently.
"""

from __future__ import annotations

import itertools
import re
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ByteParseError

__all__ = [
    "RasterImage",
    "GrayImage",
    "PgmParseError",
    "PngParseError",
    "PngUnsupportedError",
    "PNG_SIGNATURE",
    "decode_pgm",
    "decode_png",
    "encode_pgm",
    "to_grayscale",
]

# Rec. 601 luma weights, applied in this fixed order so that (1,1,1)
# sums to exactly 1.0 in binary64.
_LUMA_R = 0.299
_LUMA_G = 0.587
_LUMA_B = 0.114


class PgmParseError(ByteParseError):
    """Malformed or truncated PGM input."""


class PngParseError(ByteParseError):
    """Malformed, corrupt, or truncated PNG input."""


class PngUnsupportedError(PngParseError):
    """Valid PNG, but outside the supported 8-bit gray/RGB(A) subset."""


@dataclass
class RasterImage:
    """Decoded raster: ``samples`` has shape (height, width, channels).

    Channels is 1 (gray) or 3 (RGB); every sample lies in [0, 1].
    """

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 3 or s.shape[2] not in (1, 3):
            raise ValueError(f"samples must be (h, w, 1|3), got {s.shape}")
        if s.shape[0] < 1 or s.shape[1] < 1:
            raise ValueError("image dimensions must be >= 1")
        if s.size and (s.min() < 0.0 or s.max() > 1.0):
            raise ValueError("samples must lie in [0, 1]")
        self.samples = s

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def channels(self) -> int:
        return self.samples.shape[2]


@dataclass
class GrayImage:
    """Normalized intensity raster; ``values[0]`` is the top image row."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"values must be a nonempty 2-D array, got {v.shape}")
        if v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise ValueError("values must lie in [0, 1]")
        self.values = v

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# PGM (Netpbm P2/P5)

_WS = b" \t\n\r\v\f"
_COMMENT = re.compile(rb"#[^\r\n]*")
_TOKEN = re.compile(rb"[^ \t\n\r\v\f]+")
_LEADING_ZEROS = re.compile(rb"(?<![0-9])0+(?=[0-9])")


def _skip_space(data: bytes, pos: int) -> int:
    # Whitespace and '#'-to-EOL comments are interchangeable in the header.
    n = len(data)
    while pos < n:
        b = data[pos : pos + 1]
        if b in _WS:
            pos += 1
        elif b == b"#":
            while pos < n and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    return pos


def _read_token(data: bytes, pos: int, what: str) -> tuple[bytes, int, int]:
    pos = _skip_space(data, pos)
    if pos >= len(data):
        raise PgmParseError(f"unexpected end of header, missing {what}", pos)
    start = pos
    n = len(data)
    while pos < n and data[pos : pos + 1] not in _WS and data[pos : pos + 1] != b"#":
        pos += 1
    return data[start:pos], start, pos


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    tok, start, pos = _read_token(data, pos, what)
    if not tok.isdigit():
        raise PgmParseError(f"malformed header: {what} is not a number: {tok!r}", start)
    return int(tok), start, pos


def decode_pgm(data: bytes) -> RasterImage:
    """Decode a P2 (ASCII) or P5 (binary) PGM into a 1-channel RasterImage.

    Samples are ``raw / maxval`` exactly. Raises PgmParseError, with the
    offending byte offset, on malformed headers, zero dimensions, maxval
    outside [1, 65535], truncated pixel data, or samples above maxval.
    """
    data = bytes(data)
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"not a PGM: expected magic P2 or P5, got {magic!r}", 0)
    width, wpos, pos = _read_int(data, 2, "width")
    height, hpos, pos = _read_int(data, pos, "height")
    if width == 0:
        raise PgmParseError("width is 0", wpos)
    if height == 0:
        raise PgmParseError("height is 0", hpos)
    maxval, mpos, pos = _read_int(data, pos, "maxval")
    if not 1 <= maxval <= 65535:
        raise PgmParseError(f"maxval {maxval} outside [1, 65535]", mpos)

    count = width * height
    if magic == b"P5":
        # Exactly one whitespace byte separates maxval from the payload.
        if pos >= len(data):
            raise PgmParseError("truncated: no pixel data after maxval", len(data))
        if data[pos : pos + 1] not in _WS:
            raise PgmParseError("malformed header: expected single whitespace after maxval", pos)
        payload = pos + 1
        itemsize = 1 if maxval < 256 else 2
        need = count * itemsize
        if len(data) - payload < need:
            raise PgmParseError(
                f"truncated pixel data: expected {need} bytes, found {len(data) - payload}",
                len(data),
            )
        dtype = np.uint8 if itemsize == 1 else np.dtype(">u2")
        raw = np.frombuffer(data, dtype=dtype, count=count, offset=payload).astype(np.int64)
        if raw.max(initial=0) > maxval:
            bad = int(np.argmax(raw > maxval))
            raise PgmParseError(
                f"sample {int(raw[bad])} exceeds maxval {maxval}",
                payload + bad * itemsize,
            )
    else:
        # Comments become blanks of their own length, so an offset into
        # body plus pos is an offset into data.
        body = _COMMENT.sub(lambda m: b" " * len(m[0]), data[pos:])
        samples = body.split()[:count]
        # Without leading zeros a sample's text is str(int(text)), and
        # more than five digits exceed any maxval.
        digits = _LEADING_ZEROS.sub(b"", b" ".join(samples)).split()
        is_digit = np.fromiter(map(bytes.isdigit, samples), dtype=bool, count=len(samples))
        size = np.fromiter(map(len, digits), dtype=np.intp, count=len(samples))
        fits = is_digit & (size <= 5)
        n_fit = len(samples) if fits.all() else int(np.argmin(fits))
        raw = np.array(digits[:n_fit], dtype="S5").astype(np.int64)
        # Samples are checked in order; the first problem wins.
        over = np.flatnonzero(raw > maxval)
        bad = int(over[0]) if len(over) else n_fit
        if bad < len(samples):
            start = pos + next(itertools.islice(_TOKEN.finditer(body), bad, None)).start()
            if not is_digit[bad]:
                raise PgmParseError(f"malformed sample: {samples[bad]!r}", start)
            value = digits[bad].decode("ascii")
            raise PgmParseError(f"sample {value} exceeds maxval {maxval}", start)
        if len(samples) < count:
            raise PgmParseError(
                f"truncated pixel data: expected {count} samples, found {len(samples)}", len(data)
            )

    samples = (raw.astype(np.float64) / maxval).reshape(height, width, 1)
    return RasterImage(samples)


def encode_pgm(img: GrayImage, maxval: int = 255) -> bytes:
    """Encode a GrayImage as binary P5, rounding values to maxval steps."""
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} outside [1, 65535]")
    header = f"P5\n{img.width} {img.height}\n{maxval}\n".encode("ascii")
    raw = np.rint(img.values * maxval).astype(np.uint16 if maxval > 255 else np.uint8)
    if maxval > 255:
        raw = raw.astype(">u2")
    return header + raw.tobytes()


# ---------------------------------------------------------------------------
# PNG (RFC 2083 subset: 8-bit gray / gray+alpha / RGB / RGBA, no interlace)

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter(raw: bytes, width: int, height: int, nch: int) -> bytearray:
    stride = width * nch
    if len(raw) != height * (1 + stride):
        raise PngParseError(
            f"decompressed image data has {len(raw)} bytes, expected {height * (1 + stride)}", 0
        )
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
                row[i] = (row[i] + _paeth(left, prev_row[i], upleft)) & 0xFF
        else:
            raise PngParseError(f"unknown scanline filter type {ftype}", 0)
        out[r * stride : (r + 1) * stride] = row
        prev_row = bytes(row)
    return out


def decode_png(data: bytes) -> RasterImage:
    """Decode an 8-bit gray/RGB PNG; alpha is composited over white.

    Palette, 16-bit, and interlaced files raise PngUnsupportedError;
    structural damage (bad CRC, corrupt stream) raises PngParseError.
    """
    data = bytes(data)
    if data[:8] != PNG_SIGNATURE:
        raise PngParseError("not a PNG: bad signature", 0)

    pos = 8
    ihdr: bytes | None = None
    idat = bytearray()
    saw_iend = False
    while pos < len(data):
        if len(data) - pos < 8:
            raise PngParseError("truncated chunk header", pos)
        length = int.from_bytes(data[pos : pos + 4], "big")
        ctype = data[pos + 4 : pos + 8]
        body_at = pos + 8
        if len(data) - body_at < length + 4:
            raise PngParseError(f"truncated {ctype!r} chunk", len(data))
        body = data[body_at : body_at + length]
        crc = int.from_bytes(data[body_at + length : body_at + length + 4], "big")
        if zlib.crc32(ctype + body) & 0xFFFFFFFF != crc:
            raise PngParseError(f"CRC mismatch in {ctype!r} chunk", body_at + length)
        if ctype == b"IHDR":
            ihdr = body
        elif ctype == b"IDAT":
            idat += body
        elif ctype == b"PLTE":
            pass  # legal alongside color type 2; palette itself unused
        elif ctype == b"IEND":
            saw_iend = True
            break
        pos = body_at + length + 4

    if ihdr is None:
        raise PngParseError("missing IHDR chunk", 8)
    if not saw_iend:
        raise PngParseError("missing IEND chunk", len(data))
    if len(ihdr) != 13:
        raise PngParseError(f"IHDR has {len(ihdr)} bytes, expected 13", 16)
    width = int.from_bytes(ihdr[0:4], "big")
    height = int.from_bytes(ihdr[4:8], "big")
    bit_depth, color_type, compression, filter_method, interlace = ihdr[8:13]
    if width == 0 or height == 0:
        raise PngParseError("zero image dimension", 16)
    if bit_depth != 8:
        raise PngUnsupportedError(f"unsupported bit depth {bit_depth} (only 8)", 24)
    if color_type not in _CHANNELS:
        raise PngUnsupportedError(f"unsupported color type {color_type}", 25)
    if compression != 0 or filter_method != 0:
        raise PngParseError("unknown compression/filter method", 26)
    if interlace != 0:
        raise PngUnsupportedError("interlaced PNG not supported", 28)

    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as e:
        raise PngParseError(f"corrupt compressed stream: {e}", 0) from None

    nch = _CHANNELS[color_type]
    flat = _unfilter(raw, width, height, nch)
    arr = np.frombuffer(bytes(flat), dtype=np.uint8).reshape(height, width, nch)
    arr = arr.astype(np.float64) / 255.0

    if color_type == 0:
        samples = arr
    elif color_type == 2:
        samples = arr
    elif color_type == 4:  # gray + alpha over white
        a = arr[:, :, 1:2]
        samples = arr[:, :, 0:1] * a + (1.0 - a)
    else:  # RGBA over white
        a = arr[:, :, 3:4]
        samples = arr[:, :, 0:3] * a + (1.0 - a)
    return RasterImage(samples)


# ---------------------------------------------------------------------------


def to_grayscale(img: RasterImage) -> GrayImage:
    """Collapse a RasterImage to intensities.

    1-channel input is copied unchanged; RGB uses Rec. 601 luma
    (0.299 R + 0.587 G + 0.114 B), whose weights sum to exactly 1.
    """
    if img.channels == 1:
        return GrayImage(img.samples[:, :, 0].copy())
    r, g, b = img.samples[:, :, 0], img.samples[:, :, 1], img.samples[:, :, 2]
    # Sum green+blue first: 0.587 + 0.114 is exactly 0.701 in binary64,
    # so pure white maps to exactly 1.0.
    return GrayImage(_LUMA_R * r + (_LUMA_G * g + _LUMA_B * b))
