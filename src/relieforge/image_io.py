"""Raster decoding and grayscale conversion.

Inputs are lossless by design: PGM (P2/P5) is the mandatory format, an
8-bit PNG subset (gray / RGB, alpha composited over white) the optional
convenience. A decoded raster keeps the decoder's integer codes; they
become normalized reals in [0, 1] only as gray intensities, or as the
composited ``samples`` a caller asks for. All operations are pure and
safe to call concurrently.
"""

from __future__ import annotations

import itertools
import re
import sys
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

# Pixels that the PGM encode handles at a time; gray, which holds three
# float temporaries of its band, takes a quarter of it. Either way a band
# takes a few hundred KiB whatever the image, and one row at least.
_BLOCK = 1 << 16

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
    """Decoded raster: integer codes and the code that stands for full scale.

    ``pixels`` is uint8 or uint16 of shape (height, width, c), every code
    in [0, maxval]. c is 1 (gray), 2 (gray + alpha), 3 (RGB) or 4 (RGBA);
    alpha is the last channel. Only 8-bit PNGs carry color or alpha, so
    c > 1 needs maxval 255. It may be a view (decode_png returns the
    interior of its padded grid), so it is read as it is, never copied.
    """

    pixels: np.ndarray
    maxval: int

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.dtype not in (np.uint8, np.uint16):
            raise ValueError(f"pixels must be uint8 or uint16, got {p.dtype}")
        if p.ndim != 3 or p.shape[2] not in (1, 2, 3, 4):
            raise ValueError(f"pixels must be (h, w, 1|2|3|4), got {p.shape}")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("image dimensions must be >= 1")
        if not 1 <= self.maxval <= (65535 if p.shape[2] == 1 else 255):
            raise ValueError(f"maxval {self.maxval} out of range for {p.shape[2]} channels")
        if p.max() > self.maxval:
            raise ValueError(f"codes must lie in [0, {self.maxval}]")
        self.pixels = p

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        """Color channels of ``samples``: 1 (gray) or 3 (RGB); alpha is not one."""
        return 3 if self.pixels.shape[2] >= 3 else 1

    @property
    def samples(self) -> np.ndarray:
        """Float64 (height, width, channels) in [0, 1], alpha composited over white.

        Computed on each access: codes / maxval, then c * a + (1 - a) for
        color c and alpha a. to_grayscale does not use it.
        """
        color = self.pixels[:, :, : self.channels].astype(np.float64)
        color /= self.maxval
        if self.pixels.shape[2] in (2, 4):
            a = self.pixels[:, :, -1:].astype(np.float64)
            a /= self.maxval
            color *= a
            np.subtract(1.0, a, out=a)
            color += a
        return color


@dataclass
class GrayImage:
    """Normalized intensity raster; ``values[0]`` is the top image row."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"values must be a nonempty 2-D array, got {v.shape}")
        if not (v.min() >= 0.0 and v.max() <= 1.0):  # NaN fails both
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
# Whitespace and '#'-to-EOL comments are interchangeable in the header. A
# comment ends its line, so the next token is the first one with nothing
# but blanks before it on its line, counting from where the search starts.
_HEADER_TOKEN = re.compile(rb"(?:\A|(?<=[\r\n]))[ \t\v\f]*([^ \t\n\r\v\f#]+)")
# No raster is 10**18 samples wide; the bound keeps every number and
# product a header can lead to far below int()'s 4300-digit limit.
_MAX_DIGITS = 18
# Bytes of an offending token an error message quotes.
_QUOTED = 40


def _cut(token: bytes) -> bytes:
    """The token, or its first _QUOTED bytes and "..." when longer, to quote in an error."""
    return token if len(token) <= _QUOTED else token[:_QUOTED] + b"..."


def _read_token(data: bytes, pos: int, what: str) -> tuple[bytes, int, int]:
    m = _HEADER_TOKEN.search(memoryview(data)[pos:])
    if m is None:
        raise PgmParseError(f"unexpected end of header, missing {what}", len(data))
    return m[1], pos + m.start(1), pos + m.end(1)


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    tok, start, pos = _read_token(data, pos, what)
    if not tok.isdigit():
        raise PgmParseError(f"malformed header: {what} is not a number: {_cut(tok)!r}", start)
    digits = tok.lstrip(b"0") or b"0"
    if len(digits) > _MAX_DIGITS:
        raise PgmParseError(f"malformed header: {what} has {len(digits)} digits", start)
    return int(digits), start, pos


def decode_pgm(data: bytes) -> RasterImage:
    """Decode a P2 (ASCII) or P5 (binary) PGM into a 1-channel RasterImage.

    Codes are kept as uint8 when maxval < 256, else as uint16. Raises
    PgmParseError, with the offending byte offset, on malformed headers,
    zero dimensions, maxval outside [1, 65535], truncated pixel data, or
    samples above maxval.
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
        raw = np.frombuffer(data, dtype=dtype, count=count, offset=payload)
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
                raise PgmParseError(f"malformed sample: {_cut(samples[bad])!r}", start)
            value = _cut(digits[bad]).decode("ascii")
            raise PgmParseError(f"sample {value} exceeds maxval {maxval}", start)
        if len(samples) < count:
            raise PgmParseError(
                f"truncated pixel data: expected {count} samples, found {len(samples)}", len(data)
            )

    codes = raw.astype(np.uint8 if maxval < 256 else np.uint16)
    return RasterImage(codes.reshape(height, width, 1), maxval)


def encode_pgm(img: GrayImage) -> bytes:
    """Encode a GrayImage as 8-bit binary P5, rounding values to 1/255 steps.

    Each code is rint(value * 255). The values, which may be any view,
    are scaled and rounded about _BLOCK at a time, a band of rows, into
    one uint8 buffer, so no float copy of the whole image is made.
    """
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    codes = np.empty(img.values.shape, dtype=np.uint8)
    band = max(1, _BLOCK // img.width)
    for r in range(0, img.height, band):
        codes[r : r + band] = np.rint(img.values[r : r + band] * 255)
    return header + codes.tobytes()


# ---------------------------------------------------------------------------
# PNG (RFC 2083 subset: 8-bit gray / gray+alpha / RGB / RGBA, no interlace)

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    # p = a + b - c; pick whichever of a, b, c is nearest p, in that order.
    pa = b - c
    pb = a - c
    pc = np.abs(pa + pb)
    pa = np.abs(pa)
    pb = np.abs(pb)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def _unfilter(raw: bytes, width: int, height: int, nch: int) -> np.ndarray:
    """Undo the per-row scanline filters; returns the (height, width, nch) uint8 codes.

    Every filter predicts pixel (r, x) from its left (r, x-1), upper
    (r-1, x) and upper-left (r-1, x-1) neighbours, so all pixels on one
    anti-diagonal r + x = d depend only on diagonals d-1 and d-2 and are
    decoded in one numpy step: height + width - 1 steps in all. They are
    decoded in place in the zero-padded (height+1) x (width+1) pixel
    grid, stored row by row: cell (i, j) sits at i * (width+1) + j,
    that is i * width + (i + j), so each diagonal, and each run of its
    neighbours, is a slice with step width. Beside the scanlines, the
    grid and the codes, it holds O(width + height) bytes for any shape.
    Predictors are computed in int16 and stored as uint8, which is the
    spec's sum modulo 256. A filter type above 4 is refused before any
    row is decoded. The codes are the grid's interior, a view of it, so
    they are never copied out.
    """
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + width * nch)
    ftypes = rows[:, 0]
    bad = np.flatnonzero(ftypes > 4)
    if len(bad):
        raise PngParseError(f"unknown scanline filter type {ftypes[bad[0]]}", 0)

    # Padded cell (i, j) is image pixel (i-1, j-1); row 0 and column 0
    # are the zero pixels the filters see beyond the image edge. Whole
    # pixels move as one nch-byte void item each, so a strided run is
    # copied without a loop over its bytes.
    padded = np.zeros((height + 1, width + 1, nch), dtype=np.uint8)
    padded[1:, 1:] = rows[:, 1:].reshape(height, width, nch)
    pixel = np.dtype((np.void, nch))
    cells = padded.reshape(-1).view(pixel)

    def run(start, n):
        # The bytes of the n cells from `start` on, a diagonal's step apart.
        return cells[start : start + n * width : width].copy().view(np.uint8)

    # Diagonal dd holds padded rows first .. last, image rows first-1 ..
    # last-1, from cell `at` on. On diagonal dd-1, the n+1 cells from
    # row first-1 on are the upper neighbours (cells 0 .. n-1) and the
    # left ones (cells 1 .. n); the upper-left ones are on dd-2. None,
    # Sub, Up and Average are (wa*a + wb*b) >> 1 with per-row weights,
    # and the Paeth rows are written over that.
    paeth_rows = np.repeat(ftypes == 4, nch)
    wa = np.repeat(np.array([0, 2, 0, 1, 0], dtype=np.int16)[ftypes], nch)
    wb = np.repeat(np.array([0, 0, 2, 1, 0], dtype=np.int16)[ftypes], nch)
    for dd in range(2, height + width + 1):
        first = max(1, dd - width)
        n = min(height, dd - 1) - first + 1
        at = first * width + dd
        span = slice((first - 1) * nch, (first - 1 + n) * nch)
        near = run(at - width - 1, n + 1).astype(np.int16)
        a, b = near[nch:], near[:-nch]
        c = run(at - width - 2, n).astype(np.int16)
        pred = a * wa[span]
        pred += b * wb[span]
        pred >>= 1
        np.copyto(pred, _paeth(a, b, c), where=paeth_rows[span])
        cur = run(at, n)
        np.add(cur, pred, out=cur, casting="unsafe")
        cells[at : at + n * width : width] = cur.view(pixel)
    return padded[1:, 1:]


def decode_png(data: bytes) -> RasterImage:
    """Decode an 8-bit gray/RGB PNG, with or without alpha, into its uint8 codes.

    Rows may use any of the five scanline filters. They are undone in a
    wavefront over the image's anti-diagonals, height + width - 1 numpy
    steps in the zero-padded pixel grid, in O(width * height) memory
    whatever the shape (see _unfilter). The codes are returned as they
    are, alpha included, as a view of that grid's interior: the decode
    peaks at the file, the scanlines and the grid, about twice the codes.
    ``samples`` and to_grayscale composite alpha over white.
    Palette, 16-bit, and interlaced files, and unknown critical chunks,
    raise PngUnsupportedError; unknown ancillary chunks are skipped.
    Structural damage (bad CRC, a first chunk other than IHDR or a second
    one, corrupt stream, unknown filter type) raises PngParseError.
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
            if ihdr is not None:
                raise PngParseError("second IHDR chunk", pos)
            ihdr = body
        elif ihdr is None:
            raise PngParseError(f"first chunk is {ctype!r}, not IHDR", pos)
        elif ctype == b"IDAT":
            idat += body
        elif ctype == b"IEND":
            saw_iend = True
            break
        elif not ctype[0] & 0x20 and ctype != b"PLTE":
            # An uppercase first letter marks a chunk the image needs. PLTE
            # is legal alongside color type 2; the palette itself is unused.
            raise PngUnsupportedError(f"unknown critical chunk {ctype!r}", pos)
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

    nch = _CHANNELS[color_type]
    expected = height * (1 + width * nch)
    if expected >= sys.maxsize:
        raise PngUnsupportedError(f"{width}x{height} image is too large", 16)
    # Inflate one byte past what IHDR implies, no more, so a stream that
    # inflates further is refused without ever being held in memory.
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, expected + 1)
    except zlib.error as e:
        raise PngParseError(f"corrupt compressed stream: {e}", 0) from None
    if len(raw) <= expected and not inflater.eof:
        raise PngParseError("corrupt compressed stream: incomplete or truncated stream", 0)
    if len(raw) != expected:
        size = f"more than {expected}" if len(raw) > expected else len(raw)
        raise PngParseError(f"decompressed image data has {size} bytes, expected {expected}", 0)
    return RasterImage(_unfilter(raw, width, height, nch), 255)


# ---------------------------------------------------------------------------

def to_grayscale(img: RasterImage) -> GrayImage:
    """Collapse a RasterImage to intensities, bitwise equal to the luma of its samples.

    Each color channel's term takes the IEEE operations of ``samples``,
    v/maxval for code v, or with alpha a (maxval is then 255) v/255 *
    a/255 + (1 - a/255), times its weight. RGB sums to Rec. 601 luma
    0.299 R + (0.587 G + 0.114 B), green plus blue first: 0.587 + 0.114
    is exactly 0.701 in binary64, so pure white maps to exactly 1.0, and
    adding red last is the same IEEE sum, since addition commutes. Gray,
    with or without alpha, is its one term with weight 1. The codes,
    which may be any view, are read a band of rows of about _BLOCK // 4
    pixels at a time, so the result is the only full-size array made.
    """
    p = img.pixels
    alpha = p.shape[2] in (2, 4)
    terms = [(1.0, 0)]
    if img.channels == 3:  # green + blue first, then red
        terms = [(_LUMA_G, 1), (_LUMA_B, 2), (_LUMA_R, 0)]
    gray = np.empty((img.height, img.width))
    band = max(1, _BLOCK // 4 // img.width)
    for r in range(0, img.height, band):
        codes = p[r : r + band]
        out = gray[r : r + band]
        if alpha:
            a = codes[:, :, -1] / img.maxval
            white = 1.0 - a
        for k, (weight, c) in enumerate(terms):
            term = np.divide(codes[:, :, c], img.maxval, out=None if k else out)
            if alpha:
                term *= a
                term += white
            term *= weight
            if k:
                out += term
    return GrayImage(gray)
