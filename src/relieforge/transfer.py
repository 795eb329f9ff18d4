"""Piecewise intensity-to-height transfer functions.

A TransferFunction is an ordered list of affine segments whose intervals
tile [0, 1] exactly: every intensity matches one segment, so evaluation
can never fail mid-pipeline. Functions are immutable after construction
and validated up front.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InputParseError, LineParseError
from .heightfield import ScalarGrid
from .image_io import GrayImage

__all__ = [
    "Segment",
    "TransferFunction",
    "CoverageError",
    "IntensityDomainError",
    "preset_jdrf",
    "presets",
    "parse_transfer_spec",
    "serialize_transfer_spec",
    "apply",
]


class CoverageError(InputParseError):
    """Segment intervals leave a gap in [0, 1] or overlap each other."""


class IntensityDomainError(GeometryError):
    """Intensity outside [0, 1] passed to evaluate/apply."""


def _inside(x, lo, hi, lo_closed, hi_closed):
    """Whether lo < x < hi, or x is a closed end; elementwise over arrays."""
    above = (x > lo) | (lo_closed & (x == lo))
    below = (x < hi) | (hi_closed & (x == hi))
    return above & below


@dataclass(frozen=True)
class Segment:
    """Affine piece a*x + b over an interval of [0, 1].

    ``lo_closed``/``hi_closed`` say whether the endpoints belong to the
    interval. Constant segments have a = 0.
    """

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= 1.0 and 0.0 <= self.hi <= 1.0):
            raise ValueError(f"segment bounds must lie in [0, 1]: {self.interval()}")
        if self.lo > self.hi:
            raise ValueError(f"segment bounds out of order: {self.interval()}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError(f"degenerate open segment: {self.interval()}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"coefficients must be finite: a={self.a!r}, b={self.b!r}")

    def contains(self, x: float | np.ndarray) -> bool | np.ndarray:
        """Whether x lies in the interval, elementwise for an array."""
        return _inside(x, self.lo, self.hi, self.lo_closed, self.hi_closed)

    def interval(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo!r},{self.hi!r}{rb}"


# Points evaluate_array handles at a time.
_EVAL_BLOCK = 1 << 16


class TransferFunction:
    """Validated piecewise map from intensity to pre-scale height.

    Construction sorts the segments by lower bound and rejects any gap
    or overlap, so the pieces tile [0, 1] exactly.
    """

    def __init__(self, segments: list[Segment], name: str = "custom"):
        self.segments = sorted(segments, key=lambda s: (s.lo, not s.lo_closed))
        self.name = name
        self._check_coverage()

    def _check_coverage(self):
        if not self.segments:
            raise CoverageError("no segments: gap over [0.0,1.0]")
        first = self.segments[0]
        if first.lo != 0.0 or not first.lo_closed:
            ket = ")" if first.lo_closed else "]"
            raise CoverageError(f"coverage gap over [0.0,{first.lo!r}{ket}")
        for prev, nxt in zip(self.segments, self.segments[1:]):
            if nxt.lo < prev.hi or (
                nxt.lo == prev.hi and nxt.lo_closed and prev.hi_closed
            ):
                raise CoverageError(f"segments overlap: {prev.interval()} and {nxt.interval()}")
            if nxt.lo > prev.hi or (
                nxt.lo == prev.hi and not nxt.lo_closed and not prev.hi_closed
            ):
                bra = "(" if prev.hi_closed else "["
                ket = ")" if nxt.lo_closed else "]"
                raise CoverageError(f"coverage gap over {bra}{prev.hi!r},{nxt.lo!r}{ket}")
        last = self.segments[-1]
        if last.hi != 1.0 or not last.hi_closed:
            bra = "(" if last.hi_closed else "["
            raise CoverageError(f"coverage gap over {bra}{last.hi!r},1.0]")

    def evaluate(self, x: float) -> float:
        """Height (pre-scale) of the unique segment containing x."""
        if not 0.0 <= x <= 1.0:
            raise IntensityDomainError(f"intensity {x!r} outside [0, 1]")
        for seg in self.segments:
            if seg.contains(x):
                return seg.a * x + seg.b
        raise CoverageError(f"no segment matches {x!r}; function is malformed")

    def evaluate_array(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Vectorized evaluate, bitwise equal to the scalar path, in one pass.

        The segments tile [0, 1] in order, so x's segment is the first
        whose upper end is >= x (``searchsorted``), or the next one where
        x sits on that end and the end is open: a segment open at c is
        followed by one closed at c, a point segment [c,c] included.
        Each chosen segment is checked to contain its x, then gives
        a*x + b. Points go a band of rows (along x's first axis) at a
        time, about _EVAL_BLOCK of them, read through x as it is, so a
        strided view is never copied whole; the segment index and the
        gathered bounds and coefficients take a few MiB at most.

        Without ``out`` the result is a new array and x is left as it
        was. Given ``out`` (float64, x's shape; x itself will do), the
        result is written there and ``out`` is returned; if this raises,
        ``out`` may be partly written.
        """
        x = np.asarray(x, dtype=np.float64)
        if out is None:
            out = np.empty(x.shape)
        elif out.shape != x.shape or out.dtype != np.float64:
            raise ValueError(f"out must be float64 of shape {x.shape}")
        if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):  # NaN fails both
            raise IntensityDomainError("intensities outside [0, 1]")
        lo, hi, lo_closed, hi_closed, a, b = (
            np.array([getattr(s, f) for s in self.segments])
            for f in ("lo", "hi", "lo_closed", "hi_closed", "a", "b")
        )
        xs, outs = np.atleast_1d(x, out)
        band = max(1, _EVAL_BLOCK // max(1, math.prod(xs.shape[1:])))
        # An overflow yields inf quietly; HeightGrid refuses non-finite heights.
        with np.errstate(over="ignore"):
            for start in range(0, len(xs), band):
                xb = xs[start : start + band]
                # The last segment ends closed at 1.0, so only the others'
                # ends are searched.
                k = np.searchsorted(hi[:-1], xb)
                k += (xb == hi[k]) & ~hi_closed[k]
                if not _inside(xb, lo[k], hi[k], lo_closed[k], hi_closed[k]).all():
                    raise CoverageError("some intensities match no segment; function is malformed")
                ob = outs[start : start + band]
                np.multiply(a[k], xb, out=ob)
                ob += b[k]
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, TransferFunction) and self.segments == other.segments

    def __repr__(self) -> str:
        return f"TransferFunction({self.name!r}, {len(self.segments)} segments)"


def preset_jdrf() -> TransferFunction:
    """Three-level relief map: background plate, dark glyphs, gradient.

    Near-white intensities (> 0.9) sit at 0.3, near-black (< 0.25) at
    1.3, and the band between falls linearly as -0.5*x + 1.3. With the
    usual x4 scale that puts the plate at 1.2 mm and glyphs at 5.2 mm.
    """
    return TransferFunction(
        [
            Segment(0.9, 1.0, lo_closed=False, hi_closed=True, a=0.0, b=0.3),
            Segment(0.0, 0.25, lo_closed=True, hi_closed=False, a=0.0, b=1.3),
            Segment(0.25, 0.9, lo_closed=True, hi_closed=True, a=-0.5, b=1.3),
        ],
        name="jdrf-relief",
    )


#: Preset names accepted by the CLI.
presets = {"jdrf-relief": preset_jdrf}

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_SEG_RE = re.compile(
    rf"^\s*([\[\(])\s*({_NUM})\s*,\s*({_NUM})\s*([\]\)])\s*=>\s*(.+?)\s*$"
)
_AFFINE_RE = re.compile(rf"^({_NUM})\s*\*\s*x\s*(?:([+-])\s*({_NUM}))?$")
_CONST_RE = re.compile(rf"^({_NUM})$")


def parse_transfer_spec(text: str, name: str = "custom") -> TransferFunction:
    """Parse the one-segment-per-line grammar into a TransferFunction.

    Lines look like ``[0.25,0.9] => -0.5*x + 1.3`` or ``(0.9,1.0] => 0.3``;
    brackets pick open/closed endpoints, ``#`` starts a comment, blank
    lines are skipped. Raises LineParseError on bad syntax and
    CoverageError if the intervals do not tile [0, 1].
    """
    segments = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SEG_RE.match(line)
        if not m:
            raise LineParseError(f"expected '<[(><lo>,<hi><])> => <expr>', got {rawline!r}", lineno)
        lb, lo, hi, rb, expr = m.groups()
        am = _AFFINE_RE.match(expr)
        cm = _CONST_RE.match(expr)
        if am:
            a = float(am.group(1))
            b = 0.0
            if am.group(2):
                b = float(am.group(3))
                if am.group(2) == "-":
                    b = -b
        elif cm:
            a, b = 0.0, float(cm.group(1))
        else:
            raise LineParseError(f"expected '<a>*x + <b>' or '<c>', got {expr!r}", lineno)
        try:
            segments.append(
                Segment(float(lo), float(hi), lb == "[", rb == "]", a, b)
            )
        except ValueError as e:
            raise LineParseError(str(e), lineno) from None
    return TransferFunction(segments, name=name)


def serialize_transfer_spec(tf: TransferFunction) -> str:
    """Inverse of parse_transfer_spec; reparsing yields equal segments."""
    lines = []
    for seg in tf.segments:
        if seg.a == 0.0:
            expr = repr(seg.b)
        elif seg.b < 0.0:
            expr = f"{seg.a!r}*x - {-seg.b!r}"
        else:
            expr = f"{seg.a!r}*x + {seg.b!r}"
        lines.append(f"{seg.interval()} => {expr}")
    return "\n".join(lines) + "\n"


def apply(
    tf: TransferFunction,
    img: GrayImage | ScalarGrid,
    scale: float,
    out: np.ndarray | None = None,
) -> ScalarGrid:
    """Map every intensity through ``tf`` and scale to millimeters.

    ``scale`` is the dimensionless multiplier applied after evaluation,
    so apply(tf, img, s) == s * apply(tf, img, 1) elementwise, exactly.
    Accepts a GrayImage or an already reoriented ScalarGrid of
    intensities, views included; the output has the same shape. Without
    ``out`` the heights are a new array and ``img`` is left as it was;
    given ``out`` (float64, the shape of ``img.values``, which may be
    ``img.values`` itself), the heights are written into it in place
    and the result shares it (see TransferFunction.evaluate_array).
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    # An overflow yields inf quietly; HeightGrid refuses non-finite heights.
    heights = tf.evaluate_array(img.values, out=out)
    with np.errstate(over="ignore"):
        heights *= scale
    return ScalarGrid(heights)
