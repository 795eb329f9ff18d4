"""Height grids: orientation, border padding, and physical sizing.

A ScalarGrid is a bare 2-D array of pre-extent heights; a HeightGrid adds
physical sample positions in millimeters. All values are immutable after
construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .image_io import GrayImage

__all__ = [
    "ScalarGrid",
    "HeightGrid",
    "PhysicalExtent",
    "GridTooSmallError",
    "grid_from_image",
    "pad_border",
    "assign_extent",
]


#: Largest coordinate magnitude an STL file (float32) can hold.
FLOAT32_MAX = float(np.finfo(np.float32).max)


class GridTooSmallError(GeometryError):
    """A surface needs at least 2 samples along each axis."""


@dataclass
class ScalarGrid:
    """Rectangular grid of heights (mm), row-major, no physical spacing yet."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"values must be a nonempty 2-D array, got {v.shape}")
        self.values = v

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass
class PhysicalExtent:
    """Overall footprint of the printed part: x span and y span in mm."""

    width_mm: float
    depth_mm: float

    def __post_init__(self):
        if not (self.width_mm > 0 and self.depth_mm > 0):
            raise ValueError("extent spans must be positive")


@dataclass
class HeightGrid:
    """Finite heights (mm, >= 0) with physical sample positions.

    Heights and positions must also fit in float32 (``FLOAT32_MAX``),
    the type STL files store.

    ``x[c]``/``y[r]`` are the strictly increasing mm coordinates of
    column c / row r; cell widths are ``np.diff(x)`` and ``np.diff(y)``.
    Positions are held explicitly so the grid's outer edge lands exactly
    on the requested extent.
    """

    heights: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.heights, dtype=np.float64)
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if h.ndim != 2 or h.shape[0] < 2 or h.shape[1] < 2:
            raise GridTooSmallError(f"height grid must be at least 2x2, got {h.shape}")
        if x.shape != (h.shape[1],) or y.shape != (h.shape[0],):
            raise ValueError("x/y coordinate arrays must match the grid shape")
        if not np.isfinite(h).all():
            raise GeometryError("heights must be finite")
        if max(h.max(), -h.min(), np.abs(x).max(), np.abs(y).max()) > FLOAT32_MAX:
            raise GeometryError(
                f"heights and sample positions must lie within +-{FLOAT32_MAX:g} (float32)"
            )
        if h.min() < 0.0:
            raise ValueError("heights must be >= 0")
        # close_solid identifies vertices by grid index, which matches
        # identity by coordinates only while no two samples share (x, y).
        if not ((np.diff(x) > 0).all() and (np.diff(y) > 0).all()):
            raise GeometryError("sample positions must be strictly increasing")
        self.heights, self.x, self.y = h, x, y

    @property
    def rows(self) -> int:
        return self.heights.shape[0]

    @property
    def cols(self) -> int:
        return self.heights.shape[1]

    @classmethod
    def from_spacing(cls, heights: np.ndarray, dx: float = 1.0, dy: float = 1.0) -> "HeightGrid":
        """Build a grid with uniform spacing and origin at (0, 0)."""
        h = np.asarray(heights, dtype=np.float64)
        if h.ndim != 2:
            raise ValueError("heights must be 2-D")
        x = np.arange(h.shape[1], dtype=np.float64) * dx
        y = np.arange(h.shape[0], dtype=np.float64) * dy
        return cls(h, x, y)


def grid_from_image(img: GrayImage, mirror_x: bool = False) -> ScalarGrid:
    """Reorient image-space values (row 0 = top) into mesh space.

    Rows are flipped so grid row r holds image row (height-1-r): looking
    down the +Z axis at the finished relief then reads the image the
    right way up. ``mirror_x`` additionally reverses the columns, for
    parts meant to be read through the build plate.
    """
    v = img.values[::-1, :]
    if mirror_x:
        v = v[:, ::-1]
    return ScalarGrid(v.copy())


def pad_border(g: ScalarGrid, value: float = 0.0, thickness: int = 1) -> ScalarGrid:
    """Surround the grid with ``thickness`` rings of constant ``value``."""
    if thickness < 0:
        raise ValueError("thickness must be >= 0")
    if thickness == 0:
        return ScalarGrid(g.values.copy())
    return ScalarGrid(np.pad(g.values, thickness, constant_values=value))


def assign_extent(g: ScalarGrid, extent: PhysicalExtent) -> tuple[HeightGrid, int]:
    """Place the grid into physical space spanning exactly the extent.

    Spacing is fencepost: dx = width/(cols-1), dy = depth/(rows-1), with
    sample (r, c) at (c*dx, r*dy) and the last sample exactly on the
    extent edge. Negative heights are clamped to 0; the clamp count is
    returned alongside the grid.
    """
    if g.rows < 2 or g.cols < 2:
        raise GridTooSmallError(
            f"grid is {g.rows}x{g.cols}; need at least 2 samples per axis to form a surface"
        )
    heights = g.values
    clamped = int(np.count_nonzero(heights < 0.0))
    if clamped:
        heights = np.maximum(heights, 0.0)
    x = np.linspace(0.0, extent.width_mm, g.cols)
    y = np.linspace(0.0, extent.depth_mm, g.rows)
    return HeightGrid(heights.copy(), x, y), clamped
