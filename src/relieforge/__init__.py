"""relieforge: turn raster images into watertight, printable STL reliefs.

The pipeline is a chain of small pure stages -- decode, grayscale,
orient, piecewise transfer, pad, physical extent, solidify, validate,
serialize -- each usable on its own. ``cli.main`` wires them together
behind the ``relieforge`` command.
"""

from .errors import (
    ByteParseError,
    GeometryError,
    InputParseError,
    LineParseError,
    OutputError,
    ReliefError,
)
from .image_io import (
    GrayImage,
    PgmParseError,
    PngParseError,
    PngUnsupportedError,
    RasterImage,
    decode_pgm,
    decode_png,
    encode_pgm,
    to_grayscale,
)
from .heightfield import (
    GridTooSmallError,
    HeightGrid,
    PhysicalExtent,
    ScalarGrid,
    assign_extent,
    grid_from_image,
    pad_border,
)
from .transfer import (
    CoverageError,
    IntensityDomainError,
    Segment,
    TransferFunction,
    apply,
    parse_transfer_spec,
    preset_jdrf,
    presets,
    serialize_transfer_spec,
)
from .mesh import (
    InvertedSolidError,
    MeshReport,
    TriangleMesh,
    analytic_volume,
    close_solid,
    face_normals,
    tessellate_top,
    validate,
)
from .stl_io import (
    AsciiStlError,
    StlTruncationError,
    read_stl,
    write_ascii_stl,
    write_binary_stl,
)
from .cli import PipelineConfig, RunReport, convert, inspect, preview

__version__ = "0.1.0"

__all__ = [
    "ReliefError",
    "InputParseError",
    "GeometryError",
    "OutputError",
    "ByteParseError",
    "LineParseError",
    "RasterImage",
    "GrayImage",
    "PgmParseError",
    "PngParseError",
    "PngUnsupportedError",
    "decode_pgm",
    "decode_png",
    "encode_pgm",
    "to_grayscale",
    "ScalarGrid",
    "HeightGrid",
    "PhysicalExtent",
    "GridTooSmallError",
    "grid_from_image",
    "pad_border",
    "assign_extent",
    "Segment",
    "TransferFunction",
    "CoverageError",
    "IntensityDomainError",
    "preset_jdrf",
    "presets",
    "parse_transfer_spec",
    "serialize_transfer_spec",
    "apply",
    "TriangleMesh",
    "MeshReport",
    "InvertedSolidError",
    "face_normals",
    "tessellate_top",
    "close_solid",
    "validate",
    "analytic_volume",
    "AsciiStlError",
    "StlTruncationError",
    "write_binary_stl",
    "write_ascii_stl",
    "read_stl",
    "PipelineConfig",
    "RunReport",
    "convert",
    "inspect",
    "preview",
    "__version__",
]
