"""Command-line pipeline: image file in, printable STL out.

Three subcommands:

``convert``
    decode -> grayscale -> orient -> transfer x scale -> (pad) ->
    extent -> close solid -> validate -> write STL, then print a report.
``inspect``
    parse an existing STL, validate it, print the same report.
``preview``
    run the shaping stages only and write a normalized PGM of the
    height grid for eyeballing before committing to a print.

Reports are a single JSON object on stdout so callers can pipe them
straight into a JSON parser; the human one-liner goes to stderr. Exit
codes: 0 success, 2 usage, 3 unreadable/unparsable input, 4 geometry
failure (including a non-watertight result), 5 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import image_io, transfer
from .errors import GeometryError, InputParseError, OutputError
from .heightfield import (
    HeightGrid,
    PhysicalExtent,
    ScalarGrid,
    assign_extent,
    grid_from_image,
    pad_border,
)
from .mesh import MeshReport, close_solid, validate
from .stl_io import read_stl, write_ascii_stl, write_binary_stl

__all__ = ["PipelineConfig", "RunReport", "convert", "inspect", "preview", "main"]

_PROG = "relieforge"

DEFAULT_PRESET = "jdrf-relief"
DEFAULT_SCALE = 4.0
DEFAULT_WIDTH_MM = 80.0
DEFAULT_DEPTH_MM = 28.0


@dataclass
class PipelineConfig:
    """Everything one convert/preview run needs, with printable defaults."""

    input_path: str
    output_path: str | None = None
    preset: str | None = DEFAULT_PRESET
    transfer_path: str | None = None
    scale: float = DEFAULT_SCALE
    width_mm: float = DEFAULT_WIDTH_MM
    depth_mm: float = DEFAULT_DEPTH_MM
    pad: bool = False
    pad_value: float = 0.0
    mirror_x: bool = False
    ascii_format: bool = False
    base_z: float = 0.0
    report_path: str | None = None

    def __post_init__(self):
        if (self.preset is None) == (self.transfer_path is None):
            raise ValueError("exactly one of preset / transfer_path must be set")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass
class RunReport:
    """Mesh measurements plus run context for one pipeline run."""

    vertices: int
    triangles: int
    edges: int
    euler: int
    watertight: bool
    volume_mm3: float
    area_mm2: float
    bbox_mm: list[list[float]]
    degenerate: int
    boundary_edges: int
    warnings: list[str] = field(default_factory=list)
    input_px: list[int] | None = None
    transfer: str | None = None
    elapsed_ms: float = 0.0

    @classmethod
    def from_mesh_report(cls, mr: MeshReport, **extra) -> "RunReport":
        return cls(
            vertices=mr.vertex_count,
            triangles=mr.triangle_count,
            edges=mr.edge_count,
            euler=mr.euler_characteristic,
            watertight=mr.watertight,
            volume_mm3=mr.signed_volume,
            area_mm2=mr.surface_area,
            bbox_mm=[
                [float(v) for v in mr.bbox_min],
                [float(v) for v in mr.bbox_max],
            ],
            degenerate=mr.degenerate_count,
            boundary_edges=mr.boundary_edge_count,
            **extra,
        )

    def to_json(self) -> str:
        """The report as JSON, keys in field order."""
        return json.dumps(asdict(self), indent=2)


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc


def _decode_image(path: str) -> image_io.GrayImage:
    data = _read_bytes(path)
    if data[:8] == image_io.PNG_SIGNATURE:
        raster = image_io.decode_png(data)
    elif data[:2] in (b"P2", b"P5"):
        raster = image_io.decode_pgm(data)
    else:
        raise InputParseError(
            f"{path}: unrecognized image format (expected PGM or PNG magic bytes)"
        )
    return image_io.to_grayscale(raster)


def _load_transfer(cfg: PipelineConfig) -> transfer.TransferFunction:
    if cfg.transfer_path is not None:
        text = _read_bytes(cfg.transfer_path).decode("utf-8", errors="replace")
        return transfer.parse_transfer_spec(text, name=Path(cfg.transfer_path).name)
    try:
        return transfer.presets[cfg.preset]()
    except KeyError:
        raise InputParseError(
            f"unknown preset {cfg.preset!r}; available: {', '.join(sorted(transfer.presets))}"
        ) from None


def _shape_heights(cfg: PipelineConfig) -> tuple[HeightGrid, list[str], list[int], str]:
    """Shared shaping stages for convert and preview.

    Returns the extent-assigned grid, warnings gathered so far, the
    input pixel dimensions, and the transfer function's name.
    """
    gray = _decode_image(cfg.input_path)
    input_px = [gray.width, gray.height]
    tf = _load_transfer(cfg)
    grid = grid_from_image(gray, mirror_x=cfg.mirror_x)
    heights: ScalarGrid = transfer.apply(tf, grid, scale=cfg.scale)
    if cfg.pad:
        heights = pad_border(heights, value=cfg.pad_value)
    extent = PhysicalExtent(cfg.width_mm, cfg.depth_mm)
    grid_mm, clamped = assign_extent(heights, extent)
    warnings = []
    if clamped:
        warnings.append(f"{clamped} negative heights clamped to 0")
    return grid_mm, warnings, input_px, tf.name


def _write_stl(mesh, cfg: PipelineConfig) -> None:
    writer = write_ascii_stl if cfg.ascii_format else write_binary_stl
    try:
        writer(mesh, cfg.output_path)
    except OSError as exc:
        raise OutputError(f"cannot write {cfg.output_path}: {exc}") from exc


def convert(cfg: PipelineConfig) -> RunReport:
    """Run the full pipeline and write the STL; report what was built."""
    start = time.perf_counter()
    grid_mm, warnings, input_px, tf_name = _shape_heights(cfg)
    mesh = close_solid(grid_mm, base_z=cfg.base_z)
    mesh_report = validate(mesh)
    if mesh.degenerate_skipped:
        note = f"{mesh.degenerate_skipped} degenerate wall triangles skipped"
        warnings.append(note + (" (expected with --pad)" if cfg.pad else ""))
    _write_stl(mesh, cfg)
    elapsed = (time.perf_counter() - start) * 1000.0
    return RunReport.from_mesh_report(
        mesh_report,
        warnings=warnings,
        input_px=input_px,
        transfer=tf_name,
        elapsed_ms=round(elapsed, 3),
    )


def inspect(path: str) -> RunReport:
    """Parse an existing STL and measure it."""
    start = time.perf_counter()
    mesh = read_stl(_read_bytes(path))
    mesh_report = validate(mesh)
    elapsed = (time.perf_counter() - start) * 1000.0
    return RunReport.from_mesh_report(mesh_report, elapsed_ms=round(elapsed, 3))


def preview(cfg: PipelineConfig, out_path: str) -> None:
    """Write a PGM rendering of the shaped height grid.

    Pixel value is round(255 * (h - min) / (max - min)); a constant grid
    maps to all zeros. Rows come out top of the relief first, matching
    how the input image is viewed.
    """
    grid_mm, _, _, _ = _shape_heights(cfg)
    h = grid_mm.heights
    span = h.max() - h.min()
    normalized = np.zeros_like(h) if span == 0 else (h - h.min()) / span
    # Grid row 0 sits at the south (bottom) edge; PGM rows scan top-down.
    img = image_io.GrayImage(values=normalized[::-1, :])
    try:
        Path(out_path).write_bytes(image_io.encode_pgm(img, maxval=255))
    except OSError as exc:
        raise OutputError(f"cannot write {out_path}: {exc}") from exc


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _add_shaping_flags(p: argparse.ArgumentParser) -> None:
    tf = p.add_mutually_exclusive_group()
    tf.add_argument(
        "--preset",
        default=None,
        help=f"named transfer function (default: {DEFAULT_PRESET})",
    )
    tf.add_argument(
        "--transfer", metavar="FILE", default=None, help="transfer-spec file to apply"
    )
    p.add_argument(
        "--scale",
        type=_positive_float,
        default=DEFAULT_SCALE,
        help="multiplier applied after the transfer function (default %(default)s)",
    )
    p.add_argument(
        "--width-mm",
        type=_positive_float,
        default=DEFAULT_WIDTH_MM,
        help="physical width of the relief (default %(default)s)",
    )
    p.add_argument(
        "--depth-mm",
        type=_positive_float,
        default=DEFAULT_DEPTH_MM,
        help="physical depth of the relief (default %(default)s)",
    )
    p.add_argument(
        "--pad", action="store_true", help="surround the grid with a one-sample border"
    )
    p.add_argument(
        "--pad-value",
        type=_finite_float,
        default=0.0,
        metavar="MM",
        help="height of the padding border (default %(default)s)",
    )
    p.add_argument(
        "--mirror-x", action="store_true", help="mirror left-to-right before shaping"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG, description="Turn raster images into printable STL reliefs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="image -> watertight STL")
    p_convert.add_argument("input", help="PGM or PNG image")
    p_convert.add_argument("--output", "-o", required=True, help="STL file to write")
    _add_shaping_flags(p_convert)
    p_convert.add_argument(
        "--ascii", action="store_true", help="write ASCII STL instead of binary"
    )
    p_convert.add_argument(
        "--base-z",
        type=_finite_float,
        default=0.0,
        metavar="MM",
        help="z of the base plane (default %(default)s)",
    )
    p_convert.add_argument(
        "--report", metavar="FILE", default=None, help="also write the JSON report here"
    )

    p_inspect = sub.add_parser("inspect", help="validate an existing STL")
    p_inspect.add_argument("input", help="STL file to measure")
    p_inspect.add_argument(
        "--report", metavar="FILE", default=None, help="also write the JSON report here"
    )

    p_preview = sub.add_parser("preview", help="render the height grid to a PGM")
    p_preview.add_argument("input", help="PGM or PNG image")
    p_preview.add_argument("--output", "-o", required=True, help="PGM file to write")
    _add_shaping_flags(p_preview)

    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    preset = args.preset
    if preset is None and args.transfer is None:
        preset = DEFAULT_PRESET
    return PipelineConfig(
        input_path=args.input,
        output_path=getattr(args, "output", None),
        preset=preset,
        transfer_path=args.transfer,
        scale=args.scale,
        width_mm=args.width_mm,
        depth_mm=args.depth_mm,
        pad=args.pad,
        pad_value=args.pad_value,
        mirror_x=args.mirror_x,
        ascii_format=getattr(args, "ascii", False),
        base_z=getattr(args, "base_z", 0.0),
        report_path=getattr(args, "report", None),
    )


def _emit_report(report: RunReport, report_path: str | None) -> None:
    text = report.to_json()
    print(text)
    if report_path is not None:
        try:
            Path(report_path).write_text(text + "\n")
        except OSError as exc:
            raise OutputError(f"cannot write {report_path}: {exc}") from exc


def _summarize(verb: str, name: str, report: RunReport) -> None:
    state = "watertight" if report.watertight else "NOT WATERTIGHT"
    print(
        f"{_PROG} {verb}: {name}: {report.vertices} vertices,"
        f" {report.triangles} triangles, {state},"
        f" volume {report.volume_mm3:.3f} mm^3, {report.elapsed_ms} ms",
        file=sys.stderr,
    )
    for note in report.warnings:
        print(f"{_PROG} {verb}: warning: {note}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "convert":
            cfg = _config_from_args(args)
            report = convert(cfg)
            _emit_report(report, cfg.report_path)
            _summarize("convert", cfg.output_path, report)
            # A border on the base plane collapses the walls, and the two
            # corner cells whose split puts a whole triangle on the border
            # share that triangle between top and base, which leaves two
            # non-manifold edges. --pad asks for such a border, so it
            # excuses both flags; without --pad they are hard failures.
            if not cfg.pad and not (report.watertight and report.degenerate == 0):
                why = "not watertight" if not report.watertight else "degenerate triangles"
                print(f"{_PROG}: geometry: {why}", file=sys.stderr)
                return 4
            return 0
        if args.command == "inspect":
            report = inspect(args.input)
            _emit_report(report, args.report)
            _summarize("inspect", args.input, report)
            if not report.watertight:
                print(f"{_PROG}: geometry: not watertight", file=sys.stderr)
                return 4
            return 0
        if args.command == "preview":
            preview(_config_from_args(args), args.output)
            print(f"{_PROG} preview: wrote {args.output}", file=sys.stderr)
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except InputParseError as exc:
        print(f"{_PROG}: input-parse: {exc}", file=sys.stderr)
        return 3
    except GeometryError as exc:
        print(f"{_PROG}: geometry: {exc}", file=sys.stderr)
        return 4
    except OutputError as exc:
        print(f"{_PROG}: output-io: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
