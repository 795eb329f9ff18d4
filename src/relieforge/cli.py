"""Command-line pipeline: image file in, printable STL out.

Three subcommands:

``convert``
    decode -> grayscale -> orient -> transfer x scale -> (pad) ->
    extent -> close solid -> validate -> write STL, then print a report.
    A solid that fails validation is reported but not written.
``inspect``
    parse an existing STL, validate it, print the same report.
``preview``
    run the shaping stages only and write a normalized PGM of the
    height grid for eyeballing before committing to a print.

A convert or preview run is described by one PipelineConfig, whose
fields hold every option's default; each flag's ``dest`` is the name of
its field, so the parsed flags fill the config by name.

Reports are a single JSON object on stdout so callers can pipe them
straight into a JSON parser; the human one-liner goes to stderr. Exit
codes: 0 success, 2 usage, 3 unreadable/unparsable input, 4 geometry
failure (including a non-watertight result), 5 output I/O failure
(including a stdout whose reader has gone), 1 an internal error,
reported in one line without a traceback.
Every output file is written beside its path, flushed to disk and
renamed into place, so a failed run leaves no partial file and keeps the
one it would replace; pipes and devices are written in place.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import stat
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import ClassVar

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

__all__ = [
    "PipelineConfig",
    "RunReport",
    "RejectedSolidError",
    "convert",
    "inspect",
    "preview",
    "main",
]

_PROG = "relieforge"


@dataclass
class PipelineConfig:
    """Everything one convert/preview run needs, with printable defaults.

    A run given neither ``preset`` nor ``transfer_path`` uses the
    ``fallback_preset``; one given both is refused, and so is a nonzero
    ``pad_value`` without ``pad``, which would build no border.
    """

    fallback_preset: ClassVar[str] = "jdrf-relief"

    input_path: str
    output_path: str
    preset: str | None = None
    transfer_path: str | None = None
    scale: float = 4.0
    width_mm: float = 80.0
    depth_mm: float = 28.0
    pad: bool = False
    pad_value: float = 0.0
    mirror_x: bool = False
    ascii_format: bool = False
    base_z: float = 0.0

    def __post_init__(self):
        if self.preset is None and self.transfer_path is None:
            self.preset = self.fallback_preset
        elif self.preset is not None and self.transfer_path is not None:
            raise ValueError("at most one of preset / transfer_path may be set")
        if self.pad_value != 0 and not self.pad:
            raise ValueError("pad_value is set but pad is not (--pad-value needs --pad)")
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
    nonmanifold_edges: int
    repeated_edges: int
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
            nonmanifold_edges=mr.nonmanifold_edge_count,
            repeated_edges=mr.repeated_edge_count,
            **extra,
        )

    def to_json(self) -> str:
        """The report as JSON, keys in field order."""
        return json.dumps(asdict(self), indent=2)


class RejectedSolidError(GeometryError):
    """convert built a solid that fails the exit rule and wrote nothing.

    ``report`` measures the rejected solid.
    """

    def __init__(self, reason: str, report: RunReport):
        super().__init__(reason)
        self.report = report


def _write_atomically(path: str, write) -> None:
    """Have ``write(fh)`` fill a new binary file beside ``path``, then rename it there.

    The new file is flushed to disk before the rename, so a run that
    fails, is interrupted or is cut short by a crash leaves ``path``
    either as it was or complete; a file it replaces keeps its
    permission bits. A path to something other than a regular file (a
    device, a pipe, /dev/stdout) is written in place, because a rename
    would replace the node itself. Raises OutputError.
    """
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "wb") as fh:
                write(fh)
            return
        target = os.path.realpath(path)
        directory, name = os.path.split(target)
        tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
                fh.flush()
                os.fsync(fh.fileno())
            if mode is not None:
                os.chmod(tmp, mode & 0o7777)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _reading(path: str):
    """Report an OSError raised while reading ``path`` as ``cannot read PATH``."""
    try:
        yield
    except OSError as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc


def _read_bytes(path: str) -> bytes:
    with _reading(path):
        return Path(path).read_bytes()


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
        text = _read_bytes(cfg.transfer_path).decode("utf-8-sig", errors="replace")
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
    input pixel dimensions, and the transfer function's name. After the
    decode the run holds one float64 grid: the oriented grid is a view
    of the gray intensities, and the heights overwrite them in place,
    since nothing else holds them.
    """
    gray = _decode_image(cfg.input_path)
    input_px = [gray.width, gray.height]
    tf = _load_transfer(cfg)
    grid = grid_from_image(gray, mirror_x=cfg.mirror_x)
    heights: ScalarGrid = transfer.apply(tf, grid, scale=cfg.scale, out=grid.values)
    if cfg.pad:
        heights = pad_border(heights, value=cfg.pad_value)
    extent = PhysicalExtent(cfg.width_mm, cfg.depth_mm)
    grid_mm, clamped = assign_extent(heights, extent)
    warnings = []
    if clamped:
        warnings.append(f"{clamped} negative heights clamped to 0")
    return grid_mm, warnings, input_px, tf.name


def convert(cfg: PipelineConfig) -> RunReport:
    """Run the full pipeline and write the STL; report what was built.

    A solid that is not watertight, or that has degenerate triangles
    without ``pad``, raises RejectedSolidError before anything is
    written. ``pad`` asks for a border whose walls collapse on the base
    plane, so it excuses degenerate triangles, never a leak. close_solid
    raises GeometryError for a solid whose vertices would merge when the
    file narrows them to float32, also before anything is written.
    """
    start = time.perf_counter()
    grid_mm, warnings, input_px, tf_name = _shape_heights(cfg)
    mesh = close_solid(grid_mm, base_z=cfg.base_z)
    mesh_report = validate(mesh)
    if mesh.degenerate_skipped:
        note = f"{mesh.degenerate_skipped} degenerate wall triangles skipped"
        warnings.append(note + (" (expected with --pad)" if cfg.pad else ""))

    def run_report() -> RunReport:
        elapsed = (time.perf_counter() - start) * 1000.0
        return RunReport.from_mesh_report(
            mesh_report,
            warnings=warnings,
            input_px=input_px,
            transfer=tf_name,
            elapsed_ms=round(elapsed, 3),
        )

    if not mesh_report.watertight:
        raise RejectedSolidError("not watertight", run_report())
    if mesh_report.degenerate_count and not cfg.pad:
        raise RejectedSolidError("degenerate triangles", run_report())
    writer = write_ascii_stl if cfg.ascii_format else write_binary_stl
    _write_atomically(cfg.output_path, lambda fh: writer(mesh, fh))
    return run_report()


def inspect(path: str) -> RunReport:
    """Parse an existing STL and measure it.

    read_stl is given the path, so a binary file's bytes are never held.
    """
    start = time.perf_counter()
    with _reading(path):
        mesh = read_stl(path)
    mesh_report = validate(mesh)
    elapsed = (time.perf_counter() - start) * 1000.0
    return RunReport.from_mesh_report(mesh_report, elapsed_ms=round(elapsed, 3))


def preview(cfg: PipelineConfig) -> None:
    """Write a PGM rendering of the shaped height grid to ``cfg.output_path``.

    Pixel value is round(255 * (h - min) / (max - min)); a constant grid
    maps to all zeros. Rows come out top of the relief first, matching
    how the input image is viewed.
    """
    grid_mm, _, _, _ = _shape_heights(cfg)
    # Nothing else holds the heights, so they are normalized in place.
    h = grid_mm.heights
    low = h.min()
    span = h.max() - low
    h -= low
    if span:
        h /= span
    # Grid row 0 sits at the south (bottom) edge; PGM rows scan top-down.
    img = image_io.GrayImage(values=h[::-1, :])
    data = image_io.encode_pgm(img)
    _write_atomically(cfg.output_path, lambda fh: fh.write(data))


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


def _add_run_flags(p: argparse.ArgumentParser, output_kind: str) -> None:
    """Flags for convert and preview; each dest names a PipelineConfig field."""
    p.add_argument("input_path", metavar="input", help="PGM or PNG image")
    p.add_argument(
        "--output",
        "-o",
        dest="output_path",
        metavar="OUTPUT",
        required=True,
        help=f"{output_kind} file to write",
    )
    tf = p.add_mutually_exclusive_group()
    tf.add_argument(
        "--preset",
        help=f"named transfer function (default: {PipelineConfig.fallback_preset})",
    )
    tf.add_argument(
        "--transfer", dest="transfer_path", metavar="FILE", help="transfer-spec file to apply"
    )
    p.add_argument(
        "--scale",
        type=_positive_float,
        default=PipelineConfig.scale,
        help="multiplier applied after the transfer function (default %(default)s)",
    )
    p.add_argument(
        "--width-mm",
        type=_positive_float,
        default=PipelineConfig.width_mm,
        help="physical width of the relief (default %(default)s)",
    )
    p.add_argument(
        "--depth-mm",
        type=_positive_float,
        default=PipelineConfig.depth_mm,
        help="physical depth of the relief (default %(default)s)",
    )
    p.add_argument(
        "--pad", action="store_true", help="surround the grid with a one-sample border"
    )
    p.add_argument(
        "--pad-value",
        type=_finite_float,
        default=PipelineConfig.pad_value,
        metavar="MM",
        help="height of the padding border; needs --pad (default %(default)s)",
    )
    p.add_argument(
        "--mirror-x", action="store_true", help="mirror left-to-right before shaping"
    )


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one ``relieforge: usage:`` line, exit 2.

    A token such as ``-1e-3`` is a negative number, not a flag, exponent
    included; subparsers are made of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")

    def error(self, message: str):
        self.exit(2, f"{_PROG}: usage: {' '.join(message.split())}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=_PROG, description="Turn raster images into printable STL reliefs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="image -> watertight STL")
    _add_run_flags(p_convert, "STL")
    p_convert.add_argument(
        "--ascii",
        dest="ascii_format",
        action="store_true",
        help="write ASCII STL instead of binary",
    )
    p_convert.add_argument(
        "--base-z",
        type=_finite_float,
        default=PipelineConfig.base_z,
        metavar="MM",
        help="z of the base plane (default %(default)s)",
    )

    p_inspect = sub.add_parser("inspect", help="validate an existing STL")
    p_inspect.add_argument("input_path", metavar="input", help="STL file to measure")
    for p in (p_convert, p_inspect):
        p.add_argument(
            "--report", dest="report_path", metavar="FILE", help="also write the JSON report here"
        )

    p_preview = sub.add_parser("preview", help="render the height grid to a PGM")
    _add_run_flags(p_preview, "PGM")

    return parser


def _emit_report(report: RunReport, report_path: str | None) -> None:
    text = report.to_json()
    try:
        print(text, flush=True)  # a stdout whose reader has gone fails here
    except OSError as exc:
        # The interpreter flushes the unwritten report again at exit;
        # it goes to devnull instead of failing a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise OutputError(f"cannot write stdout: {exc.strerror or exc}") from exc
    if report_path is not None:
        _write_atomically(report_path, lambda fh: fh.write(f"{text}\n".encode()))


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


def _parse_args(argv: list[str] | None) -> tuple[argparse.Namespace, PipelineConfig | None]:
    """The parsed flags, and for convert or preview the PipelineConfig they fill by name.

    A config that PipelineConfig refuses is a usage error.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "inspect":
        return args, None
    given = vars(args)
    try:
        return args, PipelineConfig(
            **{f.name: given[f.name] for f in fields(PipelineConfig) if f.name in given}
        )
    except ValueError as exc:
        parser.error(str(exc))


def main(argv: list[str] | None = None) -> int:
    args, cfg = _parse_args(argv)
    try:
        if args.command == "convert":
            try:
                report, rejected = convert(cfg), None
            except RejectedSolidError as exc:
                report, rejected = exc.report, exc
            _emit_report(report, args.report_path)
            _summarize("convert", cfg.output_path, report)
            if rejected is not None:
                print(f"{_PROG}: geometry: {rejected}", file=sys.stderr)
                return 4
            return 0
        if args.command == "inspect":
            report = inspect(args.input_path)
            _emit_report(report, args.report_path)
            _summarize("inspect", args.input_path, report)
            if not report.watertight:
                print(f"{_PROG}: geometry: not watertight", file=sys.stderr)
                return 4
            return 0
        if args.command == "preview":
            preview(cfg)
            print(f"{_PROG} preview: wrote {cfg.output_path}", file=sys.stderr)
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
    except Exception as exc:
        line = f"{_PROG}: internal: {type(exc).__name__}"
        detail = " ".join(str(exc).split())
        print(f"{line}: {detail}" if detail else line, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
