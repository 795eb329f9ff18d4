import argparse
import dataclasses
import json
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from relieforge import cli
from relieforge.heightfield import HeightGrid
from relieforge.mesh import TriangleMesh, close_solid
from relieforge.stl_io import write_binary_stl

from conftest import make_pgm, make_png, open_top, traced_peak

CLI = [sys.executable, "-m", "relieforge"]


def run(*args, cwd=None):
    return subprocess.run(
        [*CLI, *map(str, args)], capture_output=True, text=True, cwd=cwd
    )


def report_of(proc):
    return json.loads(proc.stdout)


class TestConvert:
    def test_default_run(self, tmp_path, logo_pgm):
        out = tmp_path / "logo.stl"
        proc = run("convert", logo_pgm, "-o", out)
        assert proc.returncode == 0, proc.stderr
        rep = report_of(proc)
        assert rep["watertight"] is True
        assert rep["bbox_mm"] == [[0.0, 0.0, 0.0], [80.0, 28.0, 5.2]]
        assert rep["input_px"] == [4, 4]
        assert rep["transfer"] == "jdrf-relief"
        assert rep["degenerate"] == 0 and rep["warnings"] == []
        assert out.stat().st_size == 84 + 50 * rep["triangles"]

    def test_report_keys(self, tmp_path, logo_pgm):
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl")
        rep = report_of(proc)
        for key in (
            "vertices",
            "triangles",
            "edges",
            "euler",
            "watertight",
            "volume_mm3",
            "area_mm2",
            "bbox_mm",
            "degenerate",
            "boundary_edges",
            "nonmanifold_edges",
            "repeated_edges",
            "warnings",
        ):
            assert key in rep
        keys = list(rep)
        assert keys[keys.index("boundary_edges") + 1] == "nonmanifold_edges"
        assert keys[keys.index("nonmanifold_edges") + 1] == "repeated_edges"
        assert rep["boundary_edges"] == rep["nonmanifold_edges"] == rep["repeated_edges"] == 0

    def test_human_summary_on_stderr(self, tmp_path, logo_pgm):
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl")
        assert "watertight" in proc.stderr
        json.loads(proc.stdout)  # stdout stays pure JSON

    def test_scale_one_preserves_preset_units(self, tmp_path, logo_pgm):
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl", "--scale", 1)
        rep = report_of(proc)
        assert rep["bbox_mm"][1][2] == 1.3

    def test_custom_extent(self, tmp_path, logo_pgm):
        proc = run(
            "convert", logo_pgm, "-o", tmp_path / "x.stl",
            "--width-mm", 40, "--depth-mm", 14,
        )
        assert report_of(proc)["bbox_mm"][1][:2] == [40.0, 14.0]

    def test_report_file_matches_stdout(self, tmp_path, logo_pgm):
        rpt = tmp_path / "r.json"
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl", "--report", rpt)
        assert json.loads(rpt.read_text()) == report_of(proc)

    def test_ascii_flag(self, tmp_path, logo_pgm):
        out = tmp_path / "a.stl"
        proc = run("convert", logo_pgm, "-o", out, "--ascii")
        assert proc.returncode == 0
        assert out.read_bytes().startswith(b"solid ")

    def test_transfer_file(self, tmp_path, logo_pgm):
        tf_path = tmp_path / "flat.tf"
        tf_path.write_text("[0.0,1.0] => 2.0\n")
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl",
                   "--transfer", tf_path, "--scale", 1)
        rep = report_of(proc)
        assert rep["transfer"] == "flat.tf"
        assert rep["bbox_mm"][1][2] == 2.0
        assert rep["volume_mm3"] == pytest.approx(80 * 28 * 2.0)

    def test_transfer_file_with_byte_order_mark(self, tmp_path, logo_pgm):
        tf_path = tmp_path / "bom.tf"
        tf_path.write_bytes(b"\xef\xbb\xbf[0.0,1.0] => 2.0\n")
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl",
                   "--transfer", tf_path, "--scale", 1)
        assert proc.returncode == 0, proc.stderr
        assert report_of(proc)["bbox_mm"][1][2] == 2.0

    def test_base_z(self, tmp_path, logo_pgm):
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl", "--base-z", 0.5)
        rep = report_of(proc)
        assert rep["bbox_mm"][0][2] == 0.5

    def test_pad_mode(self, tmp_path, logo_pgm):
        proc = run("convert", logo_pgm, "-o", tmp_path / "p.stl", "--pad")
        assert proc.returncode == 0, proc.stderr
        rep = report_of(proc)
        # 6x6 padded grid: 40 collapsed wall triangles, flagged not hidden;
        # 50 top and 18 base triangles remain, and the solid is closed.
        assert rep["degenerate"] == 40
        assert any("degenerate" in w for w in rep["warnings"])
        assert rep["triangles"] == 68
        assert rep["watertight"] is True
        assert run("inspect", tmp_path / "p.stl").returncode == 0

    def test_pad_sliver_border_stays_watertight(self, tmp_path, logo_pgm):
        # A border just above the base plane gives walls below the area
        # floor; they must stay in the STL instead of leaving holes.
        out = tmp_path / "p.stl"
        proc = run("convert", logo_pgm, "-o", out, "--pad", "--pad-value", "1e-13")
        assert proc.returncode == 0, proc.stderr
        rep = report_of(proc)
        assert rep["watertight"] is True and rep["boundary_edges"] == 0
        assert run("inspect", out).returncode == 0

    def test_degenerates_without_pad_fail(self, tmp_path, logo_pgm):
        # A transfer that sends the light border to height 0 collapses
        # the walls just like padding does, but without --pad that is an
        # error, not a warning.
        tf_path = tmp_path / "zero-border.tf"
        tf_path.write_text("[0.0,0.5) => 1.0\n[0.5,1.0] => 0.0\n")
        out = tmp_path / "x.stl"
        out.write_bytes(b"earlier STL")
        proc = run("convert", logo_pgm, "-o", out, "--transfer", tf_path, "--report", tmp_path / "r.json")
        assert proc.returncode == 4
        assert proc.stderr.endswith("relieforge: geometry: degenerate triangles\n")
        assert report_of(proc)["degenerate"] > 0
        # The rejected solid is reported, never written.
        assert json.loads((tmp_path / "r.json").read_text()) == report_of(proc)
        assert out.read_bytes() == b"earlier STL"
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["logo.pgm", "r.json", "x.stl", "zero-border.tf"]

    def test_pad_does_not_excuse_a_leak(self, tmp_path, logo_pgm, monkeypatch, capsys):
        def holed(grid, base_z):
            mesh = close_solid(grid, base_z=base_z)
            return TriangleMesh(mesh.vertices, mesh.triangles[:-1], mesh.degenerate_skipped)

        monkeypatch.setattr(cli, "close_solid", holed)
        assert cli.main(["convert", str(logo_pgm), "-o", str(tmp_path / "p.stl"), "--pad"]) == 4
        out, err = capsys.readouterr()
        assert err.endswith("relieforge: geometry: not watertight\n")
        assert json.loads(out)["watertight"] is False
        assert not (tmp_path / "p.stl").exists()

    def test_report_counts_nonmanifold_edges(self, tmp_path, logo_pgm, monkeypatch, capsys):
        def doubled(grid, base_z):
            mesh = close_solid(grid, base_z=base_z)
            tris = np.vstack([mesh.triangles, mesh.triangles[:1, ::-1]])
            return TriangleMesh(mesh.vertices, tris, mesh.degenerate_skipped)

        monkeypatch.setattr(cli, "close_solid", doubled)
        assert cli.main(["convert", str(logo_pgm), "-o", str(tmp_path / "x.stl")]) == 4
        rep = json.loads(capsys.readouterr().out)
        assert rep["watertight"] is False
        assert rep["boundary_edges"] == 0 and rep["nonmanifold_edges"] == 3
        # The reversed copy runs each of its edges the way its neighbour does.
        assert rep["repeated_edges"] == 3

    def test_failed_write_keeps_existing_output(self, tmp_path, logo_pgm, monkeypatch, capsys):
        def write_half(mesh, fh):
            fh.write(b"half an STL")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_binary_stl", write_half)
        out = tmp_path / "x.stl"
        out.write_bytes(b"earlier STL")
        assert cli.main(["convert", str(logo_pgm), "-o", str(out)]) == 5
        assert capsys.readouterr().err.endswith(
            f"relieforge: output-io: cannot write {out}: No space left on device\n"
        )
        assert out.read_bytes() == b"earlier STL"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["logo.pgm", "x.stl"]

    def test_replaced_output_keeps_its_mode_and_links(self, tmp_path, logo_pgm):
        real = tmp_path / "real.stl"
        real.write_bytes(b"earlier STL")
        real.chmod(0o640)
        link = tmp_path / "link.stl"
        link.symlink_to(real)
        proc = run("convert", logo_pgm, "-o", link)
        assert proc.returncode == 0, proc.stderr
        assert link.is_symlink() and real.stat().st_size == 84 + 50 * report_of(proc)["triangles"]
        assert real.stat().st_mode & 0o777 == 0o640

    def test_output_reaches_disk_before_the_rename(self, tmp_path, logo_pgm, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(os.fstat(fd).st_size) or fsync(fd))
        monkeypatch.setattr(os, "replace", lambda a, b: calls.append(b) or replace(a, b))
        out = tmp_path / "x.stl"
        assert cli.main(["convert", str(logo_pgm), "-o", str(out)]) == 0
        assert calls == [out.stat().st_size, os.path.realpath(out)]

    def test_mirror_x_reverses_columns(self, tmp_path):
        px = np.array([[0, 128, 255], [0, 128, 255]], dtype=np.uint8)
        img = tmp_path / "g.pgm"
        img.write_bytes(make_pgm(px))
        plain = run("preview", img, "-o", tmp_path / "a.pgm")
        mirrored = run("preview", img, "-o", tmp_path / "b.pgm", "--mirror-x")
        assert plain.returncode == mirrored.returncode == 0
        a = (tmp_path / "a.pgm").read_bytes()
        b = (tmp_path / "b.pgm").read_bytes()
        assert a[-3:] == bytes(reversed(b[-3:]))


def assert_usage_line(proc, text):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("relieforge: usage: ") and text in proc.stderr


class TestExitCodes:
    def test_usage_missing_output(self, logo_pgm):
        assert_usage_line(run("convert", logo_pgm), "--output/-o")

    def test_usage_conflicting_transfer_flags(self, tmp_path, logo_pgm):
        proc = run(
            "convert", logo_pgm, "-o", tmp_path / "x.stl",
            "--preset", "jdrf-relief", "--transfer", "f.tf",
        )
        assert_usage_line(proc, "not allowed with argument --preset")

    def test_usage_bad_scale(self, tmp_path, logo_pgm):
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl", "--scale", 0)
        assert_usage_line(proc, "argument --scale: must be positive, got 0")

    def test_usage_negative_scale(self, tmp_path, logo_pgm):
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl", "--scale", -1)
        assert_usage_line(proc, "argument --scale: must be positive, got -1")

    @pytest.mark.parametrize("verb, suffix", [("convert", "stl"), ("preview", "pgm")])
    def test_usage_pad_value_without_pad(self, tmp_path, logo_pgm, verb, suffix):
        out = tmp_path / f"x.{suffix}"
        proc = run(verb, logo_pgm, "-o", out, "--pad-value", "3")
        assert_usage_line(proc, "--pad-value needs --pad")
        assert not out.exists()

    def test_usage_unknown_command(self):
        assert_usage_line(run("bogus"), "invalid choice: 'bogus'")

    def test_input_parse_unrecognized(self, tmp_path):
        bad = tmp_path / "bad.img"
        bad.write_bytes(b"not an image")
        proc = run("convert", bad, "-o", tmp_path / "x.stl")
        assert proc.returncode == 3
        assert "input-parse" in proc.stderr

    def test_input_parse_missing_file(self, tmp_path):
        proc = run("convert", tmp_path / "nope.pgm", "-o", tmp_path / "x.stl")
        assert proc.returncode == 3

    def test_input_parse_unknown_preset(self, tmp_path, logo_pgm):
        proc = run(
            "convert", logo_pgm, "-o", tmp_path / "x.stl", "--preset", "nope"
        )
        assert proc.returncode == 3
        assert "jdrf-relief" in proc.stderr  # says what IS available

    def test_geometry_too_small(self, tmp_path):
        one = tmp_path / "one.pgm"
        one.write_bytes(make_pgm(np.array([[255]], dtype=np.uint8)))
        proc = run("convert", one, "-o", tmp_path / "x.stl")
        assert proc.returncode == 4
        assert "geometry" in proc.stderr

    def test_geometry_overflowing_heights(self, tmp_path, logo_pgm):
        tf_path = tmp_path / "huge.tf"
        tf_path.write_text("[0.0,1.0] => 1e308\n")
        proc = run("convert", logo_pgm, "--transfer", tf_path, "-o", tmp_path / "x.stl")
        assert proc.returncode == 4
        assert proc.stderr == "relieforge: geometry: heights must be finite\n"

    @pytest.mark.parametrize("verb, suffix", [("convert", "stl"), ("preview", "pgm")])
    @pytest.mark.parametrize(
        "spec, code, line",
        [
            (
                "[0,1] => 1e400*x\n",
                3,
                "relieforge: input-parse: line 1: coefficients must be finite: a=inf, b=0.0\n",
            ),
            ("[0,1] => 1e308*x + 1e308\n", 4, "relieforge: geometry: heights must be finite\n"),
        ],
        ids=["inf-slope", "overflowing-sum"],
    )
    def test_overflowing_transfer_coefficients(
        self, tmp_path, logo_pgm, verb, suffix, spec, code, line
    ):
        tf_path = tmp_path / "huge.tf"
        tf_path.write_text(spec)
        out = tmp_path / f"x.{suffix}"
        proc = run(verb, logo_pgm, "--transfer", tf_path, "-o", out)
        assert proc.returncode == code
        assert proc.stderr == line
        assert not out.exists()

    @pytest.mark.parametrize("pad", [[], ["--pad"]])
    def test_geometry_no_volume(self, tmp_path, logo_pgm, pad):
        tf_path = tmp_path / "zero.tf"
        tf_path.write_text("[0.0,1.0] => 0.0\n")
        out = tmp_path / "x.stl"
        proc = run("convert", logo_pgm, "--transfer", tf_path, "-o", out, *pad)
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("relieforge: geometry:") and "no volume" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--scale", "--width-mm", "--depth-mm", "--pad-value", "--base-z"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_usage_nonfinite_float_flag(self, tmp_path, logo_pgm, flag, value):
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl", "--pad", f"{flag}={value}")
        assert_usage_line(proc, f"argument {flag}: must be a finite number, got {value}")

    @pytest.mark.parametrize(
        "flags", [["--scale", "1e308"], ["--width-mm", "1e308"], ["--base-z=-1e308"]]
    )
    def test_geometry_beyond_float32(self, tmp_path, logo_pgm, flags):
        out = tmp_path / "x.stl"
        proc = run("convert", logo_pgm, "-o", out, *flags)
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("relieforge: geometry:") and "float32" in proc.stderr
        assert not out.exists()

    def test_geometry_rim_merging_in_float32(self, tmp_path):
        # Heights of 100000001 over a base plane at 100000000 make a solid
        # in float64, but both round to 100000000 in float32, so every rim
        # base corner would land on its top vertex in the file.
        img = tmp_path / "a.pgm"
        img.write_bytes(make_pgm(np.full((70, 200), 128, dtype=np.uint8)))
        tf_path = tmp_path / "const1.tf"
        tf_path.write_text("[0.0, 1.0] => 1.0\n")
        out = tmp_path / "x.stl"
        proc = run(
            "convert", img, "-o", out, "--transfer", tf_path,
            "--scale", "100000001", "--base-z", "100000000",
        )
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("relieforge: geometry: heights above the base plane")
        assert "float32" in proc.stderr
        assert not out.exists()

    def test_input_parse_p2_huge_dimensions(self, tmp_path):
        img = tmp_path / "huge.pgm"
        img.write_bytes(b"P2 100000000000 100000000000 255\n0 1 2\n")
        proc = run("convert", img, "-o", tmp_path / "x.stl")
        assert proc.returncode == 3
        assert proc.stderr.startswith("relieforge: input-parse: truncated pixel data")

    @pytest.mark.parametrize("field", ["width", "height", "maxval"])
    def test_input_parse_long_pgm_header_number(self, tmp_path, field):
        fields = {"width": "2", "height": "1", "maxval": "255"}
        fields[field] = "9" * 5000
        header = f"P5 {' '.join(fields.values())}\n".encode()
        img = tmp_path / "big.pgm"
        img.write_bytes(header + b"\x00\x01")
        out = tmp_path / "x.stl"
        proc = run("convert", img, "-o", out)
        offset = header.index(b"9" * 5000)
        assert proc.returncode == 3
        assert proc.stderr == (
            f"relieforge: input-parse: malformed header: {field} has 5000 digits"
            f" (at byte {offset})\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P5 " + b"x" * 1_000_000, "malformed header: width is not a number: b'" + "x" * 40 + "...'"),
            (b"P2 2 1 255\n" + b"x" * 1_000_000 + b" 0\n", "malformed sample: b'" + "x" * 40 + "...'"),
            (b"P2 2 1 255\n" + b"7" * 1_000_000 + b" 0\n", "sample " + "7" * 40 + "... exceeds maxval 255"),
        ],
        ids=["header-token", "sample-token", "sample-digits"],
    )
    def test_input_parse_long_pgm_token_is_cut(self, tmp_path, data, message):
        img = tmp_path / "big.pgm"
        img.write_bytes(data)
        proc = run("convert", img, "-o", tmp_path / "x.stl")
        offset = 3 if data.startswith(b"P5") else 11
        assert proc.returncode == 3
        assert proc.stderr == f"relieforge: input-parse: {message} (at byte {offset})\n"
        assert len(proc.stderr) < 200

    def test_output_io_failure(self, tmp_path, logo_pgm):
        proc = run("convert", logo_pgm, "-o", tmp_path / "no-dir" / "x.stl")
        assert proc.returncode == 5
        assert "output-io" in proc.stderr


    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("verb", ["convert", "inspect"])
    def test_closed_stdout_is_an_output_error(self, tmp_path, logo_pgm, verb, buffered):
        stl = tmp_path / "x.stl"
        assert run("convert", logo_pgm, "-o", stl).returncode == 0
        args = [stl] if verb == "inspect" else [logo_pgm, "-o", tmp_path / "y.stl"]
        # A buffered stdout fails only when flushed, at the latest at exit.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [*CLI, verb, *map(str, args)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 5
        assert proc.stderr == "relieforge: output-io: cannot write stdout: Broken pipe\n"


class TestOptions:
    def test_transfer_path_alone(self):
        cfg = cli.PipelineConfig("in.png", "out.stl", transfer_path="t.tf")
        assert cfg.preset is None and cfg.transfer_path == "t.tf"

    def test_no_transfer_uses_jdrf_relief(self):
        assert cli.PipelineConfig("in.png", "out.stl").preset == "jdrf-relief"

    def test_preset_and_transfer_path_refused(self):
        with pytest.raises(ValueError):
            cli.PipelineConfig("in.png", "out.stl", preset="jdrf-relief", transfer_path="t.tf")

    @pytest.mark.parametrize("pad_value", [1.5, -1e-13])
    def test_pad_value_without_pad_refused(self, pad_value):
        with pytest.raises(ValueError, match="needs --pad"):
            cli.PipelineConfig("in.png", "out.stl", pad_value=pad_value)
        assert cli.PipelineConfig("in.png", "out.stl", pad_value=-0.0).pad_value == 0

    @staticmethod
    def parsed(*argv):
        return cli._parse_args(list(argv))[1]

    @pytest.mark.parametrize("verb", ["convert", "preview"])
    def test_minimal_argv_gives_defaults(self, verb):
        assert self.parsed(verb, "in.png", "-o", "out") == cli.PipelineConfig("in.png", "out")

    SHARED_FLAGS = [
        (["--preset", "p"], "preset", "p"),
        (["--transfer", "t.tf"], "transfer_path", "t.tf"),
        (["--scale", "2.5"], "scale", 2.5),
        (["--width-mm", "50"], "width_mm", 50.0),
        (["--depth-mm", "10"], "depth_mm", 10.0),
        (["--pad"], "pad", True),
        (["--pad", "--pad-value", "1.5"], "pad_value", 1.5),
        (["--mirror-x"], "mirror_x", True),
    ]

    @pytest.mark.parametrize(
        "verb, flags, name, value",
        [("convert", *case) for case in SHARED_FLAGS]
        + [("preview", *case) for case in SHARED_FLAGS]
        + [
            ("convert", ["--ascii"], "ascii_format", True),
            ("convert", ["--base-z", "-1"], "base_z", -1.0),
        ],
    )
    def test_flag_sets_its_field(self, verb, flags, name, value):
        cfg = self.parsed(verb, "in.png", "-o", "out", *flags)
        also = {"pad": True} if name == "pad_value" else {}  # --pad-value needs --pad
        assert cfg == cli.PipelineConfig("in.png", "out", **{name: value}, **also)

    @pytest.mark.parametrize("token, value", [("-1e-3", -1e-3), ("-2E1", -20.0), ("-.5e1", -5.0)])
    @pytest.mark.parametrize(
        "verb, flags, name",
        [
            ("convert", ["--pad", "--pad-value"], "pad_value"),
            ("preview", ["--pad", "--pad-value"], "pad_value"),
            ("convert", ["--base-z"], "base_z"),
        ],
    )
    def test_negative_number_with_exponent(self, verb, flags, name, token, value):
        cfg = self.parsed(verb, "in.png", "-o", "out", *flags, token)
        assert getattr(cfg, name) == value

    def test_every_dest_names_a_field(self):
        fields = {f.name for f in dataclasses.fields(cli.PipelineConfig)}
        (subparsers,) = [
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(subparsers.choices) == {"convert", "inspect", "preview"}
        for parser in subparsers.choices.values():
            dests = {a.dest for a in parser._actions} - {"help", "report_path"}
            assert dests <= fields

    @pytest.mark.parametrize("verb", ["convert", "preview"])
    def test_help_shows_the_defaults(self, verb, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            cli.main([verb, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for shown in ("(default 4.0)", "(default 80.0)", "(default 28.0)", "(default: jdrf-relief)"):
            assert shown in out


class TestInternalErrors:
    @pytest.mark.parametrize(
        "exc, line",
        [
            (RuntimeError("boom\n  at depth"), "relieforge: internal: RuntimeError: boom at depth\n"),
            (MemoryError(), "relieforge: internal: MemoryError\n"),
        ],
    )
    def test_one_line_and_exit_1(self, tmp_path, logo_pgm, monkeypatch, capsys, exc, line):
        def fail(cfg):
            raise exc

        monkeypatch.setattr(cli, "convert", fail)
        assert cli.main(["convert", str(logo_pgm), "-o", str(tmp_path / "x.stl")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == line


class TestInspect:
    @pytest.mark.parametrize("flags", [[], ["--ascii"]])
    def test_merged_logo_counts_survive_the_file(self, tmp_path, flags):
        # Flat plate and glyph tops merge into blocks; the file must read
        # back to the same vertices and triangles that convert reported.
        px = np.full((20, 48), 255, dtype=np.uint8)
        px[3:17, 5:23] = 0
        px[6:12, 30:44] = 100
        img = tmp_path / "logo.pgm"
        img.write_bytes(make_pgm(px))
        out = tmp_path / "x.stl"
        conv = run("convert", img, "-o", out, *flags)
        assert conv.returncode == 0, conv.stderr
        insp = run("inspect", out)
        assert insp.returncode == 0, insp.stderr
        crep, irep = report_of(conv), report_of(insp)
        assert crep["triangles"] < 2 * 19 * 47  # fewer than the top's cells alone
        for key in ("vertices", "triangles", "edges", "euler", "watertight"):
            assert irep[key] == crep[key], key

    def test_convert_output_passes(self, tmp_path, logo_pgm):
        out = tmp_path / "x.stl"
        conv = run("convert", logo_pgm, "-o", out)
        insp = run("inspect", out)
        assert insp.returncode == 0
        crep, irep = report_of(conv), report_of(insp)
        assert irep["watertight"] is True
        assert irep["triangles"] == crep["triangles"]
        # binary32 narrowing in the file costs ~1e-8 relative volume
        assert irep["volume_mm3"] == pytest.approx(crep["volume_mm3"], rel=1e-6)

    def test_inspect_volume_reproducible_bitwise(self, tmp_path, logo_pgm):
        out = tmp_path / "x.stl"
        run("convert", logo_pgm, "-o", out)
        first, second = report_of(run("inspect", out)), report_of(run("inspect", out))
        assert first["volume_mm3"] == second["volume_mm3"]

    def test_open_surface_fails(self, tmp_path):
        top = open_top(HeightGrid.from_spacing(np.ones((3, 3))))
        path = tmp_path / "open.stl"
        write_binary_stl(top, path)
        proc = run("inspect", path)
        assert proc.returncode == 4
        assert report_of(proc)["watertight"] is False

    def test_truncated_file(self, tmp_path, logo_pgm):
        out = tmp_path / "x.stl"
        run("convert", logo_pgm, "-o", out)
        trunc = tmp_path / "t.stl"
        trunc.write_bytes(out.read_bytes()[:100])
        proc = run("inspect", trunc)
        assert proc.returncode == 3
        assert "input-parse" in proc.stderr

    def test_nonfinite_coordinate(self, tmp_path, logo_pgm):
        out = tmp_path / "x.stl"
        run("convert", logo_pgm, "-o", out)
        data = bytearray(out.read_bytes())
        data[84 + 12 : 84 + 16] = b"\x00\x00\xc0\x7f"  # float32 NaN
        out.write_bytes(bytes(data))
        proc = run("inspect", out)
        assert proc.returncode == 3
        assert "input-parse" in proc.stderr and "non-finite" in proc.stderr


    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path(self, tmp_path, kind):
        path = tmp_path / "nope.stl" if kind == "missing" else tmp_path
        proc = run("inspect", path)
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"relieforge: input-parse: cannot read {path}: [Errno ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_pipe_is_refused(self, tmp_path, logo_pgm):
        # The binary length check seeks before any record is read.
        out = tmp_path / "x.stl"
        run("convert", logo_pgm, "-o", out)
        proc = subprocess.run(
            [*CLI, "inspect", "/dev/stdin"], input=out.read_bytes(), capture_output=True
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith(b"relieforge: input-parse: cannot read /dev/stdin: ")
        assert proc.stderr.count(b"\n") == 1

    def test_ascii_overflow_is_one_line(self, tmp_path, logo_pgm):
        out = tmp_path / "x.stl"
        run("convert", logo_pgm, "-o", out, "--ascii")
        text = out.read_text()
        first_vertex = text.index("vertex ")
        out.write_text(text[:first_vertex] + "vertex 1e39" + text[text.index(" ", first_vertex + 7):])
        proc = run("inspect", out)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert "non-finite vertex '1e39" in proc.stderr


class TestPreview:
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_output_written_in_place(self, tmp_path, logo_pgm):
        # Renaming a file over a pipe or device would replace the node.
        fifo = tmp_path / "view.pgm"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        proc = run("preview", logo_pgm, "-o", fifo)
        reader.join(timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert got and got[0].startswith(b"P5\n4 4\n255\n")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_stdout_output_through_a_pipe(self, tmp_path, logo_pgm):
        # /dev/stdout on a pipe resolves to a pipe:[N] name that is no path.
        assert run("preview", logo_pgm, "-o", tmp_path / "p.pgm").returncode == 0
        proc = subprocess.run(
            [*CLI, "preview", str(logo_pgm), "-o", "/dev/stdout"], capture_output=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (tmp_path / "p.pgm").read_bytes()
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl", "--report", "/dev/stdout")
        assert proc.returncode == 0, proc.stderr
        # The printed report and the --report copy, both on the pipe.
        half = proc.stdout[: len(proc.stdout) // 2]
        assert proc.stdout == half * 2 and json.loads(half)["watertight"] is True

    def test_two_level_image_maps_to_full_range(self, tmp_path, logo_pgm):
        out = tmp_path / "p.pgm"
        assert run("preview", logo_pgm, "-o", out).returncode == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n4 4\n255\n")
        pixels = np.frombuffer(data[-16:], dtype=np.uint8).reshape(4, 4)
        assert set(pixels.ravel().tolist()) == {0, 255}
        assert np.all(pixels[1:3, 1:3] == 255)  # glyph block stays centered

    def test_constant_image_all_zero(self, tmp_path):
        img = tmp_path / "c.pgm"
        img.write_bytes(make_pgm(np.full((3, 3), 128, dtype=np.uint8)))
        out = tmp_path / "c_prev.pgm"
        run("preview", img, "-o", out)
        assert set(out.read_bytes()[-9:]) == {0}

    def test_gradient_pixel_strictly_between(self, tmp_path):
        px = np.array([[0, 128, 255], [0, 128, 255]], dtype=np.uint8)
        img = tmp_path / "g.pgm"
        img.write_bytes(make_pgm(px))
        out = tmp_path / "g_prev.pgm"
        run("preview", img, "-o", out)
        row = out.read_bytes()[-3:]
        assert row[0] == 255 and row[2] == 0
        assert row[1] == 191  # round(255 * (h(128/255) - 1.2) / 4)

    def test_row_order_matches_image(self, tmp_path):
        px = np.array([[0, 0], [255, 255]], dtype=np.uint8)  # dark top row
        img = tmp_path / "rows.pgm"
        img.write_bytes(make_pgm(px))
        out = tmp_path / "rows_prev.pgm"
        run("preview", img, "-o", out)
        payload = out.read_bytes()[-4:]
        assert payload == b"\xff\xff\x00\x00"  # tall (dark) row printed first

    def test_peak_memory_under_three_float_grids(self, tmp_path):
        # A logo-like RGBA image: flat blocks of color and alpha, which
        # compress as real logos do.
        height, width = 420, 1200
        rng = np.random.default_rng(14)
        blocks = rng.integers(0, 256, size=(height // 20, width // 20, 4), dtype=np.uint8)
        img = tmp_path / "logo.png"
        img.write_bytes(make_png(blocks.repeat(20, axis=0).repeat(20, axis=1), color_type=6))
        _, peak = traced_peak(cli.preview, cli.PipelineConfig(str(img), str(tmp_path / "p.pgm")))
        # The decode holds 1.5 float64 grids: the scanlines, its padded
        # buffer and the codes. The peak is in gray, at 2.3 grids here:
        # the codes, the gray grid and the lookup tables, which weigh
        # more at this size. The transfer writes over the gray grid.
        assert peak < 3 * height * width * 8

    @pytest.mark.parametrize("mirror_x", [False, True])
    def test_peak_memory_codes_plus_one_float_grid(self, tmp_path, mirror_x):
        # After the decode the run holds one float64 grid: the gray
        # intensities, which the oriented grid views and the heights
        # overwrite. The peak is in gray: the codes, that grid and the
        # lookup tables.
        height, width = 840, 2400
        rng = np.random.default_rng(15)
        blocks = rng.integers(0, 256, size=(height // 20, width // 20, 4), dtype=np.uint8)
        pixels = blocks.repeat(20, axis=0).repeat(20, axis=1)
        img = tmp_path / "logo.png"
        img.write_bytes(make_png(pixels, color_type=6))
        cfg = cli.PipelineConfig(str(img), str(tmp_path / "p.pgm"), mirror_x=mirror_x)
        _, peak = traced_peak(cli.preview, cfg)
        assert peak < pixels.nbytes + 8 * height * width + (4 << 20)


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path, logo_pgm):
        a, b = tmp_path / "a.stl", tmp_path / "b.stl"
        ra = run("convert", logo_pgm, "-o", a)
        rb = run("convert", logo_pgm, "-o", b)
        assert a.read_bytes() == b.read_bytes()
        ja, jb = report_of(ra), report_of(rb)
        ja.pop("elapsed_ms"), jb.pop("elapsed_ms")
        assert ja == jb
