import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_pgm

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
            "warnings",
        ):
            assert key in rep

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

    def test_base_z(self, tmp_path, logo_pgm):
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl", "--base-z", 0.5)
        rep = report_of(proc)
        assert rep["bbox_mm"][0][2] == 0.5

    def test_pad_mode(self, tmp_path, logo_pgm):
        proc = run("convert", logo_pgm, "-o", tmp_path / "p.stl", "--pad")
        assert proc.returncode == 0, proc.stderr
        rep = report_of(proc)
        # 6x6 padded grid: 40 collapsed wall triangles, flagged not hidden
        assert rep["degenerate"] == 40
        assert any("degenerate" in w for w in rep["warnings"])
        assert rep["triangles"] == 100

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
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl", "--transfer", tf_path)
        assert proc.returncode == 4
        assert "geometry" in proc.stderr
        assert report_of(proc)["degenerate"] > 0

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


class TestExitCodes:
    def test_usage_missing_output(self, logo_pgm):
        assert run("convert", logo_pgm).returncode == 2

    def test_usage_conflicting_transfer_flags(self, tmp_path, logo_pgm):
        proc = run(
            "convert", logo_pgm, "-o", tmp_path / "x.stl",
            "--preset", "jdrf-relief", "--transfer", "f.tf",
        )
        assert proc.returncode == 2

    def test_usage_bad_scale(self, tmp_path, logo_pgm):
        assert run(
            "convert", logo_pgm, "-o", tmp_path / "x.stl", "--scale", 0
        ).returncode == 2

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

    @pytest.mark.parametrize("flag", ["--scale", "--width-mm", "--depth-mm", "--pad-value", "--base-z"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_usage_nonfinite_float_flag(self, tmp_path, logo_pgm, flag, value):
        proc = run("convert", logo_pgm, "-o", tmp_path / "x.stl", "--pad", f"{flag}={value}")
        assert proc.returncode == 2
        assert "finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

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

    def test_input_parse_p2_huge_dimensions(self, tmp_path):
        img = tmp_path / "huge.pgm"
        img.write_bytes(b"P2 100000000000 100000000000 255\n0 1 2\n")
        proc = run("convert", img, "-o", tmp_path / "x.stl")
        assert proc.returncode == 3
        assert proc.stderr.startswith("relieforge: input-parse: truncated pixel data")

    def test_output_io_failure(self, tmp_path, logo_pgm):
        proc = run("convert", logo_pgm, "-o", tmp_path / "no-dir" / "x.stl")
        assert proc.returncode == 5
        assert "output-io" in proc.stderr


class TestInspect:
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
        import relieforge as rf

        top = rf.tessellate_top(rf.HeightGrid.from_spacing(np.ones((3, 3))))
        path = tmp_path / "open.stl"
        rf.write_binary_stl(top, path)
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


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path, logo_pgm):
        a, b = tmp_path / "a.stl", tmp_path / "b.stl"
        ra = run("convert", logo_pgm, "-o", a)
        rb = run("convert", logo_pgm, "-o", b)
        assert a.read_bytes() == b.read_bytes()
        ja, jb = report_of(ra), report_of(rb)
        ja.pop("elapsed_ms"), jb.pop("elapsed_ms")
        assert ja == jb
