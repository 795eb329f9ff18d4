import io
import struct
import time

import numpy as np
import pytest

from relieforge.errors import ByteParseError
from relieforge.heightfield import HeightGrid
from relieforge import cli, stl_io
from relieforge.mesh import TriangleMesh, close_solid, validate
from relieforge.stl_io import (
    AsciiStlError,
    StlTruncationError,
    read_stl,
    write_ascii_stl,
    write_binary_stl,
)

from conftest import open_top, traced_peak
from test_reference_equivalence import parse_ascii_reference


def box_mesh(h=3.0):
    return close_solid(HeightGrid.from_spacing(np.full((2, 2), h)))


def one_triangle():
    return TriangleMesh(
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([[0, 1, 2]]),
    )


def random_mesh(count, seed=5):
    # Every seventh triangle repeats a corner: zero area, a zero normal.
    rng = np.random.default_rng(seed)
    nv = max(count, 3)
    triangles = rng.integers(0, nv, (count, 3))
    triangles[::7, 1] = triangles[::7, 0]
    return TriangleMesh(rng.uniform(-50.0, 50.0, (nv, 3)), triangles)


def binary_reference(mesh) -> bytes:
    """The binary STL of a mesh with every record built at once, then tobytes().

    Normals come from np.cross and np.linalg.norm over (T, 3) rows.
    """
    corners = mesh.vertices[mesh.triangles]
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    norms = np.linalg.norm(cross, axis=1, keepdims=True)
    record = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attr", "<u2")])
    records = np.zeros(len(corners), dtype=record)
    records["normal"] = (cross / np.where(norms == 0.0, 1.0, norms)).astype(np.float32)
    records["vertices"] = corners.astype(np.float32)
    header = b"relieforge binary STL".ljust(80, b"\x00") + struct.pack("<I", len(corners))
    return header + records.tobytes()


def empty_mesh():
    return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), int))


class TestWriteBinary:
    def test_box_is_684_bytes(self, tmp_path):
        path = tmp_path / "box.stl"
        n = write_binary_stl(box_mesh(), path)
        assert n == 684
        assert path.stat().st_size == 684

    def test_size_law(self):
        for g in (np.ones((2, 2)), np.ones((3, 5)), np.ones((4, 4)) * 2):
            mesh = close_solid(HeightGrid.from_spacing(g))
            buf = io.BytesIO()
            n = write_binary_stl(mesh, buf)
            assert n == 84 + 50 * mesh.triangle_count == len(buf.getvalue())

    def test_empty_mesh(self):
        buf = io.BytesIO()
        assert write_binary_stl(empty_mesh(), buf) == 84
        data = buf.getvalue()
        assert struct.unpack_from("<I", data, 80)[0] == 0

    def test_count_field_little_endian(self):
        buf = io.BytesIO()
        mesh = open_top(HeightGrid.from_spacing(np.ones((2, 2))))
        write_binary_stl(mesh, buf)
        assert buf.getvalue()[80:84] == b"\x02\x00\x00\x00"

    def test_header_never_says_solid(self):
        buf = io.BytesIO()
        write_binary_stl(box_mesh(), buf)
        assert not buf.getvalue().startswith(b"solid")
        assert buf.getvalue()[:10] == b"relieforge"

    def test_attribute_bytes_zero(self):
        buf = io.BytesIO()
        write_binary_stl(one_triangle(), buf)
        assert buf.getvalue()[-2:] == b"\x00\x00"


    def test_blocks_match_one_shot_records(self):
        # Two full blocks and one facet more, against every record built at once.
        n = 2 * stl_io._CHUNK + 1
        rng = np.random.default_rng(5)
        mesh = TriangleMesh(rng.uniform(-50.0, 50.0, (n, 3)), rng.integers(0, n, (n, 3)))
        buf = io.BytesIO()
        assert write_binary_stl(mesh, buf) == 84 + 50 * n
        assert buf.getvalue() == binary_reference(mesh)

    @pytest.mark.parametrize(
        "count", [0, 1, stl_io._CHUNK - 1, stl_io._CHUNK, stl_io._CHUNK + 1]
    )
    @pytest.mark.parametrize("target", ["path", "bytesio", "atomic"])
    def test_reused_buffer_bytes_match_whole_records(self, tmp_path, count, target):
        # Each block's records are filled into one reused buffer and the
        # file is handed a view of it. Every target copies a chunk while
        # write() runs, so a block read after the next one overwrote the
        # buffer would show here as wrong bytes.
        mesh = random_mesh(count)
        path = tmp_path / "out.stl"
        if target == "path":
            assert write_binary_stl(mesh, path) == 84 + 50 * count
        elif target == "bytesio":
            buf = io.BytesIO()
            assert write_binary_stl(mesh, buf) == 84 + 50 * count
            path.write_bytes(buf.getvalue())
        else:
            cli._write_atomically(str(path), lambda fh: write_binary_stl(mesh, fh))
        assert path.read_bytes() == binary_reference(mesh)

    def test_binary_write_memory_is_bounded(self, tmp_path):
        # Beside the mesh, the writer holds one block's record buffer (50
        # bytes a triangle) and, while it fills a block, that block's
        # float64 corners, edges, cross product and length (19 numbers,
        # 152 bytes a triangle), however many blocks the mesh fills.
        peaks = []
        for count in (stl_io._CHUNK, 4 * stl_io._CHUNK):
            written, peak = traced_peak(write_binary_stl, random_mesh(count), tmp_path / "m.stl")
            assert written == 84 + 50 * count
            peaks.append(peak)
        record_buffer = stl_io._CHUNK * stl_io._RECORD.itemsize
        assert abs(peaks[1] - peaks[0]) < record_buffer
        assert max(peaks) < (50 + 152 + 8) * stl_io._CHUNK


class TestWriteAscii:
    def test_structure_single_triangle(self):
        buf = io.BytesIO()
        write_ascii_stl(one_triangle(), buf)
        text = buf.getvalue().decode()
        assert text.count("facet normal") == 1
        assert text.count("vertex") == 3
        assert text.startswith("solid ") and text.rstrip().endswith("endsolid relieforge")

    def test_empty_mesh_named_x(self):
        buf = io.BytesIO()
        write_ascii_stl(empty_mesh(), buf, name="x")
        assert buf.getvalue() == b"solid x\nendsolid x\n"

    def test_newline_in_name_rejected(self):
        with pytest.raises(ValueError):
            write_ascii_stl(empty_mesh(), io.BytesIO(), name="two\nlines")

    def test_shortest_roundtrip_formatting(self):
        mesh = TriangleMesh(
            np.array([[0.1, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            np.array([[0, 1, 2]]),
        )
        buf = io.BytesIO()
        write_ascii_stl(mesh, buf)
        text = buf.getvalue().decode()
        assert "vertex 0.1 0.0 0.0" in text
        # and "0.1" reparses to the identical binary32
        assert np.float32("0.1") == np.float32(0.1)


class TestReadStl:
    def test_binary_round_trip_bitwise(self):
        mesh = close_solid(
            HeightGrid.from_spacing(
                np.random.default_rng(3).uniform(0.5, 7, size=(5, 6)),
                dx=80 / 5,
                dy=28 / 4,
            )
        )
        buf = io.BytesIO()
        write_binary_stl(mesh, buf)
        back = read_stl(buf.getvalue())
        assert back.triangle_count == mesh.triangle_count
        narrowed = mesh.vertices[mesh.triangles].astype(np.float32).astype(np.float64)
        assert np.array_equal(back.vertices[back.triangles], narrowed)

    def test_second_round_trip_is_identity(self):
        mesh = box_mesh()
        buf1 = io.BytesIO()
        write_binary_stl(mesh, buf1)
        once = read_stl(buf1.getvalue())
        buf2 = io.BytesIO()
        write_binary_stl(once, buf2)
        assert buf1.getvalue()[84:] == buf2.getvalue()[84:]

    def test_ascii_binary_agreement(self):
        mesh = close_solid(
            HeightGrid.from_spacing(
                np.random.default_rng(9).uniform(0.5, 7, size=(4, 4)), dx=0.7, dy=1.3
            )
        )
        bin_buf, asc_buf = io.BytesIO(), io.BytesIO()
        write_binary_stl(mesh, bin_buf)
        write_ascii_stl(mesh, asc_buf)
        from_bin = read_stl(bin_buf.getvalue())
        from_asc = read_stl(asc_buf.getvalue())
        assert np.array_equal(from_bin.vertices, from_asc.vertices)
        assert np.array_equal(from_bin.triangles, from_asc.triangles)

    def test_round_trip_stays_watertight(self):
        buf = io.BytesIO()
        write_binary_stl(box_mesh(), buf)
        assert validate(read_stl(buf.getvalue())).watertight

    def test_83_byte_file(self):
        with pytest.raises(StlTruncationError):
            read_stl(b"\x00" * 83)

    def test_length_count_mismatch(self):
        buf = io.BytesIO()
        write_binary_stl(box_mesh(), buf)
        with pytest.raises(StlTruncationError, match="12 triangles"):
            read_stl(buf.getvalue()[:-10])

    def test_missing_endfacet_names_line(self):
        text = (
            "solid t\n"
            "  facet normal 0 0 1\n"
            "    outer loop\n"
            "      vertex 0 0 0\n"
            "      vertex 1 0 0\n"
            "      vertex 0 1 0\n"
            "    endloop\n"
            "endsolid t\n"
        )
        with pytest.raises(AsciiStlError, match="line 8") as e:
            read_stl(text.encode())
        assert e.value.line == 8

    def test_bad_ascii_number_names_line(self):
        text = "solid t\n  facet normal 0 0 squid\n"
        with pytest.raises(AsciiStlError, match="line 2"):
            read_stl(text.encode())

    def test_solid_prefixed_binary_falls_back(self):
        buf = io.BytesIO()
        write_binary_stl(one_triangle(), buf)
        data = bytearray(buf.getvalue())
        data[:5] = b"solid"  # hostile header that defeats sniffing
        mesh = read_stl(bytes(data))
        assert mesh.triangle_count == 1

    def test_solid_prefix_both_parses_fail_raises_ascii_error(self):
        with pytest.raises(AsciiStlError):
            read_stl(b"solid nope\n  facet normal garbage\n")

    def test_empty_ascii_solid(self):
        mesh = read_stl(b"solid x\nendsolid x\n")
        assert mesh.triangle_count == 0

    def test_ascii_floats_narrowed_to_binary32(self):
        text = (
            "solid t\n"
            "  facet normal 0 0 1\n"
            "    outer loop\n"
            "      vertex 0.30000001192092896 0 0\n"
            "      vertex 1 0 0\n"
            "      vertex 0 1 0\n"
            "    endloop\n"
            "  endfacet\n"
            "endsolid t\n"
        )
        mesh = read_stl(text.encode())
        assert float(np.float32(0.3)) in mesh.vertices[:, 0]

    def test_stored_normals_discarded(self):
        text = (
            "solid t\n"
            "  facet normal 0 0 -1\n"  # wrong on purpose; the winding wins
            "    outer loop\n"
            "      vertex 0 0 0\n"
            "      vertex 1 0 0\n"
            "      vertex 0 1 0\n"
            "    endloop\n"
            "  endfacet\n"
            "endsolid t\n"
        )
        buf = io.BytesIO()
        write_binary_stl(read_stl(text.encode()), buf)
        normal = np.frombuffer(buf.getvalue(), dtype="<f4", count=3, offset=84)
        assert np.array_equal(normal, [0.0, 0.0, 1.0])

    def test_binary_nonfinite_coordinate_rejected(self):
        buf = io.BytesIO()
        write_binary_stl(box_mesh(), buf)
        data = bytearray(buf.getvalue())
        struct.pack_into("<f", data, 84 + 50 * 5 + 12 + 4, float("nan"))  # triangle 5, v0.y
        with pytest.raises(ByteParseError, match="triangle 5") as e:
            read_stl(bytes(data))
        assert e.value.offset == 84 + 50 * 5 + 12

    def test_binary_nonfinite_coordinate_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(stl_io, "_CHUNK", 4)  # triangle 5 is in the second block
        self.test_binary_nonfinite_coordinate_rejected()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1e39"])
    def test_ascii_nonfinite_coordinate_names_line(self, bad):
        text = (
            "solid t\n"
            "  facet normal 0 0 1\n"
            "    outer loop\n"
            "      vertex 0 0 0\n"
            f"      vertex 1 {bad} 0\n"
            "      vertex 0 1 0\n"
            "    endloop\n"
            "  endfacet\n"
            "endsolid t\n"
        )
        with pytest.raises(AsciiStlError, match="line 5") as e:
            read_stl(text.encode())
        assert e.value.line == 5

    def test_file_that_shrinks_while_read(self):
        # The length check passed, then the records ran out.
        buf = io.BytesIO()
        write_binary_stl(box_mesh(), buf)
        data = buf.getvalue()

        class Shrunk(io.BytesIO):
            def seek(self, pos, whence=io.SEEK_SET):
                return len(data) if whence == io.SEEK_END else super().seek(pos, whence)

        with pytest.raises(StlTruncationError, match="ends at byte 674 of 684") as e:
            stl_io._parse_binary(Shrunk(data[:-10]))
        assert e.value.offset == 674

    @staticmethod
    def reread(first: bytes, later: bytes, at: int) -> io.BytesIO:
        """A file that holds ``first``, then ``later`` from seek ``at`` to byte 84 on."""

        class Changed(io.BytesIO):
            passes = 0

            def seek(self, pos, whence=io.SEEK_SET):
                if (pos, whence) == (84, io.SEEK_SET):
                    self.passes += 1
                    if self.passes == at:
                        super().seek(0)
                        self.write(later)
                        self.truncate()
                return super().seek(pos, whence)

        return Changed(first)

    @pytest.mark.parametrize("chunk", [4, stl_io._CHUNK])
    def test_records_that_turn_nonfinite_on_the_second_pass(self, monkeypatch, chunk):
        # The second and third passes read the records again and check
        # every coordinate as the first did, so a NaN that appears
        # between the passes is refused.
        monkeypatch.setattr(stl_io, "_CHUNK", chunk)
        buf = io.BytesIO()
        write_binary_stl(box_mesh(), buf)
        data = buf.getvalue()
        changed = bytearray(data)
        struct.pack_into("<f", changed, 84 + 50 * 5 + 12 + 8, float("nan"))  # triangle 5, v0.z
        for at in (2, 3):
            fh = self.reread(data, bytes(changed), at)
            with pytest.raises(ByteParseError, match="triangle 5") as e:
                stl_io._parse_binary(fh)
            assert e.value.offset == 84 + 50 * 5 + 12 and fh.passes == at

    def test_records_cut_short_on_the_second_pass(self):
        # The second and third passes check the length of each read too.
        buf = io.BytesIO()
        write_binary_stl(box_mesh(), buf)
        data = buf.getvalue()
        for at in (2, 3):
            fh = self.reread(data, data[:-10], at)
            with pytest.raises(StlTruncationError, match="ends at byte 674 of 684") as e:
                stl_io._parse_binary(fh)
            assert e.value.offset == 674 and fh.passes == at

    def test_read_from_path(self, tmp_path):
        path = tmp_path / "t.stl"
        write_binary_stl(box_mesh(), path)
        assert read_stl(path).triangle_count == 12

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: b"solid" + b" " * n,
            lambda n: b"solid x\nendsolid" + b" " * n + b"\nX",
            lambda n: b"solid x\nfacet normal 0 0 0\nouter loop" + b" " * n,
            lambda n: b"solid x" + b"\n" * n,
        ],
        ids=["solid-line", "after-endsolid", "outer-loop-line", "blank-lines"],
    )
    def test_ascii_whitespace_runs_read_in_linear_time(self, make):
        # A pattern whose repeats can split one whitespace run in many
        # ways backtracks quadratically; at 1 MB that takes hours.
        data = make(1 << 20)
        start = time.perf_counter()
        with pytest.raises(AsciiStlError) as got:
            read_stl(data)
        assert time.perf_counter() - start < 5.0
        with pytest.raises(AsciiStlError) as expected:
            parse_ascii_reference(data)
        assert (got.value.line, str(got.value)) == (expected.value.line, str(expected.value))

    def test_ascii_read_memory_is_bounded(self):
        # 46,188 facets, several parse blocks: the reader holds the words
        # of one block at a time, never arrays sized by the whole text.
        g = HeightGrid.from_spacing(np.random.default_rng(0).uniform(0.5, 3.0, size=(150, 150)))
        buf = io.BytesIO()
        write_ascii_stl(close_solid(g), buf)
        data = buf.getvalue()
        mesh, peak = traced_peak(read_stl, data)
        assert mesh.triangle_count == 46188 > 4 * stl_io._PARSE_CHUNK
        assert peak < 2 * len(data)

    @staticmethod
    def read_solid_peak(tmp_path, shuffled: bool) -> tuple[TriangleMesh, int]:
        g = HeightGrid.from_spacing(np.random.default_rng(0).uniform(0.5, 3.0, size=(230, 230)))
        buf = io.BytesIO()
        write_binary_stl(close_solid(g), buf)
        data = buf.getvalue()
        if shuffled:
            records = np.frombuffer(data, dtype=np.uint8, offset=84).reshape(-1, 50)
            order = np.random.default_rng(1).permutation(len(records))
            data = data[:84] + records[order].tobytes()
        path = tmp_path / "solid.stl"
        path.write_bytes(data)
        del buf, data
        mesh, peak = traced_peak(read_stl, path)
        assert mesh.triangle_count == 107628 > 3 * stl_io._CHUNK
        return mesh, peak

    def test_binary_read_memory_is_bounded(self, tmp_path):
        # 107,628 triangles in four blocks. Read from a path, the file's
        # bytes are never held: the weld keeps an 8-byte key and the
        # 8-byte sort order per corner and one block of records, 1.71
        # times the mesh's own bytes here.
        mesh, peak = self.read_solid_peak(tmp_path, shuffled=False)
        assert peak < 2 * (mesh.vertices.nbytes + mesh.triangles.nbytes)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_binary_weld_takes_16_bytes_a_corner(self, tmp_path, shuffled):
        # The weld reads the records three times: (x, y), then z, then the
        # coordinates. It holds 16 bytes a corner, a key and its place in
        # the sort order, and one block of records. On the third pass a
        # corner's rank and its vertex's coordinates take under 16 bytes
        # a corner, and one corner of a block's triangles at a time is
        # widened to float64. A uint32 array of z bits, the distinct keys,
        # or a whole block of float64 corners would not fit.
        mesh, peak = self.read_solid_peak(tmp_path, shuffled)
        corners = 3 * mesh.triangle_count
        block = stl_io._CHUNK * stl_io._RECORD.itemsize
        assert peak < 16 * corners + block

    def test_shuffled_binary_read_memory_is_bounded(self, tmp_path):
        # The same solid with its records in random order: the weld holds
        # the same arrays whatever the order of the triangles, 1.71 times
        # the mesh's own bytes here too.
        mesh, peak = self.read_solid_peak(tmp_path, shuffled=True)
        assert peak < 2 * (mesh.vertices.nbytes + mesh.triangles.nbytes)

    def test_validate_in_parts_stays_under_the_weld(self, tmp_path, monkeypatch):
        # At _CHUNK 1024 and _KEYS 2**17 the solid's 322,884 directed
        # edges go in three parts, as the stl-inspect mesh's 2,687,988 do
        # at the default _KEYS of 2**20. Beside the mesh, validate then
        # holds one part's keys and a mask, under the weld's 16 bytes a
        # corner: 4.86 MB against read_stl's 5.21 MB. With two parts
        # (_KEYS 2**18) the mesh and validate reach 5.34 MB, and
        # validate, not the weld, would set inspect's peak.
        monkeypatch.setattr("relieforge.mesh._KEYS", 1 << 17)
        monkeypatch.setattr("relieforge.mesh._CHUNK", 1024)
        monkeypatch.setattr(stl_io, "_CHUNK", 1024)
        mesh, read_peak = self.read_solid_peak(tmp_path, shuffled=False)
        rep, validate_peak = traced_peak(validate, mesh)
        assert rep.watertight and -(-3 * mesh.triangle_count // (1 << 17)) == 3
        assert mesh.vertices.nbytes + mesh.triangles.nbytes + validate_peak < read_peak
