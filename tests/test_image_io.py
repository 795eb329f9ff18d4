import struct
import time
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relieforge import image_io
from relieforge.image_io import (
    PNG_SIGNATURE,
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

from conftest import _chunk, make_pgm, make_png, make_png_filtered, traced_peak
from test_reference_equivalence import (
    gray_reference,
    samples_reference,
    scanlines,
    unfilter_reference,
)


class TestDecodePgm:
    def test_p2_basic(self):
        img = decode_pgm(b"P2 2 2 255  0 255 255 0")
        assert img.width == 2 and img.height == 2 and img.channels == 1
        assert np.array_equal(img.samples[:, :, 0], [[0.0, 1.0], [1.0, 0.0]])

    def test_p5_single_pixel(self):
        img = decode_pgm(b"P5\n1 1\n255\n\x7f")
        assert img.samples[0, 0, 0] == 127 / 255

    def test_p5_truncated_payload(self):
        with pytest.raises(PgmParseError, match="truncated"):
            decode_pgm(b"P5\n2 2\n255\n\x00\x01\x02")

    def test_p2_truncated_samples(self):
        with pytest.raises(PgmParseError, match="truncated"):
            decode_pgm(b"P2 2 2 255 0 1 2")

    @pytest.mark.parametrize("header", [b"P2 100000000000 100000000000 255\n", b"P2 60000 60000 255\n"])
    def test_p2_huge_dimensions_are_truncation(self, header):
        # The samples are counted before anything width*height is allocated.
        with pytest.raises(PgmParseError, match="truncated pixel data") as e:
            decode_pgm(header + b"0 1 2")
        assert e.value.offset == len(header) + 5

    def test_bad_magic(self):
        with pytest.raises(PgmParseError, match="P2 or P5"):
            decode_pgm(b"P6 1 1 255 abc")

    def test_zero_dimension(self):
        with pytest.raises(PgmParseError, match="width is 0"):
            decode_pgm(b"P5 0 2 255 ")
        with pytest.raises(PgmParseError, match="height is 0"):
            decode_pgm(b"P5 2 0 255 ")

    def test_maxval_out_of_range(self):
        with pytest.raises(PgmParseError, match="maxval"):
            decode_pgm(b"P2 1 1 0 0")
        with pytest.raises(PgmParseError, match="maxval"):
            decode_pgm(b"P2 1 1 70000 0")

    def test_sample_exceeds_maxval(self):
        with pytest.raises(PgmParseError, match="exceeds maxval"):
            decode_pgm(b"P2 1 1 100 101")

    def test_header_comments(self):
        img = decode_pgm(b"P5 # magic\n# a comment line\n2 1 # dims\n255\n\x00\xff")
        assert np.array_equal(img.samples[:, :, 0], [[0.0, 1.0]])

    def test_error_names_byte_offset(self):
        try:
            decode_pgm(b"P2 1 1 100 101")
        except PgmParseError as e:
            assert "at byte" in str(e) and e.offset == len(b"P2 1 1 100 ")
        else:
            pytest.fail("no error raised")

    @pytest.mark.parametrize("field", ["width", "height", "maxval"])
    def test_long_header_number_is_a_parse_error(self, field):
        # int() refuses more than 4300 digits with a ValueError of its own.
        fields = {"width": b"2", "height": b"1", "maxval": b"255"}
        fields[field] = b"9" * 5000
        header = b"P5 " + b" ".join(fields.values())
        with pytest.raises(PgmParseError, match=f"{field} has 5000 digits") as e:
            decode_pgm(header + b"\n\x00\x01")
        assert e.value.offset == header.index(b"9" * 5000)

    def test_header_numbers_keep_leading_zeros(self):
        zeros = b"0" * 5000
        img = decode_pgm(b"P5 " + zeros + b"2 " + zeros + b"1 " + zeros + b"255\n\x00\xff")
        assert np.array_equal(img.samples[:, :, 0], [[0.0, 1.0]])

    @pytest.mark.parametrize(
        "filler",
        [
            b"#" + b"x" * (1 << 20) + b"\n",
            b"#\n" * (1 << 19),
            b" " * (1 << 20),
            b"\n" * (1 << 20),
            (b" " * 1023 + b"\n") * 1024,
        ],
        ids=["long-comment", "many-comments", "blanks", "newlines", "blank-lines"],
    )
    def test_header_whitespace_runs_read_in_linear_time(self, filler):
        # A pattern whose repeats can split one run in many ways backtracks
        # quadratically, and one that keeps a frame per comment for
        # backtracking grows memory with their count.
        header = b"P5" + filler + b"2" + filler + b"1" + filler
        data = header + b"255\n\x00\xff"
        start = time.perf_counter()
        img = decode_pgm(data)
        assert time.perf_counter() - start < 5.0
        _, peak = traced_peak(decode_pgm, data)
        assert peak < len(header)
        assert np.array_equal(img.samples[:, :, 0], [[0.0, 1.0]])
        with pytest.raises(PgmParseError, match="missing maxval") as e:
            decode_pgm(header)
        assert e.value.offset == len(header)

    def test_sixteen_bit_p5(self):
        data = make_pgm(np.array([[0, 65535], [32768, 1]]), maxval=65535)
        img = decode_pgm(data)
        assert img.samples[0, 1, 0] == 1.0
        assert img.samples[1, 0, 0] == 32768 / 65535

    def test_normalization_is_exact_division(self):
        img = decode_pgm(make_pgm(np.arange(16).reshape(4, 4), maxval=15))
        assert np.array_equal(img.samples[:, :, 0], np.arange(16).reshape(4, 4) / 15)


class TestDecodePng:
    def test_gray_single_pixel(self):
        img = decode_png(make_png(np.array([[255]]), color_type=0))
        assert img.channels == 1 and img.samples[0, 0, 0] == 1.0

    def test_rgb_single_pixel(self):
        img = decode_png(make_png(np.array([[[255, 0, 0]]]), color_type=2))
        assert img.channels == 3
        assert np.array_equal(img.samples[0, 0], [1.0, 0.0, 0.0])

    def test_sub_and_up_filters(self):
        # Hand-filtered vectors: row 0 Sub([10, 20]) -> raw [10, 30];
        # row 1 Up([5, 7]) -> raw [15, 37].
        data = make_png_filtered(2, 2, 0, [(1, bytes([10, 20])), (2, bytes([5, 7]))])
        img = decode_png(data)
        assert np.array_equal(
            np.rint(img.samples[:, :, 0] * 255), [[10, 30], [15, 37]]
        )

    def test_average_and_paeth_filters(self):
        # Round-trip check against an independent reference decoding:
        # Average row over raw [8, 20]: stored[0] = 8 - 0//2 = 8,
        # stored[1] = 20 - (8 + 0)//2 = 16. Paeth row raw [11, 13] over
        # [8, 20]: predictors are 8 then paeth(11, 20, 8) = 20.
        rows = [(3, bytes([8, 16])), (4, bytes([3, 249]))]
        img = decode_png(make_png_filtered(2, 2, 0, rows))
        assert np.array_equal(np.rint(img.samples[:, :, 0] * 255), [[8, 20], [11, 13]])

    def test_gray_alpha_composites_over_white(self):
        img = decode_png(make_png(np.array([[[0, 128]]]), color_type=4))
        assert img.channels == 1
        assert img.samples[0, 0, 0] == pytest.approx(127 / 255, abs=1e-15)

    def test_rgba_fully_transparent_is_white(self):
        img = decode_png(make_png(np.array([[[0, 0, 0, 0]]]), color_type=6))
        assert np.array_equal(img.samples[0, 0], [1.0, 1.0, 1.0])

    def test_sixteen_bit_unsupported(self):
        data = make_png(np.array([[1]]), color_type=0, bit_depth=16)
        with pytest.raises(PngUnsupportedError, match="bit depth"):
            decode_png(data)

    def test_crc_corruption_detected(self):
        data = bytearray(make_png(np.array([[7]]), color_type=0))
        data[-5] ^= 0xFF  # flip a bit inside the IEND CRC
        with pytest.raises(PngParseError, match="CRC"):
            decode_png(bytes(data))

    def test_bad_signature(self):
        with pytest.raises(PngParseError, match="signature"):
            decode_png(b"not a png at all")

    def test_truncated_chunk(self):
        data = make_png(np.array([[7]]), color_type=0)
        with pytest.raises(PngParseError):
            decode_png(data[:20])

    def test_corrupt_idat_stream(self):
        import struct
        import zlib

        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)

        def chunk(ctype, body):
            return (
                struct.pack(">I", len(body))
                + ctype
                + body
                + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)
            )

        bad = (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", b"\x00garbage")
            + chunk(b"IEND", b"")
        )
        with pytest.raises(PngParseError, match="corrupt"):
            decode_png(bad)

    def test_decompression_bomb_refused_in_bounded_memory(self):
        # A 1x1 gray image needs 2 inflated bytes; this IDAT inflates to
        # 64 MiB from about 65 KB.
        deflate = zlib.compressobj(9)
        idat = b"".join(deflate.compress(bytes(1 << 20)) for _ in range(64)) + deflate.flush()
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)
        data = (
            PNG_SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")
        )

        def refused():
            with pytest.raises(PngParseError, match="has more than 2 bytes, expected 2"):
                decode_png(data)

        _, peak = traced_peak(refused)
        assert peak < 16 << 20

    def test_dimensions_beyond_inflate_bound(self):
        ihdr = struct.pack(">IIBBBBB", 2**31 - 1, 2**31 - 1, 8, 6, 0, 0, 0)
        data = (
            PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(b"\x00"))
            + _chunk(b"IEND", b"")
        )
        with pytest.raises(PngUnsupportedError, match="too large"):
            decode_png(data)

    def test_truncated_stream_is_corrupt(self):
        stream = zlib.compress(b"\x00\x07")
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)
        data = (
            PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", stream[:-4])
            + _chunk(b"IEND", b"")
        )
        with pytest.raises(PngParseError, match="corrupt compressed stream"):
            decode_png(data)

    # A gray 2x1 PNG split after its IHDR chunk (8 + 25 bytes).
    PNG_2X1 = make_png(np.array([[7, 9]]), color_type=0)
    HEAD, TAIL = PNG_2X1[:33], PNG_2X1[33:]

    def test_unknown_critical_chunk_refused(self):
        data = self.HEAD + _chunk(b"ABCD", b"x") + self.TAIL
        message = r"^unknown critical chunk b'ABCD' \(at byte 33\)$"
        with pytest.raises(PngUnsupportedError, match=message):
            decode_png(data)

    def test_unknown_ancillary_chunk_skipped(self):
        data = self.HEAD + _chunk(b"abCD", b"x") + _chunk(b"tEXt", b"k\0v") + self.TAIL
        assert np.array_equal(decode_png(data).pixels, decode_png(self.PNG_2X1).pixels)

    def test_first_chunk_must_be_ihdr(self):
        data = PNG_SIGNATURE + self.TAIL[:-12] + self.HEAD[8:] + self.TAIL[-12:]
        message = r"^first chunk is b'IDAT', not IHDR \(at byte 8\)$"
        with pytest.raises(PngParseError, match=message):
            decode_png(data)

    def test_second_ihdr_refused(self):
        data = self.HEAD + self.HEAD[8:] + self.TAIL
        with pytest.raises(PngParseError, match=r"^second IHDR chunk \(at byte 33\)$"):
            decode_png(data)

    def test_unknown_filter_type_on_first_row(self):
        rows = [(5, bytes([1, 2])), (0, bytes([3, 4])), (9, bytes([5, 6]))]
        with pytest.raises(PngParseError, match=r"^unknown scanline filter type 5 \(at byte 0\)$"):
            decode_png(make_png_filtered(2, 3, 0, rows))

    def test_unknown_filter_type_on_last_row_after_paeth_rows(self):
        # Checked for every row before any row is unfiltered; the first
        # bad row names the type.
        rows = [(4, bytes([9, 8, 7]))] * 3 + [(255, bytes(3))]
        with pytest.raises(PngParseError, match=r"^unknown scanline filter type 255 \(at byte 0\)$"):
            decode_png(make_png_filtered(1, 4, 2, rows))

    @pytest.mark.parametrize("width, height", [(40000, 1), (1, 40000)])
    def test_one_pixel_wide_images_in_linear_memory(self, width, height):
        # The wavefront runs width + height - 1 steps over a buffer of
        # (width + 1) * (height + 1) pixels; a square skew of the grid
        # would need 40000x the pixel data here.
        rng = np.random.default_rng(width)
        rows = [
            (int(rng.integers(0, 5)), rng.integers(0, 256, width * 4, dtype=np.uint8).tobytes())
            for _ in range(height)
        ]
        data = make_png_filtered(width, height, 6, rows)
        raw_size = width * height * 4
        samples, peak = traced_peak(lambda: decode_png(data).samples)
        # The float64 samples and alpha derived after the decode take 8x
        # the RGBA bytes; the peak, about 10.5x here, adds the file, the
        # scanlines, the padded grid and the per-row filter weights. No
        # per-diagonal state is kept, though this shape has one diagonal
        # per pixel.
        assert peak < 16 * raw_size
        raw = scanlines(rows)
        pixels = np.frombuffer(unfilter_reference(raw, width, height, 4), dtype=np.uint8)
        expected = samples_reference(pixels.reshape(height, width, 4), 6)
        assert np.array_equal(samples.view(np.uint64), expected.view(np.uint64))

    def test_peak_near_twice_the_codes(self):
        # The file, the scanlines and the padded grid whose interior the
        # codes are; a copy of the codes would take the peak to 3x.
        height, width = 840, 2400
        rng = np.random.default_rng(22)
        blocks = rng.integers(0, 256, size=(height // 20, width // 20, 4), dtype=np.uint8)
        data = make_png(blocks.repeat(20, axis=0).repeat(20, axis=1), color_type=6)
        raster, peak = traced_peak(decode_png, data)
        assert peak < 2.2 * raster.pixels.nbytes + 2 * len(data)

    def test_against_pillow(self):
        PIL_Image = pytest.importorskip("PIL.Image")
        rng = np.random.default_rng(42)
        pixels = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        data = make_png(pixels, color_type=2)
        ours = decode_png(data)
        import io

        theirs = np.asarray(PIL_Image.open(io.BytesIO(data)))
        assert np.array_equal(np.rint(ours.samples * 255).astype(np.uint8), theirs)


class TestRasterImage:
    def test_png_keeps_codes_and_alpha(self):
        img = decode_png(make_png(np.array([[[7, 128]]]), color_type=4))
        assert img.pixels.dtype == np.uint8 and img.pixels.tolist() == [[[7, 128]]]
        assert img.maxval == 255 and img.channels == 1

    @pytest.mark.parametrize(
        "pixels, maxval, match",
        [
            (np.zeros((1, 1, 1)), 255, "uint8 or uint16"),
            (np.zeros((1, 1, 5), dtype=np.uint8), 255, r"\(h, w, 1\|2\|3\|4\)"),
            (np.zeros((0, 1, 1), dtype=np.uint8), 255, "dimensions"),
            (np.zeros((1, 1, 3), dtype=np.uint16), 300, "maxval 300"),
            (np.zeros((1, 1, 1), dtype=np.uint8), 0, "maxval 0"),
            (np.full((1, 1, 1), 3, dtype=np.uint8), 2, r"\[0, 2\]"),
        ],
    )
    def test_invalid_rasters_rejected(self, pixels, maxval, match):
        with pytest.raises(ValueError, match=match):
            RasterImage(pixels, maxval)


class TestGrayImage:
    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_values_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            GrayImage(np.array([[0.5, bad]]))


class TestToGrayscale:
    def test_gray_identity(self):
        img = RasterImage(np.array([[[1]]], dtype=np.uint8), maxval=2)
        assert to_grayscale(img).values[0, 0] == 0.5

    def test_white_is_exactly_one(self):
        img = RasterImage(np.full((2, 2, 3), 255, dtype=np.uint8), maxval=255)
        assert np.all(to_grayscale(img).values == 1.0)

    def test_pure_red(self):
        img = RasterImage(np.array([[[255, 0, 0]]], dtype=np.uint8), maxval=255)
        assert to_grayscale(img).values[0, 0] == 0.299

    def test_idempotent_on_gray(self):
        # Gray read back as codes of the same maxval gives the same gray.
        rng = np.random.default_rng(3)
        v = rng.integers(0, 1001, size=(4, 6, 1), dtype=np.uint16)
        out1 = to_grayscale(RasterImage(v, maxval=1000))
        codes = np.rint(out1.values * 1000).astype(np.uint16)
        out2 = to_grayscale(RasterImage(codes[:, :, None], maxval=1000))
        assert np.array_equal(out1.values, out2.values)

    def test_range_preserved(self):
        rng = np.random.default_rng(9)
        img = RasterImage(rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8), maxval=255)
        vals = to_grayscale(img).values
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    @pytest.mark.parametrize("color_type, channels", [(2, 3), (6, 4)])
    def test_bitwise_equal_to_the_luma_expression(self, color_type, channels):
        rng = np.random.default_rng(color_type)
        pixels = rng.integers(0, 256, size=(13, 17, channels), dtype=np.uint8)
        raster = decode_png(make_png(pixels, color_type))
        r, g, b = (raster.samples[:, :, k] for k in range(3))
        expected = 0.299 * r + (0.587 * g + 0.114 * b)
        got = to_grayscale(raster).values
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@st.composite
def raster_views(draw):
    # Codes of 1-4 channels (16-bit only for gray) as a view: the interior
    # of a larger array, or the grid view decode_png returns.
    nch = draw(st.integers(1, 4))
    maxval = 255 if nch > 1 else draw(st.sampled_from([1, 200, 255, 256, 1000, 65535]))
    dtype = np.uint8 if maxval < 256 else np.uint16
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    codes = draw(arrays(dtype, (height + 2, width + 3, nch), elements=st.integers(0, maxval)))
    if maxval == 255 and draw(st.booleans()):
        color_type = {1: 0, 2: 4, 3: 2, 4: 6}[nch]
        return decode_png(make_png(codes[1:-1, 2:-1], color_type))
    return RasterImage(codes[1:-1, 2:-1], maxval)


class TestGrayscaleBands:
    @settings(max_examples=200, deadline=None)
    @given(raster_views(), st.integers(1, 3))
    def test_bitwise_equal_to_luma_of_samples(self, raster, band):
        assert raster.pixels.base is not None  # a view, never a copy
        expected = gray_reference(raster.samples)
        # Bands of 1-3 rows.
        with mock.patch.object(image_io, "_BLOCK", 4 * band * raster.width):
            got = to_grayscale(raster).values
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_allocates_its_result_and_under_one_mib(self):
        height, width = 840, 2400
        rng = np.random.default_rng(21)
        raster = RasterImage(rng.integers(0, 256, (height, width, 4), dtype=np.uint8), 255)
        gray, peak = traced_peak(to_grayscale, raster)
        assert peak < gray.values.nbytes + (1 << 20)


class TestEncodePgm:
    def test_round_trip_within_half_step(self):
        rng = np.random.default_rng(11)
        original = GrayImage(rng.uniform(size=(6, 5)))
        back = to_grayscale(decode_pgm(encode_pgm(original)))
        assert np.abs(back.values - original.values).max() <= 1 / 510

    def test_encode_is_p5(self):
        data = encode_pgm(GrayImage(np.zeros((2, 3))))
        assert data.startswith(b"P5\n3 2\n255\n")

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            # Half steps k/510 are the ties rint rounds to even.
            elements=st.one_of(st.floats(0.0, 1.0), st.integers(0, 510).map(lambda k: k / 510)),
        ),
        st.integers(1, 3),
        st.booleans(),
    )
    def test_bands_of_views_match_whole_array_formula(self, values, band, mirror):
        view = values[::-1, ::-1] if mirror else values[::-1]
        img = GrayImage(view)
        with mock.patch.object(image_io, "_BLOCK", band * img.width):
            data = encode_pgm(img)
        header = f"P5\n{img.width} {img.height}\n255\n".encode()
        assert data == header + np.rint(view * 255).astype(np.uint8).tobytes()
