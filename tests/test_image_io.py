import struct
import tracemalloc
import zlib

import numpy as np
import pytest

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

from conftest import _chunk, make_pgm, make_png, make_png_filtered


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
        tracemalloc.start()
        try:
            with pytest.raises(PngParseError, match="has more than 2 bytes, expected 2"):
                decode_png(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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

    def test_against_pillow(self):
        PIL_Image = pytest.importorskip("PIL.Image")
        rng = np.random.default_rng(42)
        pixels = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        data = make_png(pixels, color_type=2)
        ours = decode_png(data)
        import io

        theirs = np.asarray(PIL_Image.open(io.BytesIO(data)))
        assert np.array_equal(np.rint(ours.samples * 255).astype(np.uint8), theirs)


class TestToGrayscale:
    def test_gray_identity(self):
        img = RasterImage(np.array([[[0.5]]]))
        assert to_grayscale(img).values[0, 0] == 0.5

    def test_white_is_exactly_one(self):
        img = RasterImage(np.ones((2, 2, 3)))
        assert np.all(to_grayscale(img).values == 1.0)

    def test_pure_red(self):
        img = RasterImage(np.array([[[1.0, 0.0, 0.0]]]))
        assert to_grayscale(img).values[0, 0] == 0.299

    def test_idempotent_on_gray(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(size=(4, 6, 1))
        out1 = to_grayscale(RasterImage(v))
        out2 = to_grayscale(RasterImage(out1.values[:, :, None]))
        assert np.array_equal(out1.values, out2.values)

    def test_range_preserved(self):
        rng = np.random.default_rng(9)
        img = RasterImage(rng.uniform(size=(8, 8, 3)))
        vals = to_grayscale(img).values
        assert vals.min() >= 0.0 and vals.max() <= 1.0


class TestEncodePgm:
    def test_round_trip_within_half_step(self):
        rng = np.random.default_rng(11)
        original = GrayImage(rng.uniform(size=(6, 5)))
        back = to_grayscale(decode_pgm(encode_pgm(original)))
        assert np.abs(back.values - original.values).max() <= 1 / 510

    def test_encode_is_p5(self):
        data = encode_pgm(GrayImage(np.zeros((2, 3))))
        assert data.startswith(b"P5\n3 2\n255\n")
