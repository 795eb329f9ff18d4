from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relieforge.heightfield import ScalarGrid
from relieforge.image_io import GrayImage
from relieforge import transfer
from relieforge.transfer import (
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
from relieforge.errors import LineParseError

from test_reference_equivalence import assert_bitwise


class TestPreset:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.95, 0.3), (1.0, 0.3), (0.0, 1.3), (0.2, 1.3), (0.5, 1.05)],
    )
    def test_constant_branches_exact(self, x, expected):
        assert preset_jdrf().evaluate(x) == expected

    @pytest.mark.parametrize("x,expected", [(0.9, 0.85), (0.25, 1.175)])
    def test_boundaries_take_gradient_branch(self, x, expected):
        # The threshold comparisons are strict, so both boundary points
        # land on the sloped segment.
        assert preset_jdrf().evaluate(x) == pytest.approx(expected, abs=1e-12)

    def test_range_endpoints_attained(self):
        tf = preset_jdrf()
        xs = np.linspace(0.0, 1.0, 10001)
        ys = tf.evaluate_array(xs)
        assert ys.min() == 0.3 and ys.max() == 1.3

    def test_registered_in_presets(self):
        assert presets["jdrf-relief"]() == preset_jdrf()


class TestSegment:
    def test_degenerate_open_rejected(self):
        with pytest.raises(ValueError):
            Segment(0.5, 0.5, lo_closed=True, hi_closed=False, a=0.0, b=1.0)

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            Segment(0.7, 0.2, lo_closed=True, hi_closed=True, a=0.0, b=1.0)

    def test_bounds_outside_unit_rejected(self):
        with pytest.raises(ValueError):
            Segment(0.0, 1.5, lo_closed=True, hi_closed=True, a=0.0, b=1.0)

    def test_contains_respects_openness(self):
        seg = Segment(0.2, 0.8, lo_closed=False, hi_closed=True, a=0.0, b=1.0)
        assert not seg.contains(0.2)
        assert seg.contains(0.8)
        assert seg.contains(0.5)


class TestCoverage:
    def test_gap_named_in_error(self):
        with pytest.raises(CoverageError, match=r"\(0\.5,1\.0\]"):
            parse_transfer_spec("[0.0,0.5] => 1.0")

    def test_interior_gap(self):
        with pytest.raises(CoverageError, match="gap"):
            TransferFunction(
                [
                    Segment(0.0, 0.3, True, True, 0.0, 1.0),
                    Segment(0.7, 1.0, True, True, 0.0, 2.0),
                ]
            )

    def test_overlap_rejected(self):
        with pytest.raises(CoverageError, match="overlap"):
            TransferFunction(
                [
                    Segment(0.0, 0.6, True, True, 0.0, 1.0),
                    Segment(0.4, 1.0, True, True, 0.0, 2.0),
                ]
            )

    def test_missing_zero_start(self):
        with pytest.raises(CoverageError, match="gap"):
            TransferFunction([Segment(0.1, 1.0, True, True, 0.0, 1.0)])

    def test_totality_sweep(self):
        tf = preset_jdrf()
        for x in np.linspace(0.0, 1.0, 10001):
            matches = [seg for seg in tf.segments if seg.contains(float(x))]
            assert len(matches) == 1

    def test_domain_error_outside_unit(self):
        tf = preset_jdrf()
        with pytest.raises(IntensityDomainError):
            tf.evaluate(-0.001)
        with pytest.raises(IntensityDomainError):
            tf.evaluate(1.001)


class TestParser:
    def test_preset_transcription(self):
        tf = parse_transfer_spec(
            "(0.9,1.0] => 0.3\n[0.0,0.25) => 1.3\n[0.25,0.9] => -0.5*x + 1.3"
        )
        assert tf == preset_jdrf()

    def test_single_constant(self):
        tf = parse_transfer_spec("[0.0,1.0] => 1.0")
        assert len(tf.segments) == 1
        assert tf.evaluate(0.3) == 1.0

    def test_comments_and_blanks(self):
        tf = parse_transfer_spec("# full range\n\n[0.0,1.0] => 2.0  # plate\n")
        assert tf.evaluate(0.5) == 2.0

    def test_syntax_error_names_line(self):
        with pytest.raises(LineParseError, match="line 3"):
            parse_transfer_spec("# ok\n[0.0,0.5) => 1.0\n0.5 to 1 gives 2\n")

    def test_bad_expression(self):
        with pytest.raises(LineParseError, match="expected"):
            parse_transfer_spec("[0.0,1.0] => x*x")

    def test_round_trip(self):
        tf = preset_jdrf()
        again = parse_transfer_spec(serialize_transfer_spec(tf))
        assert again == tf

    def test_round_trip_negative_intercept(self):
        tf = parse_transfer_spec("[0.0,1.0] => 2.0*x - 0.75")
        assert parse_transfer_spec(serialize_transfer_spec(tf)) == tf
        assert tf.evaluate(0.5) == 0.25


class TestApply:
    def test_plate_height_at_default_scale(self):
        out = apply(preset_jdrf(), GrayImage(np.array([[0.95]])), scale=4.0)
        assert out.values[0, 0] == 1.2

    def test_glyph_height_at_default_scale(self):
        out = apply(preset_jdrf(), GrayImage(np.array([[0.1]])), scale=4.0)
        assert out.values[0, 0] == 5.2

    def test_unit_scale(self):
        out = apply(preset_jdrf(), GrayImage(np.array([[0.5]])), scale=1.0)
        assert out.values[0, 0] == 1.05

    def test_scale_linearity_exact(self):
        rng = np.random.default_rng(5)
        img = GrayImage(rng.uniform(size=(7, 9)))
        tf = preset_jdrf()
        for s in (0.5, 2.0, 4.0, 7.25):
            assert np.array_equal(
                apply(tf, img, scale=s).values, s * apply(tf, img, scale=1.0).values
            )

    def test_shape_preserved(self):
        out = apply(preset_jdrf(), GrayImage(np.zeros((3, 5))), scale=4.0)
        assert out.values.shape == (3, 5)

    def test_accepts_scalar_grid(self):
        grid = ScalarGrid(np.array([[0.1, 0.95]]))
        out = apply(preset_jdrf(), grid, scale=4.0)
        assert np.array_equal(out.values, [[5.2, 1.2]])

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            apply(preset_jdrf(), GrayImage(np.array([[0.5]])), scale=0.0)

    def test_vectorized_matches_scalar(self):
        tf = preset_jdrf()
        xs = np.linspace(0.0, 1.0, 101).reshape(1, -1)
        arr = apply(tf, GrayImage(xs), scale=4.0).values[0]
        for x, got in zip(xs[0], arr):
            assert got == 4.0 * tf.evaluate(float(x))


@st.composite
def tilings(draw):
    """Segments over [0, 1] cut at drawn points, each cut closed on the
    left, closed on the right, or a point segment [c,c] of its own."""
    cuts = sorted(set(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=6))))
    coef = st.floats(-10.0, 10.0)
    segments, lo, lo_closed = [], 0.0, True
    for c in cuts + [1.0]:
        kind = "left" if c == 1.0 else draw(st.sampled_from(["left", "right", "point"]))
        segments.append(Segment(lo, c, lo_closed, kind == "left", draw(coef), draw(coef)))
        if kind == "point":
            segments.append(Segment(c, c, True, True, draw(coef), draw(coef)))
        lo, lo_closed = c, kind == "right"
    return TransferFunction(segments)


def probe_points(tf: TransferFunction, rng: np.random.Generator) -> np.ndarray:
    """Every segment bound, its float neighbours on both sides, and random interior points."""
    bounds = np.unique([v for seg in tf.segments for v in (seg.lo, seg.hi)])
    near = np.concatenate([np.nextafter(bounds, 0.0), np.nextafter(bounds, 1.0)])
    return np.concatenate([bounds, near, rng.uniform(size=64)])


def assert_matches_scalar(tf: TransferFunction, xs: np.ndarray) -> None:
    expected = np.array([tf.evaluate(float(x)) for x in xs.ravel()]).reshape(xs.shape)
    assert_bitwise(tf.evaluate_array(xs), expected)


class TestEvaluateArray:
    def test_preset_bitwise_equal_to_scalar(self):
        tf = preset_jdrf()
        assert_matches_scalar(tf, probe_points(tf, np.random.default_rng(1)))

    @settings(max_examples=150, deadline=None)
    @given(tilings(), st.integers(0, 2**32 - 1))
    def test_tilings_bitwise_equal_to_scalar(self, tf, seed):
        assert_matches_scalar(tf, probe_points(tf, np.random.default_rng(seed)))

    def test_input_longer_than_a_block(self):
        tf = parse_transfer_spec("[0.0,0.5) => 1.0\n[0.5,0.5] => 2.0\n(0.5,1.0] => -0.5*x + 3.0\n")
        points = probe_points(tf, np.random.default_rng(2))
        xs = np.resize(points, (3, transfer._EVAL_BLOCK // 2 + 1))
        assert_matches_scalar(tf, xs)

    def test_nan_outside_the_domain(self):
        tf = preset_jdrf()
        with pytest.raises(IntensityDomainError):
            tf.evaluate(float("nan"))
        with pytest.raises(IntensityDomainError):
            tf.evaluate_array(np.array([0.5, np.nan]))

    @settings(max_examples=100, deadline=None)
    @given(tilings(), st.integers(1, 3), st.booleans(), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
    def test_bands_of_views_bitwise_equal_to_scalar(self, tf, band, mirror, scale, seed):
        # Bands of 1-3 rows through a flipped (and mirrored) view, as
        # grid_from_image hands it on, with and without out=.
        rng = np.random.default_rng(seed)
        points = rng.permutation(probe_points(tf, rng))
        width = 7
        values = np.resize(points, (-(-len(points) // width), width))
        oriented = (lambda v: v[::-1, ::-1]) if mirror else (lambda v: v[::-1])
        view = oriented(values)
        expected = np.array([tf.evaluate(float(x)) for x in view.ravel()]).reshape(view.shape)
        scaled = scale * expected
        untouched = values.copy()
        with mock.patch.object(transfer, "_EVAL_BLOCK", band * width):
            assert_bitwise(tf.evaluate_array(view), expected)
            assert_bitwise(apply(tf, ScalarGrid(view), scale).values, scaled)
            assert_bitwise(values, untouched)
            out = np.empty(view.shape)
            assert tf.evaluate_array(view, out=out) is out
            assert_bitwise(out, expected)
            in_place = oriented(values.copy())
            assert tf.evaluate_array(in_place, out=in_place) is in_place
            assert_bitwise(in_place, expected)
            in_place = oriented(values.copy())
            heights = apply(tf, ScalarGrid(in_place), scale, out=in_place).values
            assert np.shares_memory(heights, in_place)
            assert_bitwise(in_place, scaled)

    def test_out_must_match_shape_and_dtype(self):
        x = np.full((2, 3), 0.5)
        for out in (np.empty((3, 2)), np.empty((2, 3), dtype=np.float32)):
            with pytest.raises(ValueError, match="out must be float64"):
                preset_jdrf().evaluate_array(x, out=out)

    @settings(max_examples=50, deadline=None)
    @given(tilings(), st.floats(1e-3, 1e3))
    def test_apply_scales_exactly(self, tf, scale):
        grid = ScalarGrid(probe_points(tf, np.random.default_rng(3)).reshape(1, -1))
        scaled = apply(tf, grid, scale).values
        assert np.array_equal(scaled, scale * apply(tf, grid, 1.0).values)
