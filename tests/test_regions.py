"""Slice classification and the region grid."""

import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbound.attack import chsh_keyrate_bound, critical_visibility
from ccbound.correlations import CorrelationError, slice_correlation
from ccbound.localset import is_local_lp, local_visibility
from ccbound import regions
from ccbound.regions import (
    CSV_HEADER,
    LABELS,
    REGION_COMMENT,
    classify_arrays,
    fixed6_words,
    stream_region_csv,
)


def _label(s, t):
    """The label ``classify_arrays`` gives the one slice point (s, t)."""
    return LABELS[classify_arrays([s], [t])[2][0]]


def _points(resolution):
    """The grid's points as five arrays: s, t, and the visibility, theta and
    label code that ``classify_arrays`` gives them, point i being
    (axis[i % n], axis[i // n]).  The stream's bytes are the text of these."""
    axis = regions._grid_axis(resolution)
    s, t = np.tile(axis, len(axis)), np.repeat(axis, len(axis))
    return (s, t, *classify_arrays(s, t))


def _columns(resolution):
    """``_points(resolution)`` as five lists."""
    return [column.tolist() for column in _points(resolution)]


def test_classify_examples():
    assert _label(0.5, 0.4) == "LOCAL"
    assert _label(0.6, 0.6) == "BLUE_POSITIVE_BOUND"
    assert _label(0.55, 0.48) == "RED_ZERO_KEY"
    assert _label(1.0, 0.5) == "OUTSIDE_QUANTUM"


def test_classify_boundaries_closed():
    # the local boundary |s| + |t| = 1 and the critical curve belong to
    # LOCAL and RED respectively
    assert _label(1.0, 0.0) == "LOCAL"
    assert _label(0.3, 0.7) == "LOCAL"
    theta = 1.0
    v_crit = critical_visibility(theta)
    on_curve = _label(v_crit * math.cos(theta), v_crit * math.sin(theta))
    assert on_curve == "RED_ZERO_KEY"
    above = (v_crit + 1e-6)
    assert _label(above * math.cos(theta), above * math.sin(theta)) == "BLUE_POSITIVE_BOUND"


def test_disc_edge_is_the_one_slice_correlation_accepts():
    # s^2 + t^2 - 1 is 1.5e-12 and 7e-13: the first radius is within 1e-12
    # of 1, but the point lies outside the disc s^2 + t^2 <= 1 + 1e-12
    outside, inside = (0.9553364891263223, 0.29552020666156115), (0.9553364891259402, 0.2955202066614429)
    assert _label(*outside) == "OUTSIDE_QUANTUM"
    with pytest.raises(CorrelationError, match="not <= 1"):
        slice_correlation(*outside)
    assert _label(*inside) == "BLUE_POSITIVE_BOUND"
    slice_correlation(*inside)
    # within the LP slack of the facet, but outside the disc
    assert _label(1.0 + 5e-10, 0.0) == "OUTSIDE_QUANTUM"
    with pytest.raises(CorrelationError, match="not <= 1"):
        slice_correlation(1.0 + 5e-10, 0.0)


def test_classify_origin_and_axes():
    assert _label(0.0, 0.0) == "LOCAL"
    assert classify_arrays([0.0], [0.0])[1][0] == 0.0
    assert _label(0.0, 1.0) == "LOCAL"
    assert _label(0.0, 1.2) == "OUTSIDE_QUANTUM"


def test_classify_folds_other_quadrants():
    assert _label(-0.5, 0.4) == "LOCAL"
    assert _label(-0.55, -0.48) == "RED_ZERO_KEY"


def test_classify_polar_fields():
    visibility, theta, _ = classify_arrays([0.55], [0.48])
    assert visibility[0] == pytest.approx(math.hypot(0.55, 0.48), abs=1e-15)
    assert theta[0] == pytest.approx(math.atan2(0.48, 0.55), abs=1e-15)


def test_quantum_boundary_never_red():
    # ideal correlations (v = 1) always allow a positive bound
    for theta in np.linspace(0.05, math.pi / 2 - 0.05, 30):
        assert _label(math.cos(float(theta)), math.sin(float(theta))) == "BLUE_POSITIVE_BOUND"


def _streamed(resolution):
    """The bytes ``stream_region_csv`` writes at the resolution."""
    stream = io.BytesIO()
    stream_region_csv(resolution, stream)
    return stream.getvalue()


def test_grid_shape_and_ordering():
    rows = [line.split(",") for line in _streamed(2).decode("ascii").splitlines()[2:]]
    assert len(rows) == 4
    # row-major: t outer, s inner
    assert rows[0][:2] == ["0.000000", "0.000000"]
    assert rows[1][:2] == ["1.000000", "0.000000"]
    assert rows[2][:2] == ["0.000000", "1.000000"]
    assert rows[0][4] == "LOCAL"
    with pytest.raises(ValueError):
        stream_region_csv(1, io.BytesIO())


def test_grid_region_properties():
    s, t, visibility, theta, codes = _columns(101)
    red = [i for i, code in enumerate(codes) if LABELS[code] == "RED_ZERO_KEY"]
    blue = [i for i, code in enumerate(codes) if LABELS[code] == "BLUE_POSITIVE_BOUND"]
    assert red and blue
    for i in red:
        assert abs(s[i]) + abs(t[i]) > 1.0
        assert s[i]**2 + t[i]**2 <= 1.0 + 1e-12
        assert local_visibility(theta[i]) < visibility[i] <= critical_visibility(theta[i]) + 1e-12
        assert chsh_keyrate_bound(theta[i], visibility[i]) == 0.0
    for i in blue:
        if visibility[i] > critical_visibility(theta[i]) + 1e-6:
            assert chsh_keyrate_bound(theta[i], visibility[i]) > 0.0


def test_red_points_are_nonlocal_by_lp():
    s, t, _, _, codes = _columns(51)
    points = [(s[i], t[i]) for i, code in enumerate(codes) if LABELS[code] == "RED_ZERO_KEY"]
    rng = np.random.default_rng(12)
    for i in rng.choice(len(points), size=5, replace=False):
        assert not is_local_lp(slice_correlation(*points[i])).is_local


@pytest.mark.parametrize("phi", [0.1, 0.4, math.pi / 4, 1.2])
def test_classify_agrees_with_the_lp_next_to_the_facet(phi):
    # points delta outside the facet |s| + |t| = 1, where the LP's 1 - q is
    # delta: local within the one LP slack of 1e-9 by both rules, red beyond
    # it.  delta = 1e-9 itself is left out, as the LP's q rounds to either side
    for delta, local in [(1e-11, True), (1e-10, True), (5e-10, True), (2e-9, False), (1e-8, False)]:
        radius = (1 + delta) / (math.cos(phi) + math.sin(phi))
        s, t = radius * math.cos(phi), radius * math.sin(phi)
        assert is_local_lp(slice_correlation(s, t)).is_local == local, delta
        assert _label(s, t) == ("LOCAL" if local else "RED_ZERO_KEY"), delta


@pytest.mark.parametrize(
    "s, t", [([0.1, 0.2], [0.3]), ([0.3], [0.1, 0.2]), ([[0.1, 0.2]], [[0.3, 0.4]]), (0.1, 0.2), ([0.1], 0.2)]
)
def test_classify_arrays_rejects_arrays_that_are_not_one_dimensional_pairs(s, t):
    shapes = f"got shapes {np.shape(s)} and {np.shape(t)}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        classify_arrays(s, t)


def test_csv_format():
    lines = _streamed(3).decode("ascii").splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + 9
    assert lines[2] == "0.000000,0.000000,0.000000,0.000000,LOCAL"
    # fixed 6-decimal formatting throughout
    assert lines[3] == "0.500000,0.000000,0.500000,0.000000,LOCAL"


def test_format_point_is_stable():
    # the point s = 0.55, t = 0.48: row-major with t outer, so row 48 * 101 + 55
    assert _streamed(101).decode("ascii").splitlines()[2 + 48 * 101 + 55] == (
        "0.550000,0.480000,0.730000,0.717541,RED_ZERO_KEY"
    )


def _percent6_lines(s, t, visibility, theta, codes):
    """The CSV rows of the points, each value formatted by "%.6f"."""
    return [
        f"{s:.6f},{t:.6f},{v:.6f},{theta:.6f},{LABELS[code]}"
        for s, t, v, theta, code in zip(*(column.tolist() for column in (s, t, visibility, theta, codes)))
    ]


def _written(axis, visibility, theta, codes):
    """The CSV text ``_write_blocks`` makes of the arrays of the points
    (axis[i % n], axis[i // n]), passed to it in ``_row_blocks`` blocks."""
    n = len(axis)
    arrays = [array.reshape(n, n) for array in (visibility, theta, codes)]
    stream = io.BytesIO()
    regions._write_blocks(axis, ([array[rows] for array in arrays] for rows in regions._row_blocks(n)), stream.write)
    return stream.getvalue().decode("ascii")


@pytest.mark.parametrize("resolution", [257, 300])
def test_csv_rows_match_percent_format_of_the_grid(resolution):
    # 257: the axis step 1/256 puts exact binary ties into the axis fields;
    # 300: 90,000 points end on a partial block of t rows
    axis = regions._grid_axis(resolution)
    s, t, visibility, theta, codes = _points(resolution)
    # the near-tie fallback of fixed6_words decides no byte of any grid
    # (rint and "%.6f" both round exact ties to even), so the writer is also
    # given v and theta values at or an ulp from decimal ties, which
    # rint(v * 1e6) alone gets wrong about 1% of the time
    rng = np.random.default_rng(resolution)
    ties = (rng.integers(0, 2_000_000, size=(2, len(codes))) + 0.5) / 1e6
    side = rng.integers(-1, 2, size=ties.shape)
    near = np.where(side < 0, np.nextafter(ties, 0.0), np.where(side > 0, np.nextafter(ties, 10.0), ties))
    for v, angle in ((visibility, theta), (near[0], near[1])):
        assert _written(axis, v, angle, codes).split("\n")[2:] == _percent6_lines(s, t, v, angle, codes) + [""]


@pytest.mark.parametrize("resolution", [2, 3, 7, 21, 100, 201, 333, 401, 801])
def test_streamed_csv_bytes_are_the_written_text(resolution):
    # the stream labels and formats numpy's polar form; the oracle formats
    # the scalar formulas' values and classify_arrays' labels row by row
    lines = [REGION_COMMENT, CSV_HEADER, *_percent6_lines(*_points(resolution)), ""]
    assert _streamed(resolution) == "\n".join(lines).encode("ascii")


def _shifted(function, ulps):
    """function with each nonzero value it returns moved ulps ulps up, or
    down for negative ulps; zero stays zero, as any hypot and arctan2 give it."""
    def shifted(*args):
        value = function(*args)
        for _ in range(abs(ulps)):
            value = np.where(value == 0.0, value, np.nextafter(value, math.copysign(math.inf, ulps)))
        return value
    return shifted


def _shift_numpy_polar_form(monkeypatch, ulps):
    monkeypatch.setattr(regions.np, "hypot", _shifted(np.hypot, ulps))
    monkeypatch.setattr(regions.np, "arctan2", _shifted(np.arctan2, ulps))


@pytest.mark.parametrize("ulps", [2, -2])
def test_streamed_csv_bytes_do_not_depend_on_the_last_bits_of_numpy_polar_form(monkeypatch, ulps):
    # a CPU whose hypot and arctan2 are 2 ulps off either way writes the same
    # bytes: every point those bits could decide takes the scalar formulas
    expected = {}
    for resolution in (201, 401):
        expected[resolution] = io.BytesIO()
        stream_region_csv(resolution, expected[resolution])
    _shift_numpy_polar_form(monkeypatch, ulps)
    for resolution, stream in expected.items():
        shifted = io.BytesIO()
        stream_region_csv(resolution, shifted)
        assert shifted.getvalue() == stream.getvalue(), resolution


@pytest.mark.parametrize("ulps", [2, 0, -2])
def test_points_a_last_bit_could_decide_keep_the_scalar_label_and_text(monkeypatch, ulps):
    # polar points (v, angle): a visibility on a "%.6f" tie, an angle on one,
    # and a point on the critical curve; the grid over their coordinates
    # holds each as (s, t) = (axis[2k], axis[2k + 1])
    points = [(0.9000005, 0.5), (0.85, 0.8000005), (critical_visibility(1.0), 1.0)]
    axis = np.array([x for v, angle in points for x in (v * math.cos(angle), v * math.sin(angle))])
    _shift_numpy_polar_form(monkeypatch, ulps)
    visibility, theta, codes = (np.concatenate(arrays) for arrays in zip(*regions._classified_blocks(axis)))
    n = len(axis)
    scalar_visibility, scalar_theta, scalar_codes = classify_arrays(np.tile(axis, n), np.repeat(axis, n))
    assert codes.ravel().tolist() == scalar_codes.tolist()
    assert fixed6_words(visibility.ravel()).tolist() == fixed6_words(scalar_visibility).tolist()
    assert fixed6_words(theta.ravel()).tolist() == fixed6_words(scalar_theta).tolist()
    for k in range(len(points)):
        s, t = axis[2 * k], axis[2 * k + 1]
        assert (visibility[2 * k + 1, 2 * k], theta[2 * k + 1, 2 * k]) == (math.hypot(s, t), math.atan2(t, s))
    ties = ["%.7f" % value for value in (visibility[1, 0], theta[3, 2])]
    assert ties == ["0.9000005", "0.8000005"]


def test_csv_record_layout():
    # a record holds a row's text at the offsets of its fields: four
    # "d.dddddd" words one comma apart, then the NUL-padded label
    assert regions._ROW.itemsize == 56
    assert dict(regions._ROW.fields) == {
        "s": (np.dtype(np.uint64), 0), "t": (np.dtype(np.uint64), 9), "v": (np.dtype(np.uint64), 18),
        "theta": (np.dtype(np.uint64), 27), "label": (np.dtype("V20"), 36),
    }
    assert [bytes(label) for label in regions._LABEL_ROWS] == [
        f"{label}\n".encode("ascii").ljust(20, b"\0") for label in LABELS
    ]


def test_csv_rows_are_the_points_the_grid_indexes():
    # the writer reads s and t from the axis, point i being
    # (axis[i % n], axis[i // n]), so the arrays of a grid written over
    # another axis give the points of that axis
    s, t, visibility, theta, codes = _points(51)
    squared = regions._grid_axis(51) ** 2
    rows = _percent6_lines(np.tile(squared, 51), np.repeat(squared, 51), visibility, theta, codes)
    assert _written(squared, visibility, theta, codes).split("\n")[2:] == rows + [""]


@pytest.mark.parametrize("resolution", [2.5, 3.0])
def test_grid_refuses_a_resolution_that_is_not_an_integer(resolution):
    # 2.5 would give the axis [0, 0.667, 1.333] and a CSV row outside the unit square
    stream = io.BytesIO()
    with pytest.raises(TypeError):
        stream_region_csv(resolution, stream)
    assert stream.getvalue() == b""


def test_grid_takes_a_numpy_integer_resolution():
    assert regions._grid_axis(np.int64(3)).tolist() == [0.0, 0.5, 1.0]
    assert _streamed(np.int64(3)) == _streamed(3)


def test_classify_labels_overflowing_coordinates_outside_quantum():
    # s + t and s^2 + t^2 overflow to inf without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, codes = classify_arrays([1e308, 1e200, 1.4e154], [1e308, 0.0, 0.0])
    assert [LABELS[code] for code in codes] == ["OUTSIDE_QUANTUM"] * 3


def test_grid_arrays_are_classify_arrays_of_its_points():
    # 300 points a row give blocks of 54 rows, the last of them 30 rows; the
    # streamed blocks hold the labels and "%.6f" text of classify_arrays
    blocks = list(regions._classified_blocks(regions._grid_axis(300)))
    assert [len(codes) for _, _, codes in blocks] == [54] * 5 + [30]
    _, _, visibility, theta, codes = _points(300)
    streamed = [np.concatenate([block[k] for block in blocks]).ravel() for k in range(3)]
    assert streamed[2].dtype == codes.dtype and streamed[2].tobytes() == codes.tobytes()
    for values, scalar in zip(streamed[:2], (visibility, theta)):
        assert fixed6_words(values).tobytes() == fixed6_words(scalar).tobytes()


def test_classify_rejects_nan():
    with pytest.raises(ValueError):
        classify_arrays([math.nan], [0.5])


def test_grid_polar_fields_and_labels_match_scalar_formulas():
    red = blue = 0
    for s, t, visibility, theta, code in zip(*_columns(201)):
        assert visibility == math.hypot(s, t)
        assert theta == math.atan2(t, s)
        if s + t > 1.0 + 1e-12 and visibility <= 1.0 + 1e-12:
            is_red = visibility <= critical_visibility(theta)
            assert LABELS[code] == ("RED_ZERO_KEY" if is_red else "BLUE_POSITIVE_BOUND")
            red, blue = red + is_red, blue + (not is_red)
    assert red and blue


def test_labels_on_the_critical_curve_match_critical_visibility():
    # points within an ulp or two of the curve: the array rule must round
    # exactly as attack.critical_visibility does
    red = 0
    for theta in np.linspace(0.01, math.pi / 2 - 0.01, 2000).tolist():
        v_c = critical_visibility(theta)
        for v in (np.nextafter(v_c, 0.0), v_c, np.nextafter(v_c, 1.0)):
            (visibility,), (angle,), (code,) = classify_arrays([v * math.cos(theta)], [v * math.sin(theta)])
            is_red = visibility <= critical_visibility(angle)
            assert LABELS[code] == ("RED_ZERO_KEY" if is_red else "BLUE_POSITIVE_BOUND")
            red += is_red
    assert 0 < red < 6000


def _percent6(values):
    return "".join("%.6f" % v for v in values).encode("ascii")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=9.999999), min_size=1, max_size=40))
def test_fixed6_bytes_matches_percent_format(values):
    assert fixed6_words(np.array(values)).tobytes() == _percent6(values)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=9_999_998))
def test_fixed6_bytes_next_to_decimal_ties(k):
    tie = (k + 0.5) / 1e6
    below, above = np.nextafter(tie, 0.0), np.nextafter(tie, 10.0)
    values = [tie, below, np.nextafter(below, 0.0), above, np.nextafter(above, 10.0)]
    assert fixed6_words(np.array(values)).tobytes() == _percent6(values)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=9.999999),
            st.integers(min_value=0, max_value=9_999_998).map(lambda k: (k + 0.5) / 1e6),
            st.integers(min_value=0, max_value=9_999_998).map(lambda k: np.nextafter((k + 0.5) / 1e6, 0.0)),
            st.integers(min_value=0, max_value=9_999_998).map(lambda k: np.nextafter((k + 0.5) / 1e6, 10.0)),
        ),
        min_size=1, max_size=12,
    ),
    st.sampled_from(["0-d", "1-d", "2-d"]),
)
def test_fixed6_words_hold_the_percent_format_in_the_input_shape(values, ndim):
    x = {"0-d": np.array(values[0]), "1-d": np.array(values), "2-d": np.array(values * 2).reshape(2, -1)}[ndim]
    words = fixed6_words(x)
    assert words.dtype == np.uint64 and words.shape == x.shape
    assert words.tobytes() == _percent6(x.ravel().tolist())


def test_fixed6_bytes_exact_binary_ties_and_grid_steps():
    assert fixed6_words(0.0078125).tobytes() == b"0.007812"
    values = np.concatenate([np.arange(1280) / 128, np.arange(3201) / 3200])
    assert fixed6_words(values).tobytes() == _percent6(values.tolist())


@pytest.mark.parametrize("bad", [-0.0, -1e-9, 9.9999996, 10.0, math.nan, math.inf])
def test_fixed6_bytes_rejects_values_wider_than_eight_bytes(bad):
    with pytest.raises(ValueError):
        fixed6_words(np.array([bad]))
