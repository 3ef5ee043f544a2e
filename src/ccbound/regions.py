"""Classification of the two-parameter correlation slice into local,
zero-key, positive-bound and non-quantum regions."""

from __future__ import annotations

import math
import operator

import numpy as np

from ._jsondoc import ATOL
from .attack import critical_visibility, zero_key_visibility
from .kernels import LP_SLACK

# points per block of the grid: one block's arrays, its record buffer and
# the joined bytes of its rows then stay near 1 MB.
# stream_region_csv classifies and writes blocks of the whole t rows that
# fit (at least one row)
BLOCK_POINTS = 1 << 14


# label codes returned by classify_arrays index this tuple
LABELS = ("LOCAL", "RED_ZERO_KEY", "BLUE_POSITIVE_BOUND", "OUTSIDE_QUANTUM")
_LOCAL, _RED, _BLUE, _OUTSIDE = range(len(LABELS))


def classify_arrays(s, t):
    """Label the slice points (s[i], t[i]) of two 1-D arrays.

    Returns (visibility, theta, codes), where codes index ``LABELS``.
    OUTSIDE_QUANTUM when s^2 + t^2 > 1 + ATOL, the disc test of
    ``correlations.slice_correlation``; otherwise LOCAL when |s| + |t| <=
    1 + LP_SLACK (the four relabelled facets, closed set, within the
    membership LP's slack: its 1 - q is |s| + |t| - 1 here); otherwise
    RED_ZERO_KEY up to and including the critical visibility of the polar
    angle, BLUE_POSITIVE_BOUND above it.  Points outside the first quadrant
    are folded onto |s|, |t|; a point whose |s| + |t| or s^2 + t^2
    overflows is OUTSIDE_QUANTUM.

    This LOCAL test and the LP's verdict round |s| + |t| - 1 and 1 - q
    differently, so they can disagree within rounding of the slack itself:
    of 200 points exactly 1e-9 outside the facet, 134 are LOCAL here and
    nonlocal to the LP, and 1 the other way round; at 9.9e-10 and 1.01e-9
    outside it all 200 agree.

    visibility and theta are ``math.hypot`` and ``math.atan2`` point by
    point.  The critical visibility takes the local visibility
    1/(cos theta + sin theta) as r/(|s| + |t|), a few ulps from it, and is
    recomputed by ``attack.critical_visibility`` for the points within
    1e-12 of it, so every label is that of the scalar formulas.

    ``stream_region_csv`` labels with it the points where numpy's polar
    form could change a byte, so the CSV of a grid is the text of
    ``classify_arrays`` over the grid's tiled axis.
    """
    fs = np.abs(np.asarray(s, dtype=float))
    ft = np.abs(np.asarray(t, dtype=float))
    if fs.ndim != 1 or fs.shape != ft.shape:
        raise ValueError(f"s and t must be 1-D arrays of one length, got shapes {fs.shape} and {ft.shape}")
    if np.isnan(fs).any() or np.isnan(ft).any():
        raise ValueError("slice coordinates must not be NaN")
    xs, ys = fs.tolist(), ft.tolist()
    visibility = np.fromiter(map(math.hypot, xs, ys), float, len(xs))
    theta = np.fromiter(map(math.atan2, ys, xs), float, len(xs))
    return visibility, theta, _label(fs, ft, visibility, theta)[0]


def _label(s, t, visibility, theta):
    """The label codes of the folded points (s, t), broadcast to the shape
    of their polar form, and each point's gap r - v_c to the critical
    visibility that ``zero_key_visibility`` gives at r/(s + t) (inf for
    LOCAL and OUTSIDE_QUANTUM points)."""
    with np.errstate(over="ignore"):
        sums = s + t
        outside = s * s + t * t > 1.0 + ATOL
    local = ~outside & (sums <= 1.0 + LP_SLACK)
    annulus = np.flatnonzero(~(local | outside))
    radii = visibility.ravel()[annulus]
    gaps = np.full(visibility.shape, np.inf)
    gaps.flat[annulus] = annulus_gaps = radii - zero_key_visibility(1.0, radii / sums.ravel()[annulus])
    red = annulus_gaps <= 0.0
    near = np.flatnonzero(np.abs(annulus_gaps) <= 1e-12)
    red[near] = radii[near] <= [critical_visibility(angle) for angle in theta.ravel()[annulus[near]].tolist()]

    codes = np.full(visibility.shape, _BLUE, dtype=np.int8)
    codes[local] = _LOCAL
    codes[outside] = _OUTSIDE
    codes.flat[annulus[red]] = _RED
    return codes, gaps


def _row_blocks(n: int) -> list[slice]:
    """The t rows of each block of a grid with n points per axis."""
    step = max(1, BLOCK_POINTS // n)
    return [slice(first, min(first + step, n)) for first in range(0, n, step)]


def _classified_blocks(axis: np.ndarray):
    """(visibility, theta, codes) of each ``_row_blocks`` block of the grid
    over the non-negative axis, each of shape (rows, len(axis)); a block's
    temporaries are freed before it is handed on."""
    return (_classified_block(axis, axis[rows, None]) for rows in _row_blocks(len(axis)))


def _classified_block(s: np.ndarray, t: np.ndarray):
    """(visibility, theta, codes) of the points (s[j], t[i, 0]) for the
    non-negative row s and column t, each of shape (len(t), len(s)).

    The polar form is numpy's ``hypot`` and ``arctan2``, whose last bits
    can differ from the scalar formulas'.  A point those bits could decide
    is classified by ``classify_arrays`` instead: a value within
    1e-4 micro-units of a ``"%.6f"`` tie, or a radius within 1e-11 of the
    critical visibility.  Each margin is over 10^4 times the few ulps
    between the two, so every label and ``fixed6_words`` text is that of
    ``classify_arrays`` (its LOCAL and disc tests read s and t alone).  On
    the 801 grid, 223 of 641,601 points go to ``classify_arrays``.
    """
    visibility, theta = np.hypot(s, t), np.arctan2(t, s)
    codes, gaps = _label(s, t, visibility, theta)
    marked = np.abs(gaps) <= 1e-11
    for values in (visibility, theta):
        scaled = values * 1e6
        marked |= np.abs(scaled - np.rint(scaled)) > 0.5 - 1e-4
    i, j = np.nonzero(marked)
    visibility[i, j], theta[i, j], codes[i, j] = classify_arrays(s[j], t[i, 0])
    return visibility, theta, codes


def _grid_axis(resolution: int) -> np.ndarray:
    """The coordinates shared by s and t on the uniform grid over [0, 1]^2."""
    resolution = operator.index(resolution)
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    return np.arange(resolution) * (1.0 / (resolution - 1))


REGION_COMMENT = "# grid ordering: row-major, t outer loop, s inner loop"
CSV_HEADER = "s,t,v,theta,label"


# "%.6f" text of the micro-units u < 10^7 as two native uint32 words:
# _HEAD_WORDS[u // 10^4] is "d.dd", _TAIL_WORDS[u % 10^4] is "dddd"
# (built from digit arrays: formatting 11,000 strings would add 5 ms to each import)
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)
_TAIL_BYTES = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).reshape(10000, 4)
_TAIL_WORDS = _TAIL_BYTES.view(np.uint32).ravel()
_HEAD_WORDS = np.insert(_TAIL_BYTES[:1000, 1:], 1, ord("."), axis=1).view(np.uint32).ravel()


def fixed6_words(x) -> np.ndarray:
    """The ASCII text of ``"%.6f" % v`` for each v of x, as one native
    ``u8`` word per value whose 8 bytes, in memory order, are that text.

    Every value must lie in [0, 9.9999995), where that text is d.dddddd.
    The digits come from the micro-units rint(v * 1e6).  That product is
    within 1e-9 of the exact v * 10^6, so it rounds as "%.6f" does except
    within that distance of a tie; values within 1e-12 of a tie (1e-6
    micro-units from a half-integer) are formatted by Python instead.
    """
    x = np.asarray(x, dtype=float)
    scaled = x * 1e6
    micro = np.rint(scaled)
    if not np.all(~np.signbit(x) & (micro < 1e7)):
        raise ValueError("fixed-width fields need values in [0, 9.9999995)")
    units = micro.astype(np.uint32)
    head = units // 10000
    words = np.empty(x.shape + (2,), dtype=np.uint32)
    np.take(_HEAD_WORDS, head, out=words[..., 0])
    np.take(_TAIL_WORDS, units - head * 10000, out=words[..., 1])
    text = words.view(np.uint8).reshape(-1, 8)
    for i in np.flatnonzero(np.abs(scaled - micro).ravel() > 0.5 - 1e-6).tolist():
        text[i] = np.frombuffer(("%.6f" % x.flat[i]).encode("ascii"), dtype=np.uint8)
    return words.view(np.uint64).reshape(x.shape)


# a label field: the label and its newline, NUL-padded to the longest one;
# a row of label k is the first _ROW_WIDTHS[k] bytes of its record, so the
# padding is never written
_LABEL_WIDTH = max(map(len, LABELS)) + 1
_LABEL_ROWS = np.array([f"{label}\n".encode("ascii") for label in LABELS], dtype=f"V{_LABEL_WIDTH}")
# a CSV row as a record: four "d.dddddd" fields held as fixed6_words, each
# followed by a comma, then the label field
_ROW = np.dtype({"names": ["s", "t", "v", "theta", "label"], "formats": ["u8"] * 4 + [_LABEL_ROWS.dtype],
                 "offsets": [0, 9, 18, 27, 36], "itemsize": 36 + _LABEL_WIDTH})
_ROW_WIDTHS = [36 + len(label) + 1 for label in LABELS]


def stream_region_csv(resolution: int, stream) -> None:
    """Write the slice classification of the uniform grid over [0, 1]^2 as
    CSV (6-decimal fixed formatting) to a binary stream, classifying one
    block of whole t rows at a time and holding only that block.

    The resolution is checked before anything is written.  The leading
    comment line records the grid ordering, t outer and s inner.  Each row
    is the ``"%.6f"`` text of s, t and the visibility and theta that
    ``classify_arrays`` gives the point, then its label.
    """
    axis = _grid_axis(resolution)
    _write_blocks(axis, _classified_blocks(axis), stream.write)


def _write_blocks(axis: np.ndarray, blocks, write) -> None:
    """Pass the CSV bytes of the grid over axis to write: the header lines,
    then the rows of each ``_row_blocks`` block from its (visibility, theta,
    codes), each of shape (rows, len(axis)), as records of one buffer.

    Each block's bytes are passed on as soon as they are cut, so none are
    held while the next block is classified."""
    write(f"{REGION_COMMENT}\n{CSV_HEADER}\n".encode("ascii"))
    n = len(axis)
    axis_words = fixed6_words(axis)
    row_blocks = _row_blocks(n)
    buffer = np.empty((row_blocks[0].stop, n), dtype=_ROW)
    buffer.view(np.uint8).reshape(-1, _ROW.itemsize)[:, 8:36:9] = ord(",")
    buffer["s"] = axis_words
    for rows, (visibility, theta, codes) in zip(row_blocks, blocks):
        out = buffer[: len(codes)]
        out["t"] = axis_words[rows, None]
        out["v"] = fixed6_words(visibility)
        out["theta"] = fixed6_words(theta)
        out["label"] = _LABEL_ROWS[codes]
        write(_cut_rows(out.view(np.uint8).reshape(-1, _ROW.itemsize), codes.ravel()))


def _cut_rows(rows: np.ndarray, codes: np.ndarray) -> bytes:
    """The bytes of the buffer rows, each run of equal label codes cut to
    its label's row width."""
    bounds = [0, *(np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist(), len(codes)]
    widths = [_ROW_WIDTHS[code] for code in codes[bounds[:-1]].tolist()]
    return b"".join(rows[i:j, :width].tobytes() for i, j, width in zip(bounds, bounds[1:], widths))
