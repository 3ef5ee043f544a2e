"""Classification of the two-parameter correlation slice into local,
zero-key, positive-bound and non-quantum regions."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._jsondoc import ATOL

# points per block of the grid: bounds the Python float lists of
# classify_arrays and the byte rows of write_region_csv.  region_grid and
# the writer both take blocks of the whole t rows that fit (at least one row)
BLOCK_POINTS = 1 << 16


class RegionLabel(str, Enum):
    LOCAL = "LOCAL"
    RED_ZERO_KEY = "RED_ZERO_KEY"
    BLUE_POSITIVE_BOUND = "BLUE_POSITIVE_BOUND"
    OUTSIDE_QUANTUM = "OUTSIDE_QUANTUM"

    def __str__(self):
        return self.value


# label codes returned by classify_arrays index this tuple
LABELS = tuple(RegionLabel)
_LOCAL, _RED, _BLUE, _OUTSIDE = range(len(LABELS))


@dataclass(frozen=True)
class RegionPoint:
    """A classified slice point with its polar form."""

    s: float
    t: float
    visibility: float
    theta: float
    label: RegionLabel


def classify_arrays(s, t):
    """Label the slice points (s[i], t[i]) of two 1-D arrays.

    Returns (visibility, theta, codes), where codes index ``LABELS``.
    LOCAL when |s| + |t| <= 1 (the four relabelled facets, closed set);
    OUTSIDE_QUANTUM when s^2 + t^2 > 1; otherwise RED_ZERO_KEY up to and
    including the critical visibility of the polar angle, BLUE_POSITIVE_BOUND
    above it.  Points outside the first quadrant are folded onto |s|, |t|.

    The polar form and the critical visibility use the ``math`` functions
    point by point, so every value equals the scalar formulas bit for bit;
    numpy's hypot and arctan2 differ from them in the last bit on 3,735 and
    31,293 of the 641,601 points of the 801 grid (numpy 2.4, x86-64).
    """
    fs = np.abs(np.asarray(s, dtype=float))
    ft = np.abs(np.asarray(t, dtype=float))
    if np.isnan(fs).any() or np.isnan(ft).any():
        raise ValueError("slice coordinates must not be NaN")
    n = fs.size
    xs, ys = fs.tolist(), ft.tolist()
    visibility = np.fromiter(map(math.hypot, xs, ys), float, n)
    theta = np.fromiter(map(math.atan2, ys, xs), float, n)

    local = fs + ft <= 1.0 + ATOL
    outside = ~local & (visibility > 1.0 + ATOL)
    annulus = np.flatnonzero(~(local | outside))
    angles = theta[annulus].tolist()
    cos = np.fromiter(map(math.cos, angles), float, len(angles))
    sin = np.fromiter(map(math.sin, angles), float, len(angles))
    # attack.critical_visibility in its operation order:
    # zero_key_visibility(1.0, v_l) with v_l = localset.local_visibility(theta)
    v_l = 1.0 / (cos + sin)
    critical = (v_l * 1.0 + 1.0) / ((v_l * -1.0 + 4.0) - 1.0)

    codes = np.full(n, _BLUE, dtype=np.int8)
    codes[local] = _LOCAL
    codes[outside] = _OUTSIDE
    codes[annulus[visibility[annulus] <= critical]] = _RED
    return visibility, theta, codes


def classify(s: float, t: float) -> RegionPoint:
    """Label one slice point; see ``classify_arrays`` for the rule."""
    visibility, theta, codes = classify_arrays([s], [t])
    return RegionPoint(float(s), float(t), float(visibility[0]), float(theta[0]), LABELS[codes[0]])


def _row_blocks(n: int) -> range:
    """First t row of each block of a grid with n points per axis."""
    return range(0, n, max(1, BLOCK_POINTS // n))


@dataclass(frozen=True, eq=False)
class RegionGrid(Sequence):
    """Classified slice points held as read-only arrays.

    ``axis`` holds the coordinates shared by s and t: with n = len(axis),
    point i is (s, t) = (axis[i % n], axis[i // n]), so t is the outer loop.
    Indexing and iteration give ``RegionPoint`` values, so the grid reads
    like a list of points.
    """

    visibility: np.ndarray
    theta: np.ndarray
    codes: np.ndarray
    axis: np.ndarray

    def __post_init__(self):
        size = len(self.axis) ** 2
        if any(array.shape != (size,) for array in (self.visibility, self.theta, self.codes)):
            raise ValueError(f"visibility, theta and codes must each hold len(axis)**2 = {size} points")
        for array in (self.visibility, self.theta, self.codes, self.axis):
            array.setflags(write=False)

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]
        t, s = divmod(i, len(self.axis))
        return RegionPoint(
            float(self.axis[s]), float(self.axis[t]), float(self.visibility[i]),
            float(self.theta[i]), LABELS[self.codes[i]],
        )


def region_grid(resolution: int) -> RegionGrid:
    """Classified points of the uniform grid over [0, 1]^2.

    Row-major with t as the outer loop and s as the inner loop.  The points
    are classified in the blocks of whole t rows that ``write_region_csv``
    writes.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    n = resolution
    axis = np.arange(n) * (1.0 / (n - 1))
    visibility = np.empty(n * n)
    theta = np.empty(n * n)
    codes = np.empty(n * n, dtype=np.int8)
    blocks = _row_blocks(n)
    for first in blocks:
        rows = axis[first : first + blocks.step]
        block = slice(first * n, (first + len(rows)) * n)
        visibility[block], theta[block], codes[block] = classify_arrays(
            np.tile(axis, len(rows)), np.repeat(rows, n)
        )
    return RegionGrid(visibility, theta, codes, axis)


REGION_COMMENT = "# grid ordering: row-major, t outer loop, s inner loop"
CSV_HEADER = "s,t,v,theta,label"


# "%.6f" text of the micro-units u < 10^7 as two native uint32 words:
# _HEAD_WORDS[u // 10^4] is "d.dd", _TAIL_WORDS[u % 10^4] is "dddd"
# (built from digit arrays: formatting 11,000 strings would add 5 ms to each import)
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)
_TAIL_BYTES = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).reshape(10000, 4)
_TAIL_WORDS = _TAIL_BYTES.view(np.uint32).ravel()
_HEAD_WORDS = np.insert(_TAIL_BYTES[:1000, 1:], 1, ord("."), axis=1).view(np.uint32).ravel()


def fixed6_bytes(x) -> np.ndarray:
    """The ASCII bytes of ``"%.6f" % v`` for each v of x, 8 per value.

    Every value must lie in [0, 9.9999995), where that text is d.dddddd.
    The digits come from the micro-units rint(v * 1e6).  That product is
    within 1e-9 of the exact v * 10^6, so it rounds as "%.6f" does except
    within that distance of a tie; values near a tie are formatted by
    Python instead.
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
    out = words.view(np.uint8)
    near_tie = np.abs(scaled - micro) > 0.5 - 1e-6
    if near_tie.any():
        for index in map(tuple, np.argwhere(near_tie)):
            out[index] = np.frombuffer(("%.6f" % x[index]).encode("ascii"), dtype=np.uint8)
    return out


# a label field: the label NUL-padded to the longest one, then the newline
_LABEL_WIDTH = max(len(label.value) for label in LABELS)
_LABEL_ROWS = np.array(
    [np.frombuffer(label.value.encode("ascii").ljust(_LABEL_WIDTH, b"\0") + b"\n", dtype=np.uint8)
     for label in LABELS]
)
# a CSV row: four 9-byte "d.dddddd," fields, then the label field
_ROW_WIDTH = 4 * 9 + _LABEL_WIDTH + 1


def write_region_csv(grid: RegionGrid, stream) -> None:
    """Write the slice classification as CSV (6-decimal fixed formatting).

    The leading comment line records the grid ordering.  Rows are written
    in blocks of whole t rows, at most ``BLOCK_POINTS`` points (or one t
    row) each, one ``stream.write`` per block.  The s and t fields are
    broadcast from the grid's axis, formatted once.
    """
    stream.write(f"{REGION_COMMENT}\n{CSV_HEADER}\n")
    n = len(grid.axis)
    axis_fields = np.empty((n, 9), dtype=np.uint8)
    axis_fields[:, :8] = fixed6_bytes(grid.axis)
    axis_fields[:, 8] = ord(",")
    blocks = _row_blocks(n)
    buffer = np.empty((min(blocks.step, n), n, _ROW_WIDTH), dtype=np.uint8)
    buffer[..., 0:9] = axis_fields
    buffer[..., 26] = buffer[..., 35] = ord(",")
    for first in blocks:
        rows = buffer[: min(blocks.step, n - first)]
        block = slice(first * n, (first + len(rows)) * n)
        rows[..., 9:18] = axis_fields[first : first + len(rows), None]
        rows[..., 18:26] = fixed6_bytes(grid.visibility[block]).reshape(len(rows), n, 8)
        rows[..., 27:35] = fixed6_bytes(grid.theta[block]).reshape(len(rows), n, 8)
        rows[..., 36:] = _LABEL_ROWS[grid.codes[block]].reshape(len(rows), n, -1)
        stream.write(rows.tobytes().translate(None, b"\0").decode("ascii"))
