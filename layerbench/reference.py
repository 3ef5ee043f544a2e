"""Independent references the benchmark checks ccbound's results against.

Nothing here imports ccbound: the entropy formula, the closed forms, the
region classification and the local-polytope vertices are written out
again in plain numpy, and the NS-weight LP is solved with scipy's HiGHS.
A check that used ccbound's own code as its reference would pass whenever
both were wrong in the same way.
"""

import itertools
import math

import numpy as np


def entropy_bits(p):
    """Shannon entropy in bits of a nonnegative array summing to one."""
    w = np.asarray(p, dtype=float).ravel()
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def cmi_after_map_bits(p_abe, rows):
    """I(A:B|F) = H(AF) + H(BF) - H(ABF) - H(F) after p(a,b,f) = sum_e p(a,b,e) rows[e,f]."""
    p_abf = np.einsum("abe,ef->abf", np.asarray(p_abe, dtype=float), np.asarray(rows, dtype=float))
    return (
        entropy_bits(p_abf.sum(axis=1))
        + entropy_bits(p_abf.sum(axis=0))
        - entropy_bits(p_abf)
        - entropy_bits(p_abf.sum(axis=(0, 1)))
    )


def mutual_information_bits(p_ab):
    """I(A:B) = H(A) + H(B) - H(AB)."""
    p_ab = np.asarray(p_ab, dtype=float)
    return entropy_bits(p_ab.sum(axis=1)) + entropy_bits(p_ab.sum(axis=0)) - entropy_bits(p_ab)


def local_visibility(theta):
    """Locality threshold 1/(cos t + sin t) of the theta protocol."""
    return 1.0 / (math.cos(theta) + math.sin(theta))


def critical_visibility(theta):
    """(v_l + 1)/(3 - v_l): the visibility up to which the key-rate bound is zero."""
    v_l = local_visibility(theta)
    return (v_l + 1.0) / (3.0 - v_l)


def keyrate_closed_form(theta, v):
    """Closed-form key-rate bound of the theta protocol keyed on settings (0, 2).

    Zero up to the critical visibility; above it
    2z + (1-q) log2[(1-q)/(2z)] + q(1-s) log2[q(1-s)/(2z)]
    with s = (1 + v_l)/2, q = (1 - v)/(1 - v_l) and z = 1 - s q.
    """
    v_l = local_visibility(theta)
    if v <= critical_visibility(theta):
        return 0.0
    s = 0.5 * (1.0 + v_l)
    q = (1.0 - v) / (1.0 - v_l)
    z = 1.0 - s * q
    value = 2.0 * z + (1.0 - q) * math.log2((1.0 - q) / (2.0 * z))
    hidden = q * (1.0 - s)
    if hidden > 0.0:
        value += hidden * math.log2(hidden / (2.0 * z))
    return max(value, 0.0)


def segment_weight(theta, v):
    """Local weight (1 - v)/(1 - v_l) along the segment toward visibility 1."""
    return (1.0 - v) / (1.0 - local_visibility(theta))


REGION_LABELS = np.array(["LOCAL", "RED_ZERO_KEY", "BLUE_POSITIVE_BOUND", "OUTSIDE_QUANTUM"])


def region_labels(s, t, atol=1e-12):
    """Vectorized slice classification over arrays s, t (first quadrant)."""
    s = np.abs(np.asarray(s, dtype=float))
    t = np.abs(np.asarray(t, dtype=float))
    v = np.hypot(s, t)
    theta = np.arctan2(t, s)
    v_l = 1.0 / (np.cos(theta) + np.sin(theta))
    v_c = (v_l + 1.0) / (3.0 - v_l)
    index = np.where(
        s + t <= 1.0 + atol, 0, np.where(v > 1.0 + atol, 3, np.where(v <= v_c, 1, 2))
    )
    return REGION_LABELS[index]


# ccbound judges a correlation local when its local content is within 1e-9
# of one, so a point closer than that to the facet |s| + |t| = 1 is local by
# design; zero-key points are drawn at least this far outside the facet
FACET_MARGIN = 1e-6


def in_zero_key_region(s, t):
    """Clearly nonlocal, inside the quantum disc, at or below the critical visibility."""
    v = math.hypot(s, t)
    critical = critical_visibility(math.atan2(abs(t), abs(s)))
    return abs(s) + abs(t) > 1.0 + FACET_MARGIN and v <= 1.0 and v <= critical


def vertex_matrix(n_a, n_b):
    """Columns are the binary deterministic strategies, raveled as table[a, b, x, y]."""
    cols = []
    for a_out in itertools.product((0, 1), repeat=n_a):
        for b_out in itertools.product((0, 1), repeat=n_b):
            table = np.zeros((2, 2, n_a, n_b))
            for x in range(n_a):
                for y in range(n_b):
                    table[a_out[x], b_out[y], x, y] = 1.0
            cols.append(table.ravel())
    return np.array(cols).T


def ns_local_weight_highs(table):
    """max sum(m) subject to V m <= p, m >= 0, solved by scipy's HiGHS."""
    from scipy.optimize import linprog

    table = np.asarray(table, dtype=float)
    mat = vertex_matrix(table.shape[2], table.shape[3])
    res = linprog(
        -np.ones(mat.shape[1]), A_ub=mat, b_ub=table.ravel(), bounds=(0, None), method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)
