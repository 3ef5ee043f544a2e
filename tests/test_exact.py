"""Exact anchors of the closed forms at Pythagorean angles, in ``fractions``.

At theta = atan2(b, a) for a Pythagorean triple (a, b, c), cos theta = a/c
and sin theta = b/c, so the local visibility 1/(cos theta + sin theta) =
c/(a + b) and the critical visibility (v_L + 1)/(3 - v_L) are rational, and
so is every entry of the protocol's correlation table at v_crit.
These oracles share no code with ``attack``.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ccbound.attack import chsh_keyrate_bound, critical_visibility, zero_key_visibility
from ccbound.correlations import chsh_protocol_correlation
from ccbound.localset import is_local_lp, local_visibility
from ccbound.regions import LABELS, classify_arrays

# (a, b, c) with the exact local and critical visibilities
ANCHORS = [
    ((3, 4, 5), Fraction(5, 7), Fraction(3, 4)),
    ((5, 12, 13), Fraction(13, 17), Fraction(15, 19)),
    ((8, 15, 17), Fraction(17, 23), Fraction(10, 13)),
]


def _exact_visibilities(a, b, c):
    v_l = Fraction(c, a + b)
    return v_l, (v_l + 1) / (3 - v_l)


def _ulps(value: float, exact: Fraction) -> Fraction:
    """The distance from value to exact, in units of the last place of exact."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("triple, v_l, v_crit", ANCHORS)
def test_local_and_critical_visibility_at_a_pythagorean_angle(triple, v_l, v_crit):
    assert _exact_visibilities(*triple) == (v_l, v_crit)
    theta = math.atan2(triple[1], triple[0])
    assert _ulps(local_visibility(theta), v_l) <= 2
    assert _ulps(critical_visibility(theta), v_crit) <= 2


@pytest.mark.parametrize("triple, v_l, v_crit", ANCHORS)
def test_bound_is_exactly_zero_up_to_the_critical_visibility(triple, v_l, v_crit):
    theta = math.atan2(triple[1], triple[0])
    keyless = [float(v) for v in (Fraction(0), v_l, (v_l + v_crit) / 2, v_crit - Fraction(1, 10**12))]
    keyless += [k / 64 for k in range(64) if k / 64 < v_crit]
    keyed = [float(v_crit + Fraction(1, 1000)), float((v_crit + 1) / 2), 1.0]
    assert all(chsh_keyrate_bound(theta, v) == 0.0 for v in keyless)
    assert not chsh_keyrate_bound(theta, np.array(keyless)).any()
    assert all(chsh_keyrate_bound(theta, v) > 0.0 for v in keyed)
    assert (chsh_keyrate_bound(theta, np.array(keyed)) > 0.0).all()


def test_slice_point_on_the_critical_curve_is_zero_key():
    # (0.45, 0.6) = 3/4 (3/5, 4/5): radius 3/4 at the angle atan2(4, 3), whose
    # computed critical visibility rounds one ulp above 3/4
    s, t = 0.45, 0.6
    theta = math.atan2(t, s)
    assert math.hypot(s, t) == 0.75 and critical_visibility(theta) == 0.7500000000000001
    # within 1e-12 of the bulk estimate r/(|s| + |t|), so the label takes the scalar critical visibility
    assert abs(0.75 - zero_key_visibility(1.0, 0.75 / (s + t))) <= 1e-12
    assert LABELS[classify_arrays([s], [t])[2][0]] == "RED_ZERO_KEY"


def test_labels_are_the_four_label_strings_in_code_order():
    assert type(LABELS) is tuple and [type(label) for label in LABELS] == [str] * 4
    assert LABELS == ("LOCAL", "RED_ZERO_KEY", "BLUE_POSITIVE_BOUND", "OUTSIDE_QUANTUM")
    # a local, a zero-key, a positive-bound and a non-quantum point
    assert classify_arrays([0.5, 0.45, 0.6, 1.0], [0.4, 0.6, 0.6, 0.5])[2].tolist() == [0, 1, 2, 3]


def _exact_protocol_table(a, b, c, v):
    """p(a,b|x,y) of the theta protocol at cos theta = a/c, sin theta = b/c
    and visibility v, raveled in (a, b, x, y) order: each outcome block holds
    s/2 on its diagonal and (1-s)/2 off it, s = (1 - v A_x.B_y)/2."""
    cos, sin = Fraction(a, c), Fraction(b, c)
    alice = [(0, 0, -1), (-1, 0, 0)]
    bob = [(sin, 0, cos), (-cos, 0, sin), (0, 0, 1)]
    table = {}
    for x, y in itertools.product(range(2), range(3)):
        s = (1 - v * sum(p * q for p, q in zip(alice[x], bob[y]))) / 2
        for out_a, out_b in itertools.product(range(2), repeat=2):
            table[out_a, out_b, x, y] = s / 2 if out_a == out_b else (1 - s) / 2
    return [table[key] for key in sorted(table)]


def _deterministic_tables():
    """The raveled tables of all 32 deterministic strategies of 2 x 3 binary settings."""
    for a_out, b_out in itertools.product(itertools.product(range(2), repeat=2), itertools.product(range(2), repeat=3)):
        yield [int(a_out[x] == out_a and b_out[y] == out_b)
               for out_a, out_b, x, y in itertools.product(range(2), range(2), range(2), range(3))]


@pytest.mark.parametrize("triple, v_l, v_crit", ANCHORS)
def test_correlation_at_the_critical_visibility_is_exactly_nonlocal(triple, v_l, v_crit):
    # the float LP's Bell functional y, read as exact fractions, separates the
    # exact correlation at v_crit from every deterministic strategy; with the
    # zero bound at v_crit above, the point is certifiably nonlocal yet keyless
    theta = math.atan2(triple[1], triple[0])
    result = is_local_lp(chsh_protocol_correlation(theta, float(v_crit)))
    assert not result.is_local
    y = [Fraction(value) for value in result.bell_functional.tolist()]
    value = sum(yi * p for yi, p in zip(y, _exact_protocol_table(*triple, v_crit)))
    tables = list(_deterministic_tables())
    assert len(tables) == 32
    assert value < min(sum(yi * d for yi, d in zip(y, table)) for table in tables)
