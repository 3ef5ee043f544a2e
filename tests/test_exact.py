"""Exact anchors of the closed forms at Pythagorean angles, in ``fractions``.

At theta = atan2(b, a) for a Pythagorean triple (a, b, c), cos theta = a/c
and sin theta = b/c, so the local visibility 1/(cos theta + sin theta) =
c/(a + b) and the critical visibility (v_L + 1)/(3 - v_L) are rational.
These oracles share no code with ``attack``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ccbound.attack import chsh_keyrate_bound, critical_visibility, zero_key_visibility
from ccbound.localset import local_visibility
from ccbound.regions import RegionLabel, classify

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
    assert classify(s, t).label == RegionLabel.RED_ZERO_KEY
