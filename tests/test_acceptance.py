"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion; a failing criterion shows up as a failing test.
"""

import math

import numpy as np

from ccbound import attack as atk
from ccbound import regions
from ccbound.correlations import (
    chsh_arrangement,
    chsh_protocol_correlation,
    slice_correlation,
    werner_correlation,
)
from ccbound.infotheory import JointDistribution, minimize_intrinsic, mutual_information
from ccbound.localset import is_local_lp, local_visibility, max_local_weight_along
from ccbound.regions import LABELS, classify_arrays

PI4 = math.pi / 4

THETA_SET = [math.pi / 12, math.pi / 6, PI4, math.pi / 3, 5 * math.pi / 12]


def report(number, text):
    print(f"\nACCEPTANCE {number} PASS: {text}")


def bisect_locality_threshold(make_correlation, lo=0.60, hi=1.0, tol=5e-7):
    """Visibility at which the LP membership verdict flips."""
    assert is_local_lp(make_correlation(lo)).is_local
    assert not is_local_lp(make_correlation(hi)).is_local
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if is_local_lp(make_correlation(mid)).is_local:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_constant_reproduction():
    v_l = 999 * 689 * 1e-6 * math.cos(math.pi / 50) ** 4
    assert atk.WERNER_LOCAL_VISIBILITY == v_l
    assert abs(v_l - 0.6829) < 5e-5
    v_crit = (v_l + 1) / (3 - v_l)
    assert atk.WERNER_CRITICAL_VISIBILITY == v_crit
    assert abs(v_crit - 0.7263) < 5e-5
    assert v_crit > atk.WERNER_NONLOCAL_VISIBILITY == 0.6964
    report(1, f"locality constant {v_l:.6f}, critical visibility {v_crit:.6f} > 0.6964")


def test_criterion_2_closed_form_anchor_points():
    assert abs(atk.chsh_keyrate_bound(PI4, 1.0) - 1.0) < 1e-9
    v_crit = atk.critical_visibility(PI4)
    assert abs(atk.chsh_keyrate_bound(PI4, v_crit)) < 1e-9
    vs = np.arange(v_crit, 1.0 + 1e-12, 0.005)
    values = [atk.chsh_keyrate_bound(PI4, float(v)) for v in vs]
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
    report(2, "closed-form bound: 1 bit at v=1, 0 at critical, monotone at step 0.005")


def test_criterion_3_pipeline_equivalence():
    worst = 0.0
    for theta in np.linspace(math.pi / 20, 9 * math.pi / 20, 10):
        theta = float(theta)
        v_crit = atk.critical_visibility(theta)
        for v in np.linspace(v_crit, 1.0, 20):
            v = float(v)
            observed = chsh_protocol_correlation(theta, v)
            model = atk.chsh_attack(theta, v, unknown_fraction=1.0)
            general = atk.keyrate_bound(observed, model)
            worst = max(worst, abs(general - atk.chsh_keyrate_bound(theta, v)))
    assert worst < 1e-9
    report(3, f"tripartite->relabelling pipeline matches closed form on 10x20 grid (worst {worst:.2e})")


def test_criterion_4_locality_thresholds():
    worst = 0.0
    for theta in THETA_SET:
        expected = 1.0 / (math.cos(theta) + math.sin(theta))

        flip3 = bisect_locality_threshold(lambda v: chsh_protocol_correlation(theta, v))
        worst = max(worst, abs(flip3 - expected))
        assert abs(flip3 - expected) < 1e-6

        four = chsh_arrangement(theta, fourth_bob_setting=True)
        flip4 = bisect_locality_threshold(lambda v: werner_correlation(v, four))
        worst = max(worst, abs(flip4 - expected))
        assert abs(flip4 - expected) < 1e-6
    report(4, f"LP locality flip at 1/(cos+sin) for 3- and 4-setting protocols (worst {worst:.2e})")


def test_criterion_5_local_weight_closed_form():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        theta = float(rng.uniform(0.15, math.pi / 2 - 0.15))
        v_l = local_visibility(theta)
        v = float(rng.uniform(v_l, 1.0))
        corr = chsh_protocol_correlation(theta, v)
        target = chsh_protocol_correlation(theta, 1.0)
        q = max_local_weight_along(corr, target).q
        expected = (1 - v) / (1 - v_l)
        worst = max(worst, abs(q - expected))
        assert abs(q - expected) < 1e-6, (theta, v)
    report(5, f"segment local weight matches (1-v)/(1-v_local) on 20 random draws (worst {worst:.2e})")


def test_criterion_6_zero_key_despite_nonlocality():
    v_l = local_visibility(PI4)
    v_crit = atk.critical_visibility(PI4)
    for v in (0.71, 0.72, 0.73, 0.74):
        assert v_l < v <= v_crit
        observed = chsh_protocol_correlation(PI4, v)
        assert not is_local_lp(observed).is_local
        model = atk.chsh_attack(PI4, v, unknown_fraction="auto")
        assert atk.keyrate_bound(observed, model) <= 1e-9
    report(6, "v in {0.71..0.74}: certified nonlocal by LP, solved attack gives zero bound")


def test_criterion_7_intrinsic_minimizer_sanity():
    joint = atk.tripartite(atk.cc_chsh(PI4, 0.72), 0, 2)
    result = minimize_intrinsic(joint, restarts=32, seed=0)
    assert result.bound <= 1e-6

    pab = np.array([[0.4, 0.1], [0.2, 0.3]])
    independent = JointDistribution(np.einsum("ab,e->abe", pab, np.full(4, 0.25)))
    value = minimize_intrinsic(independent, restarts=8, seed=0).bound
    assert abs(value - mutual_information(pab)) < 1e-9

    copy = np.zeros((2, 2, 4))
    for a in (0, 1):
        for b in (0, 1):
            copy[a, b, 2 * a + b] = pab[a, b]
    assert minimize_intrinsic(JointDistribution(copy), restarts=8, seed=0).bound <= 1e-12
    report(7, f"minimizer: attack distribution -> {result.bound:.2e}, independent -> I(A:B), copy -> 0")


def test_criterion_8_region_reproduction():
    # point i of the 201 grid is (s, t) = (axis[i % n], axis[i // n])
    axis = regions._grid_axis(201)
    s, t = np.tile(axis, 201), np.repeat(axis, 201)
    visibility, theta, codes = classify_arrays(s, t)
    assert len(codes) == 201 * 201
    s, t, visibility, theta = s.tolist(), t.tolist(), visibility.tolist(), theta.tolist()
    labels = [LABELS[c] for c in codes.tolist()]
    red = [i for i, label in enumerate(labels) if label == "RED_ZERO_KEY"]
    blue = [i for i, label in enumerate(labels) if label == "BLUE_POSITIVE_BOUND"]
    assert red
    for i in red:
        assert abs(s[i]) + abs(t[i]) > 1.0
        assert s[i]**2 + t[i]**2 <= 1.0 + 1e-12
        assert atk.chsh_keyrate_bound(theta[i], visibility[i]) == 0.0
    for i in blue:
        if visibility[i] > atk.critical_visibility(theta[i]) + 1e-6:
            assert atk.chsh_keyrate_bound(theta[i], visibility[i]) > 0.0
    rng = np.random.default_rng(8)
    sample = rng.choice(len(red), size=20, replace=False)
    for index in sample:
        i = red[int(index)]
        assert not is_local_lp(slice_correlation(s[i], t[i])).is_local
    report(8, f"region grid: {len(red)} zero-key points, all nonlocal-in-disc with zero bound")


def test_criterion_9_zero_key_visibility_properties():
    assert atk.zero_key_visibility(0.5, atk.WERNER_LOCAL_VISIBILITY) == 1.0
    assert atk.zero_key_visibility(0.5, 0.71) == 1.0
    assert atk.zero_key_visibility(1.0, atk.WERNER_LOCAL_VISIBILITY) == atk.WERNER_CRITICAL_VISIBILITY
    rng = np.random.default_rng(9)
    ss = np.sort(rng.uniform(0.5, 1.0, size=100))
    values = [atk.zero_key_visibility(float(s), atk.WERNER_LOCAL_VISIBILITY) for s in ss]
    assert all(values[i] > values[i + 1] for i in range(99))
    report(9, "zero-key visibility: 1 at balanced pairs, critical at s=1, strictly decreasing")
