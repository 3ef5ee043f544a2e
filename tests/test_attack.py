"""Convex-combination attacks, relabelling maps, and key-rate bounds."""

import math
import re

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from ccbound import attack as atk
from ccbound import kernels
from ccbound._jsondoc import ATOL
from ccbound.correlations import (
    Correlation,
    MeasurementArrangement,
    Scenario,
    chsh_arrangement,
    chsh_protocol_correlation,
    werner_correlation,
)
from ccbound.infotheory import StochasticMap, minimize_intrinsic
from ccbound.localset import is_local_lp, local_visibility
from test_correlations import random_arrangement, scalar_werner_table

PI4 = math.pi / 4


def relabelled(joint, m):
    """p(a, b, f) = sum_e p(a, b, e) m(f|e) by a contraction of its own, so
    that its I(A:B|F) checks the attack's map apart from cmi_after_map_bits."""
    return np.einsum("abe,ef->abf", joint.p, m.rows)


def relabelled_information(joint, m):
    return kernels.conditional_mutual_information_bits(relabelled(joint, m))


# ---------------------------------------------------------------- constants


def test_werner_locality_constant():
    # exact closed form of the literature threshold
    expected = 999 * 689 * 1e-6 * math.cos(math.pi / 50) ** 4
    assert atk.WERNER_LOCAL_VISIBILITY == expected
    assert atk.WERNER_LOCAL_VISIBILITY == pytest.approx(0.682894161615686, abs=1e-14)
    assert abs(atk.WERNER_LOCAL_VISIBILITY - 0.6829) < 5e-5
    assert atk.WERNER_LOCAL_VISIBILITY < atk.WERNER_NONLOCAL_VISIBILITY


def test_werner_critical_visibility():
    value = atk.critical_visibility_werner()
    assert value == pytest.approx(0.7262914510582498, abs=1e-12)
    assert abs(value - 0.7263) < 1e-4
    assert value > atk.WERNER_NONLOCAL_VISIBILITY == 0.6964


@pytest.mark.parametrize(
    "theta,expected",
    [
        (PI4, 0.7445208382054341),
        (math.pi / 3, 0.7637079407904237),
    ],
)
def test_protocol_critical_visibility(theta, expected):
    assert atk.critical_visibility(theta) == pytest.approx(expected, abs=1e-12)
    assert atk.critical_visibility(theta) > local_visibility(theta)


def test_critical_exceeds_local_for_all_theta():
    for theta in np.linspace(0.01, math.pi / 2 - 0.01, 40):
        assert atk.critical_visibility(float(theta)) > local_visibility(float(theta)) + 1e-9


# ------------------------------------------------------------ decompositions


def test_local_weight_anchors():
    v_l = atk.WERNER_LOCAL_VISIBILITY
    assert atk.local_weight(1.0, v_l) == 0.0
    assert atk.local_weight(v_l, v_l) == 1.0
    # halfway visibility gives local weight exactly 1/2
    assert atk.local_weight((1 + v_l) / 2, v_l) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("bad", [1.5, -0.5, math.nan])
def test_local_weight_rejects_a_visibility_outside_the_unit_interval(bad):
    # unchecked, 1.5 would give the weight -1.667, -0.5 the weight 1 and NaN a NaN weight
    with pytest.raises(atk.AttackError, match=re.escape(f"visibility must lie in [0, 1], got {bad!r}")):
        atk.local_weight(bad, 0.7)


_WERNER = werner_correlation(0.8, chsh_arrangement(PI4))
_ONE_SETTING = werner_correlation(0.8, MeasurementArrangement(((0.0, 0.0, 1.0),), ((0.0, 0.0, 1.0),)))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: atk.CCDecomposition(1.5, _WERNER, _WERNER),
                     "local weight must lie in [0, 1], got 1.5", id="decomposition-weight"),
        pytest.param(lambda: atk.CCDecomposition(0.5, _WERNER, _ONE_SETTING),
                     "decomposition components live on different scenarios", id="decomposition-scenarios"),
        pytest.param(lambda: atk.local_weight(0.8, 1.0),
                     "local visibility must lie in (0, 1), got 1.0", id="local-weight-threshold"),
        pytest.param(lambda: atk.cc_werner(1.5, chsh_arrangement(PI4)),
                     "visibility must lie in [0, 1], got 1.5", id="cc-werner-visibility"),
        pytest.param(lambda: atk.eve_map(0.9, 1.5),
                     "unknown_fraction must lie in [0, 1], got 1.5", id="eve-map-fraction"),
        pytest.param(lambda: atk.eve_map(1.5, 0.5),
                     "agreement must lie in [0, 1], got 1.5", id="eve-map-agreement"),
        pytest.param(lambda: atk.solve_unknown_fraction(1.5, 0.7, 0.9),
                     "visibility must lie in [0, 1], got 1.5", id="unknown-fraction-visibility"),
        pytest.param(lambda: atk.solve_unknown_fraction(0.8, 0.7, 1.5),
                     "agreement must lie in [0, 1], got 1.5", id="unknown-fraction-agreement"),
    ],
)
def test_attack_input_checks(call, message):
    with pytest.raises(atk.AttackError, match=re.escape(message)):
        call()


def test_cc_decomposition_reproduces_observation():
    arr = chsh_arrangement(PI4)
    for v in (0.72, 0.85, 1.0):
        dec = atk.cc_chsh(PI4, v)
        assert dec.mixture().allclose(chsh_protocol_correlation(PI4, v), atol=1e-12)
        assert dec.local_weight == pytest.approx((1 - v) / (1 - local_visibility(PI4)), abs=1e-12)
        assert dec.nonlocal_part.allclose(werner_correlation(1.0, arr), atol=1e-15)


def test_cc_decomposition_below_threshold_degenerates():
    dec = atk.cc_chsh(PI4, 0.5)
    assert dec.local_weight == 1.0
    assert dec.local.allclose(chsh_protocol_correlation(PI4, 0.5), atol=1e-15)
    assert is_local_lp(dec.local).is_local


def test_cc_werner_uses_global_threshold():
    arr = chsh_arrangement(PI4)
    dec = atk.cc_werner(0.9, arr)
    expected_q = (1 - 0.9) / (1 - atk.WERNER_LOCAL_VISIBILITY)
    assert dec.local_weight == pytest.approx(expected_q, abs=1e-12)
    assert dec.local.allclose(werner_correlation(atk.WERNER_LOCAL_VISIBILITY, arr), atol=1e-15)


@pytest.mark.parametrize("case", [*range(8), 0.1, PI4, 1.3])
def test_split_parts_are_the_scalar_werner_tables_bit_for_bit(case):
    # both parts come from one a.b matrix, as each setting pair's own a.b
    # gives them: the seeded arrangements of
    # test_werner_table_is_the_scalar_formula_bit_for_bit and three protocols
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        arr = random_arrangement(int(rng.integers(1, 7)), int(rng.integers(1, 7)), rng)
    else:
        rng = np.random.default_rng(3)
        arr = chsh_arrangement(case)
    v_l = float(rng.uniform(0.05, 0.95))
    for v in (0.0, v_l, float(rng.uniform(0, 1)), 1.0):
        dec = atk.cc_werner(v, arr, v_l)
        assert dec.local.table.tobytes() == scalar_werner_table(min(v, v_l), arr).tobytes()
        assert dec.nonlocal_part.table.tobytes() == scalar_werner_table(1.0, arr).tobytes()


# ----------------------------------------------------------------- tripartite


def test_tripartite_extreme_weights():
    dec_nl = atk.cc_chsh(PI4, 1.0)  # local weight 0
    joint = atk.tripartite(dec_nl, 0, 2)
    assert joint.p.shape == (2, 2, 5)
    assert joint.p[:, :, :4].sum() == pytest.approx(0.0, abs=1e-15)
    assert joint.p[:, :, 4].sum() == pytest.approx(1.0, abs=1e-15)

    dec_l = atk.cc_chsh(PI4, 0.5)  # local weight 1
    joint = atk.tripartite(dec_l, 0, 2)
    assert joint.p[:, :, 4].sum() == pytest.approx(0.0, abs=1e-15)
    for a in (0, 1):
        for b in (0, 1):
            assert joint.p[a, b, 2 * a + b] == pytest.approx(
                dec_l.local.block(0, 2)[a, b], abs=1e-15
            )


def test_tripartite_marginal_and_unknown_mass():
    dec = atk.cc_chsh(PI4, 0.8)
    for (x, y) in [(0, 2), (1, 1), (0, 0)]:
        joint = atk.tripartite(dec, x, y)
        assert np.abs(joint.p.sum(axis=2) - dec.mixture().block(x, y)).max() < 1e-15
        assert joint.p[:, :, 4].sum() == pytest.approx(1 - dec.local_weight, abs=1e-12)
    # frozen value: the agreeing unknown-branch mass at the key pair
    joint = atk.tripartite(dec, 0, 2)
    assert joint.p[0, 0, 4] == pytest.approx(0.15857864376269065, abs=1e-12)


@pytest.mark.parametrize("pair", [(-1, 0), (2, 0), (0, 3)])
def test_setting_pairs_outside_the_protocol_are_rejected_by_name(pair):
    # a negative index must not wrap round to the last setting
    pattern = re.escape(f"setting pair {pair} is outside the 2x3 settings")
    with pytest.raises(atk.AttackError, match=pattern):
        atk.tripartite(atk.cc_chsh(PI4, 0.8), *pair)
    with pytest.raises(atk.AttackError, match=pattern):
        atk.chsh_attack(PI4, 0.8, "auto", {pair: 1.0})


@pytest.mark.parametrize("pair", [(True, 2), (0.5, 2)])
def test_setting_indices_that_are_not_integers_are_rejected_by_name(pair):
    # numpy reads a bool index as a mask, which adds an axis, and refuses a
    # float one with its own IndexError
    pattern = re.escape(f"setting pair {pair} must hold two integer indices")
    with pytest.raises(atk.AttackError, match=pattern):
        atk.tripartite(atk.cc_chsh(0.5, 0.9), *pair)
    with pytest.raises(atk.AttackError, match=pattern):
        atk.chsh_attack(0.5, 0.9, settings={pair: 1.0})


def test_numpy_integer_setting_indices_are_accepted():
    pair = (np.int64(0), np.int64(2))
    decomposition = atk.cc_chsh(0.5, 0.9)
    assert np.array_equal(atk.tripartite(decomposition, *pair).p, atk.tripartite(decomposition, 0, 2).p)
    model = atk.chsh_attack(0.5, 0.9, settings={pair: 1.0})
    assert np.array_equal(model.maps[(0, 2)].rows, atk.chsh_attack(0.5, 0.9).maps[(0, 2)].rows)


def scalar_tripartite(decomposition, x, y):
    """The tripartite distribution entry by entry."""
    k_a, k_b = decomposition.scenario.k_a, decomposition.scenario.k_b
    q = decomposition.local_weight
    p = np.zeros((k_a, k_b, k_a * k_b + 1))
    for a in range(k_a):
        for b in range(k_b):
            p[a, b, k_b * a + b] = q * decomposition.local.table[a, b, x, y]
            p[a, b, -1] = (1.0 - q) * decomposition.nonlocal_part.table[a, b, x, y]
    return p


def random_correlation(rng, scenario):
    table = rng.uniform(size=scenario.table_shape)
    return Correlation(scenario, table / table.sum(axis=(0, 1)))


@pytest.mark.parametrize("k_a, k_b", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_tripartite_is_the_per_entry_table_bit_for_bit(k_a, k_b):
    rng = np.random.default_rng(10 * k_a + k_b)
    scenario = Scenario(2, 3, k_a, k_b)
    for q in (0.0, 1.0, *rng.uniform(size=3).tolist()):
        dec = atk.CCDecomposition(q, random_correlation(rng, scenario), random_correlation(rng, scenario))
        for x in range(2):
            for y in range(3):
                assert atk.tripartite(dec, x, y).p.tobytes() == scalar_tripartite(dec, x, y).tobytes()


# ------------------------------------------------------------------ eve maps


def test_eve_map_full_hiding_structure():
    rows = atk.eve_map(1.0, 1.0).rows
    expected = np.zeros((5, 5))
    expected[0, 0] = expected[3, 3] = 1.0  # agreeing pairs kept
    expected[1, 4] = expected[2, 4] = 1.0  # disagreeing pairs hidden
    expected[4, 4] = 1.0
    assert np.array_equal(rows, expected)


def test_eve_map_zero_fraction_is_identity():
    assert np.array_equal(atk.eve_map(1.0, 0.0).rows, np.eye(5))


def test_eve_map_mirrored_for_anticorrelated_pairs():
    rows = atk.eve_map(0.2, 0.7).rows
    assert rows[1, 1] == 1.0 and rows[2, 2] == 1.0  # disagreeing pairs kept
    assert rows[0, 4] == pytest.approx(0.7) and rows[0, 0] == pytest.approx(0.3)
    assert rows[3, 4] == pytest.approx(0.7)


def test_eve_map_matches_symbolic_relabelled_distribution():
    # pushing the tripartite distribution through the full-hiding map must
    # equal the relabelled distribution written out symbol by symbol
    dec = atk.cc_chsh(PI4, 0.85)
    q = dec.local_weight
    mapped = relabelled(atk.tripartite(dec, 0, 2), atk.eve_map(1.0, 1.0))
    expected = np.zeros((2, 2, 5))
    for a in (0, 1):
        for b in (0, 1):
            local_mass = q * dec.local.block(0, 2)[a, b]
            nonlocal_mass = (1 - q) * dec.nonlocal_part.block(0, 2)[a, b]
            if a == b:
                expected[a, b, 2 * a + b] += local_mass
                expected[a, b, 4] += nonlocal_mass
            else:
                expected[a, b, 4] += local_mass + nonlocal_mass
    assert np.abs(mapped - expected).max() < 1e-15


# -------------------------------------------------------- balancing fraction


def test_fraction_one_exactly_at_zero_key_visibility():
    for v_l in (atk.WERNER_LOCAL_VISIBILITY, 1 / math.sqrt(2), 0.8):
        for agreement in (0.75, 0.9, 1.0):
            threshold = atk.zero_key_visibility(agreement, v_l)
            fraction = atk.solve_unknown_fraction(threshold, v_l, agreement)
            assert fraction == pytest.approx(1.0, abs=1e-10)


def test_fraction_zero_for_balanced_pair():
    assert atk.solve_unknown_fraction(0.9, 0.7, 0.5) == 0.0


@pytest.mark.parametrize("agreement", [0.5, 0.9])
@pytest.mark.parametrize("bad", [5.0, 1.0, 0.0, math.nan])
def test_fraction_rejects_a_local_visibility_outside_the_unit_interval(agreement, bad):
    # a balanced pair needs no fraction, but its local visibility is still checked
    with pytest.raises(atk.AttackError, match=re.escape(f"local visibility must lie in (0, 1), got {bad!r}")):
        atk.solve_unknown_fraction(0.8, bad, agreement)


def test_fraction_known_value_and_zeroing():
    fraction = atk.solve_unknown_fraction(0.72, local_visibility(PI4), 1.0)
    assert fraction == pytest.approx(0.31443001811095117, abs=1e-12)
    dec = atk.cc_chsh(PI4, 0.72)
    mapped = relabelled(atk.tripartite(dec, 0, 2), atk.eve_map(1.0, fraction))
    assert kernels.conditional_mutual_information_bits(mapped) <= 1e-12
    # the hidden branch is exactly balanced
    branch = mapped[:, :, 4]
    assert branch[0, 0] == pytest.approx(branch[0, 1], abs=1e-15)


def test_fraction_is_one_above_the_threshold():
    # no fraction below 1 zeroes the branch here, so every mismatched symbol is hidden
    v_l = local_visibility(PI4)
    threshold = atk.zero_key_visibility(1.0, v_l)
    for v in (0.9, threshold + 2e-12, math.nextafter(threshold, 2.0)):
        assert atk.solve_unknown_fraction(v, v_l, 1.0) == 1.0


@pytest.mark.parametrize("offset", [1e-13, -1e-13])
def test_fraction_is_one_with_no_local_part(offset):
    # at v = 1 the split has no local part (q = 0), so nothing is left to balance with
    assert atk.solve_unknown_fraction(1.0, 0.7, 0.5 + offset) == 1.0


def fraction_by_threshold(v, v_l, agreement):
    """The zeroing fraction written out, with the zero-key threshold (plus
    ATOL) deciding when every mismatched symbol is hidden instead."""
    folded = max(agreement, 1.0 - agreement)
    if folded == 0.5:
        return 0.0
    if v > atk.zero_key_visibility(folded, v_l) + ATOL:
        return 1.0
    q = atk.local_weight(v, v_l)
    s_local = 0.5 * (1.0 - v_l * (1.0 - 2.0 * agreement))
    hidden = 1.0 - s_local if agreement >= 0.5 else s_local
    return float(min(max((1.0 - q) * abs(2.0 * agreement - 1.0) / (q * hidden), 0.0), 1.0))


def test_fraction_against_the_zero_key_threshold():
    rng = np.random.default_rng(29)
    for _ in range(2000):
        v_l = float(rng.uniform(0.5, 0.999))
        agreement = float(rng.uniform())
        threshold = atk.zero_key_visibility(max(agreement, 1.0 - agreement), v_l)
        below, above = math.nextafter(threshold, 0.0), math.nextafter(threshold, 2.0)
        for v in (float(rng.uniform(v_l, 1.0)), threshold, below, above):
            if v > 1.0:
                continue
            fraction = atk.solve_unknown_fraction(v, v_l, agreement)
            assert fraction.hex() == fraction_by_threshold(v, v_l, agreement).hex()
            if v > threshold + ATOL:
                assert fraction == 1.0
            elif v < threshold - ATOL:
                assert fraction < 1.0
            else:
                assert fraction == pytest.approx(1.0, abs=1e-9)


def test_fraction_mirror_branch_zeroes_too():
    # anticorrelated key pair: agreement 0 at the (0, y=2 flipped) geometry;
    # emulate with an arrangement whose key vectors are parallel
    arr = chsh_arrangement(PI4)
    flipped = type(arr)(alice=((0.0, 0.0, 1.0), (-1.0, 0.0, 0.0)), bob=arr.bob)
    v = 0.72
    v_l = local_visibility(PI4)
    dec = atk.cc_werner(v, flipped, v_l)
    ideal = dec.nonlocal_part.block(0, 2)
    agreement = float(ideal[0, 0] + ideal[1, 1])
    assert agreement == pytest.approx(0.0, abs=1e-15)
    fraction = atk.solve_unknown_fraction(v, v_l, agreement)
    assert relabelled_information(atk.tripartite(dec, 0, 2), atk.eve_map(agreement, fraction)) <= 1e-12


# ------------------------------------------------------- zero-key visibility


def test_zero_key_visibility_endpoints():
    assert atk.zero_key_visibility(0.5, 0.3) == 1.0
    v_l = atk.WERNER_LOCAL_VISIBILITY
    assert atk.zero_key_visibility(1.0, v_l) == atk.critical_visibility_werner()
    assert atk.zero_key_visibility(0.9, 1 / math.sqrt(2)) == pytest.approx(
        0.7696378151890152, abs=1e-12
    )


def test_zero_key_visibility_strictly_decreasing():
    rng = np.random.default_rng(17)
    v_l = atk.WERNER_LOCAL_VISIBILITY
    ss = np.sort(rng.uniform(0.5, 1.0, size=100))
    values = [atk.zero_key_visibility(float(s), v_l) for s in ss]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_zero_key_visibility_domain():
    with pytest.raises(atk.AttackError):
        atk.zero_key_visibility(0.4, 0.7)
    with pytest.raises(atk.AttackError):
        atk.zero_key_visibility(0.9, 1.0)


# ------------------------------------------------------------ key-rate bound


def test_bound_ideal_protocol_is_one_bit():
    observed = chsh_protocol_correlation(PI4, 1.0)
    model = atk.chsh_attack(PI4, 1.0)
    assert atk.keyrate_bound(observed, model) == pytest.approx(1.0, abs=1e-12)


def test_bound_zero_with_solved_fraction_below_critical():
    for v in (0.71, 0.72, 0.73, 0.74):
        observed = chsh_protocol_correlation(PI4, v)
        model = atk.chsh_attack(PI4, v, unknown_fraction="auto")
        assert atk.keyrate_bound(observed, model) <= 1e-9


def test_bound_matches_closed_form_at_v08():
    observed = chsh_protocol_correlation(PI4, 0.8)
    model = atk.chsh_attack(PI4, 0.8, unknown_fraction=1.0)
    assert atk.keyrate_bound(observed, model) == pytest.approx(
        atk.chsh_keyrate_bound(PI4, 0.8), abs=1e-9
    )


def test_bound_rejects_inconsistent_decomposition():
    observed = chsh_protocol_correlation(PI4, 0.9)
    model = atk.chsh_attack(PI4, 0.8)
    with pytest.raises(atk.AttackError):
        atk.keyrate_bound(observed, model)


def test_bound_decreases_toward_solved_fraction():
    v = 0.73
    solved = atk.solve_unknown_fraction(v, local_visibility(PI4), 1.0)
    observed = chsh_protocol_correlation(PI4, v)

    def bound_at(fraction):
        return atk.keyrate_bound(observed, atk.chsh_attack(PI4, v, fraction))

    above = [bound_at(f) for f in np.linspace(1.0, solved, 7)]
    assert all(above[i] >= above[i + 1] - 1e-12 for i in range(len(above) - 1))
    below = [bound_at(f) for f in np.linspace(0.0, solved, 7)]
    assert all(below[i] >= below[i + 1] - 1e-12 for i in range(len(below) - 1))


def test_attack_model_validates_weights():
    dec = atk.cc_chsh(PI4, 0.9)
    with pytest.raises(atk.AttackError):
        atk.AttackModel(dec, {}, {(0, 2): 0.5})  # weights don't sum to 1
    with pytest.raises(atk.AttackError):
        atk.AttackModel(dec, {}, {(0, 2): 1.0})  # weighted setting without a map


def test_attack_model_rejects_a_map_of_the_wrong_alphabet():
    # setting_information pushes the 5-symbol side information through each map
    with pytest.raises(atk.AttackError, match=r"^map for setting \(0, 2\) takes 3 symbols, expected 5$"):
        atk.AttackModel(atk.cc_chsh(PI4, 0.9), {(0, 2): StochasticMap(np.eye(3))}, {(0, 2): 1.0})


def step_by_step_attack(theta, v, unknown_fraction, settings):
    """The attack built step by step: split, per-pair agreement 0.5 (1 - a.b)
    of the Bloch vectors, fraction (``fraction_by_threshold`` for 'auto') and
    map, then I(A:B|F) of the relabelled tripartite distribution per pair."""
    decomposition = atk.cc_chsh(theta, v)
    arrangement = chsh_arrangement(theta)
    information, agreements, fractions = {}, {}, {}
    for pair in settings:
        a, b = arrangement.alice[pair[0]], arrangement.bob[pair[1]]
        agreement = agreements[pair] = 0.5 * (1 - float(np.add.reduce(a * b)))
        if unknown_fraction == "auto":
            fraction = fraction_by_threshold(v, local_visibility(theta), agreement)
        else:
            fraction = float(unknown_fraction)
        fractions[pair] = fraction
        joint = atk.tripartite(decomposition, *pair)
        information[pair] = relabelled_information(joint, atk.eve_map(agreement, fraction))
    total = 0.0
    for pair, weight in settings.items():
        if weight != 0.0:
            total += weight * information[pair]
    return agreements, fractions, information, total


SETTING_GRID = [
    {(0, 2): 1.0},
    {(1, 2): 1.0},
    {(0, 2): 0.75, (1, 0): 0.25},
    {(0, 0): 1 / 3, (0, 1): 1 / 3, (1, 1): 1 / 3},
    {(0, 2): 1.0, (1, 0): 0.0},
    {(1, 2): 0.2, (0, 2): 0.5, (1, 1): 0.3},
]


@pytest.mark.parametrize("settings", SETTING_GRID)
def test_multi_setting_attack_matches_step_by_step_construction(settings):
    for theta in (0.3, math.pi / 6, PI4, 1.2):
        for v in (0.6, 0.72, 0.745, 0.8, 1.0):
            observed = chsh_protocol_correlation(theta, v)
            for fraction in ("auto", 0.5, 1.0):
                model = atk.chsh_attack(theta, v, fraction, settings)
                agreements, fractions, information, total = step_by_step_attack(theta, v, fraction, settings)
                for pair, agreement in agreements.items():
                    # the attack reads each agreement from its split's v = 1 part
                    ideal = model.decomposition.nonlocal_part.block(*pair)
                    assert float(ideal[0, 0] + ideal[1, 1]).hex() == agreement.hex()
                    assert model.unknown_fractions[pair].hex() == fractions[pair].hex()
                assert atk.setting_information(model) == information
                assert atk.keyrate_bound(observed, model) == total
                assert model.setting_weights == settings
                assert set(model.unknown_fractions) == set(settings)


def test_setting_information_matches_the_relabelled_distribution():
    # setting_information calls the minimizer's kernel on the map's rows;
    # a separate contraction, then the table's kernel, gives the same float
    rng = np.random.default_rng(7)
    settings = {(0, 2): 0.5, (1, 1): 0.25, (0, 0): 0.25}
    for _ in range(100):
        theta, v = rng.uniform(0.05, math.pi / 2 - 0.05), rng.uniform(0.6, 1.0)
        for fraction in ("auto", rng.uniform()):
            model = atk.chsh_attack(theta, v, fraction, settings)
            assert atk.setting_information(model) == {
                pair: relabelled_information(atk.tripartite(model.decomposition, *pair), m)
                for pair, m in model.maps.items()
            }


def test_chsh_attack_default_settings_and_recorded_fraction():
    model = atk.chsh_attack(PI4, 0.72)
    assert model.setting_weights == {(0, 2): 1.0}
    solved = atk.solve_unknown_fraction(0.72, local_visibility(PI4), 1.0)
    assert model.unknown_fractions == {(0, 2): solved}
    # above the zero-key threshold 'auto' falls back to hiding everything
    assert atk.chsh_attack(PI4, 0.9).unknown_fractions == {(0, 2): 1.0}
    assert atk.AttackModel(model.decomposition, model.maps, model.setting_weights).unknown_fractions == {}


# a bool is a numbers.Real, but True must not be read as the fraction 1.0
@pytest.mark.parametrize(
    "fraction", ["x", "Auto", "0.5", "", None, math.nan, 1.5, -0.1, np.array([0.5, 0.6]), True, False]
)
def test_chsh_attack_names_a_fraction_it_cannot_use(fraction):
    message = f"unknown_fraction must be 'auto' or a real number in [0, 1], got {fraction!r}"
    with pytest.raises(atk.AttackError, match=f"^{re.escape(message)}$"):
        atk.chsh_attack(PI4, 0.8, fraction)


def test_a_negative_zero_fraction_is_stored_as_zero():
    rows = atk.eve_map(1.0, -0.0).rows
    assert all(math.copysign(1.0, x) == 1.0 for x in rows.ravel().tolist())
    model = atk.chsh_attack(PI4, 0.8, -0.0)
    assert math.copysign(1.0, model.unknown_fractions[(0, 2)]) == 1.0
    assert all(math.copysign(1.0, x) == 1.0 for x in model.maps[(0, 2)].rows.ravel().tolist())


@pytest.mark.parametrize(
    "settings",
    [
        {(5, 5): 1.0},
        {(2, 0): 1.0},
        {(0, 3): 1.0},
        {(-1, 2): 1.0},
        {(0, 2): math.nan},
        {(0, 2): math.inf},
        {(0, 2): 2.0, (1, 2): -1.0},
        {(0, 2): 0.5, (1, 2): math.nan},
    ],
)
def test_chsh_attack_rejects_bad_settings(settings):
    with pytest.raises(atk.AttackError):
        atk.chsh_attack(PI4, 0.8, "auto", settings)


def test_attack_model_rejects_out_of_range_pairs_and_nan_weights():
    model = atk.chsh_attack(PI4, 0.8)
    dec, rows = model.decomposition, model.maps[(0, 2)]
    with pytest.raises(atk.AttackError):
        atk.AttackModel(dec, {(-1, 2): rows}, {(-1, 2): 1.0})
    with pytest.raises(atk.AttackError):
        atk.AttackModel(dec, {(0, 2): rows, (0, 3): rows}, {(0, 2): 1.0})  # map at a bad pair
    with pytest.raises(atk.AttackError):
        atk.AttackModel(dec, {(0, 2): rows}, {(0, 2): math.nan})


@pytest.mark.parametrize("weight", [True, np.True_, "1", 1j])
def test_a_setting_weight_that_is_not_a_real_number_is_refused_by_name(weight):
    # a bool must not be stored as the weight 1, and a string or a complex
    # number must not escape as math.isfinite's bare TypeError
    model = atk.chsh_attack(PI4, 0.8)
    message = f"setting weight for (0, 2) must be a finite real number >= 0, got {weight!r}"
    with pytest.raises(atk.AttackError, match=f"^{re.escape(message)}$"):
        atk.chsh_attack(PI4, 0.8, settings={(0, 2): weight})
    with pytest.raises(atk.AttackError, match=f"^{re.escape(message)}$"):
        atk.AttackModel(model.decomposition, dict(model.maps), {(0, 2): weight})


@pytest.mark.parametrize("weight", [1, np.float64(1.0)])
def test_int_and_numpy_float_setting_weights_are_accepted(weight):
    observed = chsh_protocol_correlation(PI4, 0.8)
    default = atk.chsh_attack(PI4, 0.8)
    for model in (atk.chsh_attack(PI4, 0.8, settings={(0, 2): weight}),
                  atk.AttackModel(default.decomposition, dict(default.maps), {(0, 2): weight})):
        assert model.setting_weights == {(0, 2): 1.0}
        assert atk.keyrate_bound(observed, model) == atk.keyrate_bound(observed, default)


# ------------------------------------------------------------- closed form


def test_closed_form_anchors():
    assert atk.chsh_keyrate_bound(PI4, 1.0) == pytest.approx(1.0, abs=1e-12)
    v_crit = atk.critical_visibility(PI4)
    assert atk.chsh_keyrate_bound(PI4, v_crit) == pytest.approx(0.0, abs=1e-9)
    assert atk.chsh_keyrate_bound(PI4, 0.70) == 0.0  # clamped below critical


def test_closed_form_monotone_and_continuous():
    v_crit = atk.critical_visibility(PI4)
    vs = np.arange(v_crit, 1.0 + 1e-9, 0.005)
    values = [atk.chsh_keyrate_bound(PI4, float(v)) for v in vs]
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
    assert values[0] <= 1e-9
    # continuity across the clamp point
    assert atk.chsh_keyrate_bound(PI4, v_crit + 1e-8) < 1e-9


def test_closed_form_range_checks():
    with pytest.raises(atk.AttackError):
        atk.chsh_keyrate_bound(PI4, 1.1)
    with pytest.raises(ValueError):
        atk.chsh_keyrate_bound(0.0, 0.5)


@pytest.mark.parametrize("bad", [math.nan, -1e-12, 1.0 + 1e-12, math.inf])
def test_closed_form_rejects_a_bad_visibility_in_an_array(bad):
    with pytest.raises(atk.AttackError):
        atk.chsh_keyrate_bound(PI4, bad)
    with pytest.raises(atk.AttackError):
        atk.chsh_keyrate_bound(PI4, np.array([0.5, bad, 0.9]))


@pytest.mark.parametrize("bad", [math.nan, 0.0, 1.0, -0.5, 1.5])
def test_zero_key_visibility_rejects_a_bad_local_visibility_in_an_array(bad):
    with pytest.raises(atk.AttackError):
        atk.zero_key_visibility(1.0, bad)
    with pytest.raises(atk.AttackError):
        atk.zero_key_visibility(1.0, np.array([0.7, bad]))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.floats(0.05, math.pi / 2 - 0.05), st.lists(st.floats(0.0, 1.0), max_size=40))
def test_closed_forms_of_an_array_are_the_scalar_ones_bit_for_bit(theta, visibilities):
    v_crit = atk.critical_visibility(theta)
    vs = np.array([0.0, 1.0, v_crit, math.nextafter(v_crit, 0.0), math.nextafter(v_crit, 1.0), *visibilities])
    bounds = atk.chsh_keyrate_bound(theta, vs)
    assert bounds.tobytes() == np.array([atk.chsh_keyrate_bound(theta, v) for v in vs.tolist()]).tobytes()
    assert type(atk.chsh_keyrate_bound(theta, v_crit)) is float
    v_ls = np.array([local_visibility(theta), *(v for v in visibilities if 0.0 < v < 1.0)])
    critical = atk.zero_key_visibility(1.0, v_ls)
    assert critical.tobytes() == np.array([atk.zero_key_visibility(1.0, v) for v in v_ls.tolist()]).tobytes()


def test_closed_form_of_a_2d_array_keeps_its_shape():
    vs = np.array([[0.5, 0.8], [atk.critical_visibility(PI4), 1.0]])
    bounds = atk.chsh_keyrate_bound(PI4, vs)
    assert bounds.shape == (2, 2)
    assert bounds.tobytes() == np.array([[atk.chsh_keyrate_bound(PI4, v) for v in row] for row in vs.tolist()]).tobytes()


def test_closed_form_array_is_the_scalar_where_numpy_log2_is_not():
    # at theta = 1 and v = 0, 2e-5, ..., 1 above v_crit, numpy's AVX-512 log2
    # in place of math.log2 changes the last bit of 11 of these 12,138 bounds
    theta = 1.0
    vs = np.arange(50_001) * 2e-5
    vs = vs[vs > atk.critical_visibility(theta)]
    bounds = atk.chsh_keyrate_bound(theta, vs)
    assert bounds.tobytes() == np.array([atk.chsh_keyrate_bound(theta, v) for v in vs.tolist()]).tobytes()


# ------------------------------------------- device-independent key floor
# Pironio et al., New J. Phys. 11, 045021 (2009): a CHSH value S > 2 and a key
# error rate Q guarantee r = 1 - h(Q) - h((1 + sqrt((S/2)^2 - 1))/2) bits per
# round, so no upper bound may lie below r.  On the theta protocol S is its
# largest CHSH facet, 2v(cos theta + sin theta), and Q = (1 - v)/2 on the
# (0, 2) key pair: closed forms that share no code with ccbound.


def _binary_entropy(p):
    return 0.0 if p <= 0.0 or p >= 1.0 else -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _di_floor(theta, v):
    chsh = 2.0 * v * (math.cos(theta) + math.sin(theta))
    if chsh <= 2.0:
        return 0.0
    return 1.0 - _binary_entropy((1.0 - v) / 2.0) - _binary_entropy((1.0 + math.sqrt((chsh / 2.0) ** 2 - 1.0)) / 2.0)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.floats(0.05, math.pi / 2 - 0.05), st.floats(0.6, 1.0))
def test_closed_form_never_below_the_device_independent_floor(theta, v):
    assert atk.chsh_keyrate_bound(theta, v) >= _di_floor(theta, v) - 1e-12


@pytest.mark.parametrize("theta, v", [(PI4, 0.9), (math.pi / 6, 0.95), (math.pi / 3, 0.97), (0.3, 0.99)])
def test_minimized_bound_never_below_the_device_independent_floor(theta, v):
    floor = _di_floor(theta, v)
    assert floor > 0.2
    assert minimize_intrinsic(atk.tripartite(atk.cc_chsh(theta, v), 0, 2), restarts=0).bound >= floor - 1e-9


def test_device_independent_floor_anchors():
    # at theta = pi/4 the floor is positive only above v = 0.8570
    assert _di_floor(PI4, 0.8570) < 0.0 < _di_floor(PI4, 0.8571)
    assert _di_floor(PI4, 0.9) == pytest.approx(0.2250, abs=5e-5)
    assert atk.chsh_keyrate_bound(PI4, 0.9) == pytest.approx(0.4478, abs=5e-5)


# --------------------------------------------------------- pipeline equality


def test_pipeline_matches_closed_form_on_grid():
    for theta in np.linspace(math.pi / 20, 9 * math.pi / 20, 10):
        theta = float(theta)
        v_crit = atk.critical_visibility(theta)
        for v in np.linspace(v_crit, 1.0, 20):
            v = float(v)
            observed = chsh_protocol_correlation(theta, v)
            model = atk.chsh_attack(theta, v, unknown_fraction=1.0)
            general = atk.keyrate_bound(observed, model)
            assert general == pytest.approx(atk.chsh_keyrate_bound(theta, v), abs=1e-9)


def test_nonlocal_yet_zero_gap():
    # between the locality threshold and the critical visibility the
    # correlation is nonlocal but the solved attack zeroes the bound
    for theta in (math.pi / 6, PI4, math.pi / 3):
        v_l = local_visibility(theta)
        v_crit = atk.critical_visibility(theta)
        for v in np.linspace(v_l + 1e-3, v_crit, 4):
            v = float(v)
            observed = chsh_protocol_correlation(theta, v)
            assert not is_local_lp(observed).is_local
            model = atk.chsh_attack(theta, v, unknown_fraction="auto")
            assert atk.keyrate_bound(observed, model) <= 1e-9
