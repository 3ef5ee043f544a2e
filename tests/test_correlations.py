"""Correlation table construction, generators, and JSON io."""

import array
import json
import math
import re

import numpy as np
import pytest

from ccbound.correlations import (
    Correlation,
    CorrelationError,
    MeasurementArrangement,
    Scenario,
    chsh_arrangement,
    chsh_protocol_correlation,
    dump_correlation,
    load_correlation,
    slice_correlation,
    unit_vector,
    werner_correlation,
)

RNG = np.random.default_rng(2024)


def random_arrangement(n_a, n_b, rng=RNG):
    def draw(n):
        vs = rng.normal(size=(n, 3))
        return tuple(tuple(v / np.linalg.norm(v)) for v in vs)

    return MeasurementArrangement(alice=draw(n_a), bob=draw(n_b))


def correlators(corr):
    """<A_x B_y> = sum over a, b of (-1)^(a+b) p(a,b|x,y), as an (n_a, n_b) matrix."""
    t = corr.table
    return t[0, 0] + t[1, 1] - t[0, 1] - t[1, 0]


def marginals(corr):
    """<A_x> for each x and <B_y> for each y, averaged over the other side's settings."""
    t = corr.table
    return (t[0] - t[1]).sum(axis=0).mean(axis=1), (t[:, 0] - t[:, 1]).sum(axis=0).mean(axis=0)


# ------------------------------------------------------------------ scenario


def test_scenario_rejects_nonpositive_counts():
    with pytest.raises(CorrelationError):
        Scenario(0, 3, 2, 2)
    with pytest.raises(CorrelationError):
        Scenario(2, 3, 2, -1)


@pytest.mark.parametrize("count", [True, 2.0, "2"])
def test_scenario_refuses_a_count_that_is_not_an_integer(count):
    # True would be read as 1
    with pytest.raises(CorrelationError, match=re.escape(f"n_a must be a positive integer, got {count!r}")):
        Scenario(count, 3, 2, 2)


def test_scenario_stores_a_numpy_integer_count_as_an_int():
    scenario = Scenario(np.int64(2), np.uint8(3), 2, 2)
    assert scenario == Scenario(2, 3, 2, 2) and type(scenario.n_a) is type(scenario.n_b) is int
    assert repr(scenario) == "Scenario(n_a=2, n_b=3, k_a=2, k_b=2)"


def test_unit_vector_validation():
    v = unit_vector((0.0, 0.0, 1.0))
    assert not v.flags.writeable
    with pytest.raises(CorrelationError):
        unit_vector((0.0, 0.0, 1.0 + 1e-9))
    with pytest.raises(CorrelationError):
        unit_vector((1.0, 0.0))


def test_unit_vectors_are_read_only_copies_of_the_callers_array():
    a = np.array([0.0, 0.0, 1.0])
    stored = [unit_vector(a), *MeasurementArrangement((a,), (a,)).alice]
    assert a.flags.writeable
    assert not any(v.flags.writeable for v in stored)
    a[2] = -1.0
    assert all(v[2] == 1.0 for v in stored)


def test_each_side_is_one_read_only_array_copied_from_the_callers():
    alice = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    arrangement = MeasurementArrangement(alice, ((0.0, 1.0, 0.0),))
    for side, given in ((arrangement.alice, alice.tolist()), (arrangement.bob, [[0.0, 1.0, 0.0]])):
        assert type(side) is np.ndarray and side.dtype == np.float64 and not side.flags.writeable
        assert side.tolist() == given
    assert alice.flags.writeable and not np.shares_memory(alice, arrangement.alice)
    alice[0, 2] = -1.0
    assert arrangement.alice[0, 2] == 1.0
    # indexing, len, iteration and np.dot work as on a tuple of vectors
    assert len(arrangement.alice) == 2 and len(arrangement.bob) == 1
    assert arrangement.alice[1].tolist() == [1.0, 0.0, 0.0]
    assert [float(np.dot(a, b)) for a in arrangement.alice for b in arrangement.bob] == [0.0, 0.0]


_Z = ((0.0, 0.0, 1.0),)


@pytest.mark.parametrize(
    "alice, bob, message",
    [
        pytest.param(((0, 0, 1), (0, 1)), _Z, "Bloch vector must have 3 components, got shape (2,)", id="ragged-side"),
        pytest.param((0.0, 0.0, 1.0), _Z, "Bloch vector must have 3 components, got shape ()", id="bare-vector-as-side"),
        pytest.param(((0.0, 1.0),), _Z, "Bloch vector must have 3 components, got shape (2,)", id="two-components"),
        pytest.param((((0.0, 0.0, 1.0),),), _Z, "Bloch vector must have 3 components, got shape (1, 3)", id="1x3-vector"),
        pytest.param(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]), _Z, "Bloch vector must be unit norm, got |v| = 2.0",
                     id="second-row-of-an-array"),
        pytest.param(_Z, ((1, 0, 0), (0, 3, 0), (0, 1)), "Bloch vector must be unit norm, got |v| = 3.0",
                     id="first-bad-vector-of-a-side"),
        # both sides' vectors are checked before either side's count
        pytest.param((), ((0.0, 1.0),), "Bloch vector must have 3 components, got shape (2,)", id="empty-then-bad-side"),
        pytest.param(((2, 0, 0),), (), "Bloch vector must be unit norm, got |v| = 2.0", id="bad-then-empty-side"),
        pytest.param(_Z, np.zeros((0, 3)), "arrangement needs at least one setting per side", id="empty-array-side"),
        pytest.param(np.array([[True, False, False]]), _Z, "Bloch vector components must be real numbers, got True",
                     id="bool-array-side"),
        pytest.param(_Z, (1.0 for _ in range(1)), "Bloch vector must have 3 components, got shape ()",
                     id="generator-of-numbers"),
    ],
)
def test_a_bad_side_raises_the_message_of_its_first_bad_vector(alice, bob, message):
    with pytest.raises(CorrelationError, match=f"^{re.escape(message)}$"):
        MeasurementArrangement(alice, bob)


@pytest.mark.parametrize(
    "vector",
    [(True, False, False), ("1", "0", "0"), ("a", "b", "c"), (0.0, 0.0, True), (np.True_, 0.0, 0.0), (1j, 0, 0),
     (None, 0.0, 1.0), np.array([True, False, False])],
    ids=repr,
)
def test_a_bloch_component_that_is_not_a_real_number_is_refused(vector):
    for build in (
        lambda: unit_vector(vector),
        lambda: MeasurementArrangement((vector,), _Z),
        lambda: MeasurementArrangement(_Z, (_Z[0], vector)),
        lambda: MeasurementArrangement(np.array([vector], dtype=object), _Z),
    ):
        with pytest.raises(CorrelationError, match="^Bloch vector components must be real numbers, got ") as info:
            build()
        assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "side",
    [((0, 0, 1),), ((np.float64(1.0), 0, 0),), ((np.int64(0), np.float32(0.0), 1),), np.array([[0, 1, 0]]),
     np.array([[0.0, 0.0, 1.0]], dtype=np.float32), [np.array([1, 0, 0])]],
    ids=repr,
)
def test_integer_and_numpy_float_components_are_accepted(side):
    arrangement = MeasurementArrangement(side, side)
    assert arrangement.alice.dtype == np.float64
    assert arrangement.alice.tolist() == arrangement.bob.tolist() == np.asarray(side, dtype=float).tolist()


def test_correlation_rejects_bad_tables():
    scenario = Scenario(1, 1, 2, 2)
    with pytest.raises(CorrelationError):
        Correlation(scenario, -np.full((2, 2, 1, 1), 0.25))
    with pytest.raises(CorrelationError):
        Correlation(scenario, np.full((2, 2, 1, 1), 0.3))  # block sums to 1.2
    with pytest.raises(CorrelationError):
        Correlation(scenario, np.full((2, 2, 2, 1), 0.25))  # wrong shape


def test_correlation_is_immutable():
    corr = chsh_protocol_correlation(math.pi / 4, 0.5)
    with pytest.raises(AttributeError):
        corr.table = None
    with pytest.raises(ValueError):
        corr.table[0, 0, 0, 0] = 1.0


# -------------------------------------------------------- noisy-singlet table


def test_perfect_anticorrelation_axes():
    # v=1 with antiparallel axes: outcomes always agree
    arr = MeasurementArrangement(alice=((0, 0, -1.0),), bob=((0, 0, 1.0),))
    corr = werner_correlation(1.0, arr)
    block = corr.block(0, 0)
    assert block[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert block[1, 1] == pytest.approx(0.5, abs=1e-15)
    assert block[0, 1] == 0.0
    assert block[1, 0] == 0.0


@pytest.mark.parametrize("pair", [(True, 0), (0, 0.0), (-1, -1), (2, 0), (0, 3)])
def test_block_refuses_a_pair_that_is_not_a_setting(pair):
    # numpy would read True as a mask, which adds an axis, and -1 as the last setting
    pattern = re.escape(f"setting pair {pair!r} is not an index pair of the 2x3 settings")
    with pytest.raises(CorrelationError, match=pattern):
        chsh_protocol_correlation(0.5, 0.8).block(*pair)


def test_block_takes_numpy_integer_indices():
    corr = chsh_protocol_correlation(0.5, 0.8)
    assert np.array_equal(corr.block(np.int64(1), np.uint8(2)), corr.table[:, :, 1, 2])


def test_zero_visibility_is_uniform():
    arr = random_arrangement(3, 2)
    corr = werner_correlation(0.0, arr)
    assert np.allclose(corr.table, 0.25, atol=1e-15)


def test_diagonal_entry_formula():
    # antiparallel axes at v = 0.682903: agreement (1+v)/2, diagonal entries half that
    arr = MeasurementArrangement(alice=((0, 0, -1.0),), bob=((0, 0, 1.0),))
    corr = werner_correlation(0.682903, arr)
    assert corr.block(0, 0)[0, 0] == pytest.approx(0.42072575, abs=1e-12)


def test_werner_invariants_random_arrangements():
    for _ in range(10):
        arr = random_arrangement(int(RNG.integers(1, 4)), int(RNG.integers(1, 4)))
        v = float(RNG.uniform(0, 1))
        corr = werner_correlation(v, arr)
        assert corr.table.min() >= 0.0
        assert np.allclose(corr.table.sum(axis=(0, 1)), 1.0, atol=1e-15)
        assert corr.is_nonsignaling()


def scalar_werner_table(visibility, arr):
    """The Werner table entry by entry, from each setting pair's own a.b."""
    table = np.empty(arr.scenario.table_shape)
    for x, a in enumerate(arr.alice):
        for y, b in enumerate(arr.bob):
            s = 0.5 * (1.0 - visibility * float(np.add.reduce(a * b)))
            table[0, 0, x, y] = table[1, 1, x, y] = 0.5 * s
            table[0, 1, x, y] = table[1, 0, x, y] = 0.5 * (1.0 - s)
    return table


@pytest.mark.parametrize("seed", range(8))
def test_werner_table_is_the_scalar_formula_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    arr = random_arrangement(int(rng.integers(1, 7)), int(rng.integers(1, 7)), rng)
    for v in (0.0, 1.0, float(rng.uniform(0, 1))):
        assert werner_correlation(v, arr).table.tobytes() == scalar_werner_table(v, arr).tobytes()


def test_werner_table_of_a_64x64_arrangement_is_the_scalar_formula_bit_for_bit():
    rng = np.random.default_rng(64)
    arr = random_arrangement(64, 64, rng)
    v = float(rng.uniform(0, 1))
    assert werner_correlation(v, arr).table.tobytes() == scalar_werner_table(v, arr).tobytes()


def test_linearity_in_visibility():
    # underpins the closed-form local weight
    arr = random_arrangement(2, 3)
    for _ in range(5):
        v0, v1, q = RNG.uniform(0, 1, size=3)
        mixed = werner_correlation(q * v0 + (1 - q) * v1, arr)
        combo = q * werner_correlation(v0, arr).table + (1 - q) * werner_correlation(v1, arr).table
        assert np.abs(mixed.table - combo).max() < 1e-12


def test_visibility_range_checked():
    arr = random_arrangement(1, 1)
    with pytest.raises(CorrelationError):
        werner_correlation(1.2, arr)
    with pytest.raises(CorrelationError):
        werner_correlation(-0.1, arr)


# ------------------------------------------------------------ theta protocol


def test_protocol_correlators_at_ideal_point():
    corr = chsh_protocol_correlation(math.pi / 4, 1.0)
    r = 1 / math.sqrt(2)
    expected = np.array([[r, r, 1.0], [r, -r, 0.0]])
    assert np.abs(correlators(corr) - expected).max() < 1e-12
    alice, bob = marginals(corr)
    assert np.abs(alice).max() < 1e-12
    assert np.abs(bob).max() < 1e-12


def test_protocol_key_pair_correlator_equals_visibility():
    for v in (0.3, 0.7445, 1.0):
        co = correlators(chsh_protocol_correlation(math.pi / 4, v))
        assert co[0, 2] == pytest.approx(v, abs=1e-12)
        assert co[1, 2] == pytest.approx(0.0, abs=1e-12)


def test_protocol_white_noise_limit():
    corr = chsh_protocol_correlation(0.9, 0.0)
    assert np.abs(correlators(corr)).max() < 1e-15
    assert np.abs(marginals(corr)[0]).max() < 1e-15


def test_protocol_theta_domain():
    with pytest.raises(CorrelationError):
        chsh_protocol_correlation(0.0, 0.5)
    with pytest.raises(CorrelationError):
        chsh_protocol_correlation(math.pi / 2, 0.5)


def test_fourth_bob_setting_extends_scenario():
    arr = chsh_arrangement(math.pi / 4, fourth_bob_setting=True)
    assert arr.scenario == Scenario(2, 4, 2, 2)
    assert np.allclose(arr.bob[3], (1.0, 0.0, 0.0))


# ------------------------------------------------------------------- slices


def test_slice_origin_is_uniform():
    corr = slice_correlation(0.0, 0.0)
    assert np.allclose(corr.table, 0.25, atol=1e-15)


def test_slice_matches_polar_protocol():
    r = 1 / math.sqrt(2)
    ideal = slice_correlation(r, r)
    assert ideal.allclose(chsh_protocol_correlation(math.pi / 4, 1.0), atol=1e-12)
    for _ in range(20):
        theta = float(RNG.uniform(0.05, math.pi / 2 - 0.05))
        v = float(RNG.uniform(0, 1))
        point = slice_correlation(v * math.cos(theta), v * math.sin(theta))
        assert point.allclose(chsh_protocol_correlation(theta, v), atol=1e-12)


EDGE = 1.0 + 4e-13  # s^2 + t^2 within 1e-12 above 1: still on the disc
SLICE_POINTS = [
    (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
    (0.5, 0.0), (-0.5, -0.0), (0.0, 0.5), (-0.0, -0.5),
    (0.3, 0.4), (-0.6, 0.55), (-0.6, -0.55), (0.7, -0.2), (0.1, 0.2),
    (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
    (EDGE, 0.0), (-EDGE, 0.0), (0.0, EDGE), (-0.0, -EDGE),
    *((EDGE * math.cos(angle), EDGE * math.sin(angle)) for angle in (0.5, 2.0, 3.5, 5.5)),
    *(tuple(point) for point in RNG.uniform(-0.7, 0.7, size=(40, 2)).tolist()),
]


def _slice_table_bytes(s, t):
    """p(a,b|x,y) = max(0, (1 + (-1)^(a+b) E[x][y])/4) in plain floats, in (a, b, x, y) order."""
    v = math.sqrt(min(s * s + t * t, 1.0))
    e = ((s, t, v), (t, -s, 0.0))
    values = [
        max(0.25 * (1.0 + (1.0 if a == b else -1.0) * e[x][y]), 0.0)
        for a in (0, 1) for b in (0, 1) for x in (0, 1) for y in (0, 1, 2)
    ]
    return array.array("d", values).tobytes()


def test_slice_table_is_the_correlator_formula_bit_for_bit():
    for s, t in SLICE_POINTS:
        assert slice_correlation(s, t).table.tobytes() == _slice_table_bytes(s, t), (s, t)


def test_slice_rejects_points_outside_disc():
    with pytest.raises(CorrelationError, match=r"^\(s, t\) = \(1\.0, 0\.5\) has s\^2 \+ t\^2 = 1\.25, not <= 1$"):
        slice_correlation(1.0, 0.5)


# each range check fails NaN itself, before any probability table is built
@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: MeasurementArrangement(((math.nan, 0.0, 0.0),), ((0.0, 0.0, 1.0),)), CorrelationError, "unit norm"),
        (lambda: werner_correlation(math.nan, chsh_arrangement(0.3)), CorrelationError, "got nan"),
        (lambda: slice_correlation(math.nan, 0.5), CorrelationError, "= nan, not <= 1"),
    ],
    ids=["unit_vector", "werner_visibility", "slice_correlation"],
)
def test_nan_is_rejected_where_it_arrives(build, error, message):
    with pytest.raises(error, match=message):
        build()


# ------------------------------------------------------------- correlators


def test_perfectly_correlated_correlators():
    table = np.zeros((2, 2, 1, 1))
    table[0, 0, 0, 0] = table[1, 1, 0, 0] = 0.5
    corr = Correlation(Scenario(1, 1, 2, 2), table)
    assert correlators(corr)[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert abs(marginals(corr)[0][0]) < 1e-15


# --------------------------------------------------------------------- JSON


def test_json_round_trip(tmp_path):
    corr = chsh_protocol_correlation(1.1, 0.83)
    path = tmp_path / "corr.json"
    dump_correlation(corr, path)
    loaded = load_correlation(path)
    assert loaded.scenario == corr.scenario
    assert np.abs(loaded.table - corr.table).max() == 0.0
    doc = json.loads(path.read_text())
    assert doc["scenario"] == {"nA": 2, "nB": 3, "kA": 2, "kB": 2}
    # nested [x][y][a][b]
    assert doc["table"][0][2][0][0] == pytest.approx(corr.block(0, 2)[0, 0])


def test_json_malformed_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"scenario\": {\"nA\": 2}}")
    with pytest.raises(CorrelationError):
        load_correlation(path)
    path.write_text("not json at all")
    with pytest.raises(CorrelationError):
        load_correlation(path)


@pytest.mark.parametrize(
    "field,value", [("kB", 2.99), ("kB", 2.0), ("nA", True), ("nB", "3"), ("kA", None), ("nA", [2])]
)
def test_json_scenario_sizes_must_be_integers(field, value):
    doc = chsh_protocol_correlation(1.1, 0.83).to_json_dict()
    doc["scenario"][field] = value
    with pytest.raises(CorrelationError, match=f"scenario field {field} must be a JSON integer"):
        Correlation.from_json_dict(doc)


@pytest.mark.parametrize(
    "entry,message", [("0.25", "JSON numbers"), (False, "JSON numbers"), ([0.1, 0.2], "rectangular")]
)
def test_json_table_entries_must_be_numbers(entry, message):
    doc = chsh_protocol_correlation(1.1, 0.83).to_json_dict()
    doc["table"][1][2][0][1] = entry
    with pytest.raises(CorrelationError, match=message):
        Correlation.from_json_dict(doc)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: MeasurementArrangement((), ((0.0, 0.0, 1.0),)),
                     "arrangement needs at least one setting per side", id="arrangement-without-settings"),
    ],
)
def test_correlation_input_checks(call, message):
    with pytest.raises(CorrelationError, match=re.escape(message)):
        call()
