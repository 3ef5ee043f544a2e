"""Local polytope membership, its Bell functionals, and local-weight maximization."""

import itertools
import math
import re

import numpy as np
import pytest

from ccbound import kernels
from ccbound.correlations import (
    Correlation,
    CorrelationError,
    MeasurementArrangement,
    Scenario,
    chsh_arrangement,
    chsh_protocol_correlation,
    slice_correlation,
    werner_correlation,
)
from ccbound.localset import (
    LPError,
    is_local_lp,
    local_visibility,
    max_local_weight_along,
    max_local_weight_ns,
    vertex_matrix,
)

import pins

THETAS = [math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3, 5 * math.pi / 12]


def pr_box():
    table = np.zeros((2, 2, 2, 2))
    for a in (0, 1):
        for b in (0, 1):
            for x in (0, 1):
                for y in (0, 1):
                    if (a ^ b) == (x & y):
                        table[a, b, x, y] = 0.5
    return Correlation(Scenario(2, 2, 2, 2), table)


# ----------------------------------------------------------------- vertices


def _product_vertices(scenario):
    """The table of every deterministic strategy, Alice's output tuples in
    the outer loop and Bob's in the inner, built entry by entry."""
    for a_out, b_out in itertools.product(
        itertools.product(range(scenario.k_a), repeat=scenario.n_a),
        itertools.product(range(scenario.k_b), repeat=scenario.n_b),
    ):
        table = np.zeros(scenario.table_shape)
        for x, y in itertools.product(range(scenario.n_a), range(scenario.n_b)):
            table[a_out[x], b_out[y], x, y] = 1.0
        yield table


@pytest.mark.parametrize(
    "scenario,count",
    [
        (Scenario(2, 2, 2, 2), 16),
        (Scenario(2, 3, 2, 2), 32),
        (Scenario(1, 1, 2, 2), 4),
    ],
)
def test_vertex_counts(scenario, count):
    mat = vertex_matrix(scenario)
    assert mat.shape == (math.prod(scenario.table_shape), count)
    assert len({column.tobytes() for column in mat.T}) == count  # all distinct


def test_vertices_are_deterministic_products():
    # each column holds a single 1 per (x, y) block, at (a(x), b(y)) for
    # output functions read off the first setting of the other side
    for scenario in (Scenario(1, 1, 2, 2), Scenario(2, 3, 2, 2), Scenario(2, 2, 3, 3)):
        x, y = np.arange(scenario.n_a)[:, None], np.arange(scenario.n_b)[None, :]
        for column in vertex_matrix(scenario).T:
            table = column.reshape(scenario.table_shape)
            assert set(np.unique(table)) == {0.0, 1.0}
            assert (table.sum(axis=(0, 1)) == 1.0).all()
            a_out = table[:, :, :, 0].sum(axis=1).argmax(axis=0)
            b_out = table[:, :, 0, :].sum(axis=0).argmax(axis=0)
            product = np.zeros(scenario.table_shape)
            product[a_out[:, None], b_out[None, :], x, y] = 1.0
            assert np.array_equal(table, product)
            assert Correlation(scenario, table).is_nonsignaling()


def test_vertex_guard():
    with pytest.raises(ValueError, match=r"^1600 x 1099511627776 vertex matrix entries exceed the guard of 10000000$"):
        vertex_matrix(Scenario(10, 10, 4, 4))
    # 5 settings a side, 100 x 1,024 entries, is inside the guard
    assert vertex_matrix(Scenario(5, 5, 2, 2)).shape == (100, 1024)


def _looped_vertex_matrix(scenario):
    """The vertex matrix written one vertex at a time, Alice's output tuples
    in the outer loop and Bob's in the inner: the reference that the
    broadcast product must equal byte for byte."""
    rows = math.prod(scenario.table_shape)
    mat = np.zeros((rows, scenario.k_a**scenario.n_a * scenario.k_b**scenario.n_b))
    tables = mat.reshape(*scenario.table_shape, -1)
    x, y = np.arange(scenario.n_a)[:, None], np.arange(scenario.n_b)[None, :]
    assignments = itertools.product(
        itertools.product(range(scenario.k_a), repeat=scenario.n_a),
        itertools.product(range(scenario.k_b), repeat=scenario.n_b),
    )
    for col, (a_out, b_out) in enumerate(assignments):
        tables[np.array(a_out)[:, None], np.array(b_out)[None, :], x, y, col] = 1.0
    return mat


@pytest.mark.parametrize(
    "scenario",
    [Scenario(2, 3, 2, 2), Scenario(2, 4, 2, 2), Scenario(3, 3, 2, 2), Scenario(2, 2, 3, 3),
     Scenario(3, 2, 2, 3), Scenario(5, 5, 2, 2)],
    ids=["2x3", "2x4", "3322", "2233", "3223", "5522"],
)
def test_vertex_matrix_equals_the_per_vertex_loop(scenario):
    mat = vertex_matrix(scenario)
    expected = _looped_vertex_matrix(scenario)
    assert (mat.shape, mat.dtype, mat.flags.c_contiguous) == (expected.shape, expected.dtype, True)
    assert mat.tobytes() == expected.tobytes()
    # read-only and cached: every caller shares the one matrix
    assert vertex_matrix(Scenario(scenario.n_a, scenario.n_b, scenario.k_a, scenario.k_b)) is mat
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 0] = 2.0


def test_vertex_matrix_consistent_with_enumeration():
    for scenario, count in ((Scenario(2, 3, 2, 2), 32), (Scenario(2, 2, 3, 3), 81)):
        mat = vertex_matrix(scenario)
        tables = [table.ravel() for table in _product_vertices(scenario)]
        assert mat.shape == (math.prod(scenario.table_shape), count) and len(tables) == count
        assert all(np.array_equal(column, table) for column, table in zip(mat.T, tables))


# ------------------------------------------------- CHSH expressions (oracle)


def _chsh_values(corr):
    """S = <A_x0 B_y0> + <A_x0 B_y1> + <A_x1 B_y0> - <A_x1 B_y1> of a binary
    corr for every ordered pair x0 != x1, y0 != y1.  In the three- and
    four-setting scenarios studied here a binary correlation is local
    exactly when all |S| <= 2."""
    t = corr.table
    co = t[0, 0] + t[1, 1] - t[0, 1] - t[1, 0]  # <A_x B_y> for every (x, y)
    n_a, n_b = co.shape
    return {
        (x0, x1, y0, y1): float(co[x0, y0] + co[x0, y1] + co[x1, y0] - co[x1, y1])
        for x0, x1 in itertools.permutations(range(n_a), 2)
        for y0, y1 in itertools.permutations(range(n_b), 2)
    }


def test_facet_count_and_bound():
    values = _chsh_values(chsh_protocol_correlation(math.pi / 4, 1.0))
    assert len(values) == 12
    assert all(abs(value) <= 4.0 + 1e-12 for value in values.values())


def test_facets_of_ideal_protocol_match_closed_forms():
    # closed forms follow from the definition applied to the protocol vectors
    for theta in THETAS:
        c, s = math.cos(theta), math.sin(theta)
        expected = {
            (0, 1, 0, 1): 2 * (c + s),
            (0, 1, 0, 2): 1 + c + s,
            (0, 1, 1, 0): 0.0,
            (0, 1, 1, 2): 1 - c + s,
            (0, 1, 2, 0): 1 + c - s,
            (0, 1, 2, 1): 1 + c + s,
            (1, 0, 0, 1): 0.0,
            (1, 0, 0, 2): -1 + c + s,
            (1, 0, 1, 0): 2 * (-c + s),
            (1, 0, 1, 2): -1 - c + s,
            (1, 0, 2, 0): 1 - c + s,
            (1, 0, 2, 1): 1 - c - s,
        }
        values = _chsh_values(chsh_protocol_correlation(theta, 1.0))
        assert values.keys() == expected.keys()
        for key, value in values.items():
            assert value == pytest.approx(expected[key], abs=1e-12), key


def test_facets_uniform_all_zero():
    values = _chsh_values(chsh_protocol_correlation(math.pi / 4, 0.0))
    assert all(abs(value) < 1e-14 for value in values.values())


def test_facets_scale_linearly_with_visibility():
    theta = 0.9
    base = _chsh_values(chsh_protocol_correlation(theta, 1.0))
    for key, value in _chsh_values(chsh_protocol_correlation(theta, 0.6)).items():
        assert value == pytest.approx(0.6 * base[key], abs=1e-12)


# -------------------------------------------------------- locality threshold


def test_local_visibility_values():
    assert local_visibility(math.pi / 4) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert local_visibility(math.pi / 3) == pytest.approx(0.7320508075688773, abs=1e-12)
    for theta in np.linspace(1e-6, math.pi / 2 - 1e-6, 25):
        value = local_visibility(float(theta))
        assert 1 / math.sqrt(2) <= value < 1.0 + 1e-12
    with pytest.raises(ValueError):
        local_visibility(0.0)
    with pytest.raises(ValueError):
        local_visibility(math.pi / 2)


def test_membership_flips_at_local_visibility():
    for theta in THETAS:
        v_l = local_visibility(theta)
        assert is_local_lp(chsh_protocol_correlation(theta, v_l - 1e-4)).is_local
        assert not is_local_lp(chsh_protocol_correlation(theta, v_l + 1e-4)).is_local


def test_membership_agrees_with_facets_on_grid():
    # LP verdict == facet verdict == threshold comparison on a coarse grid
    for theta in THETAS:
        v_l = local_visibility(theta)
        for v in np.linspace(0.60, 1.0, 9):
            corr = chsh_protocol_correlation(theta, float(v))
            by_lp = is_local_lp(corr).is_local
            by_facets = all(abs(value) <= 2 + 1e-9 for value in _chsh_values(corr).values())
            by_threshold = v <= v_l + 1e-12
            assert by_lp == by_facets == by_threshold, (theta, v)


def test_local_weights_reproduce_correlation():
    corr = chsh_protocol_correlation(math.pi / 4, 0.69)
    result = is_local_lp(corr)
    assert result.is_local
    recon = vertex_matrix(corr.scenario) @ result.weights
    assert np.abs(recon - corr.table.ravel()).max() < 1e-9
    assert result.weights.min() >= -1e-12


def test_vertex_correlation_is_local_with_unit_weight():
    scenario = Scenario(2, 3, 2, 2)
    result = is_local_lp(Correlation(scenario, vertex_matrix(scenario)[:, 5].reshape(scenario.table_shape)))
    assert result.is_local and result.bell_functional is None
    assert result.local_content == pytest.approx(1.0, abs=1e-9)
    assert np.count_nonzero(result.weights > 1e-9) == 1


def _assert_certified(corr, result):
    """y.v >= 1 - 1e-9 on every deterministic strategy, enumerated apart from
    vertex_matrix, and y.corr = q < 1: corr violates the Bell inequality."""
    y = result.bell_functional
    assert not result.is_local and result.weights is None
    assert y.shape == (corr.table.size,) and not y.flags.writeable
    assert min(float(y @ table.ravel()) for table in _product_vertices(corr.scenario)) >= 1.0 - 1e-9
    assert float(y @ corr.table.ravel()) == pytest.approx(result.local_content, abs=1e-9)
    assert result.local_content < 1.0 - 1e-3


def test_nonlocal_verdict_carries_a_violated_bell_functional():
    corr = chsh_protocol_correlation(math.pi / 4, 0.75)
    result = is_local_lp(corr)
    _assert_certified(corr, result)
    # q = 2 - sqrt(2) v: 1 at the local visibility 1/sqrt(2), 2 - sqrt(2) at v = 1
    assert result.local_content == pytest.approx(2 - math.sqrt(2) * 0.75, abs=1e-9)


def test_werner_5522_verdict_carries_a_checked_bell_functional():
    # the seeded 5522 Werner input at v = 0.9 that `ccbound localweight` is
    # pinned on: y.v summed entry by entry from each of the 1,024
    # deterministic strategies' output functions a(x), b(y), and q against
    # scipy's HiGHS on the same LP
    optimize = pytest.importorskip("scipy.optimize")
    corr, _ = pins.werner_pair(5522, 5)
    result = is_local_lp(corr)
    assert not result.is_local
    y = result.bell_functional.reshape(corr.table.shape).tolist()
    q, p = result.local_content, corr.table.tolist()
    lowest = min(
        math.fsum(y[a[x]][b[j]][x][j] for x in range(5) for j in range(5))
        for a in itertools.product(range(2), repeat=5) for b in itertools.product(range(2), repeat=5)
    )
    value = math.fsum(
        y[i][k][x][j] * p[i][k][x][j] for i in range(2) for k in range(2) for x in range(5) for j in range(5)
    )
    assert lowest >= 1 - 1e-9
    assert abs(value - q) <= 1e-9 and value < lowest
    mat = vertex_matrix(corr.scenario)
    reference = _highs(optimize, -np.ones(mat.shape[1]), A_ub=mat, b_ub=corr.table.ravel())
    assert reference.status == 0 and abs(q + reference.fun) <= 1e-9


def _chained_3322(v):
    """A noisy singlet on the three-setting chained arrangement: Alice's
    settings at 0, 60 and 120 degrees in the xz plane, Bob's at 30, 90, 150."""
    def vector(degrees):
        return (math.sin(math.radians(degrees)), 0.0, math.cos(math.radians(degrees)))

    arrangement = MeasurementArrangement(tuple(map(vector, (0, 60, 120))), tuple(map(vector, (30, 90, 150))))
    return werner_correlation(v, arrangement)


def _chained_box_3_outcomes(weight):
    """weight * (p = 1/3 when b - a = x y mod 3) + (1 - weight) * white noise
    on two settings and three outcomes a side: local content 2 (1 - weight)."""
    scenario = Scenario(2, 2, 3, 3)
    a, b, x, y = np.indices(scenario.table_shape)
    box = ((b - a) % 3 == x * y) / 3.0
    return Correlation(scenario, weight * box + (1.0 - weight) / 9.0)


@pytest.mark.parametrize(
    "corr,q",
    [(_chained_3322(0.9), None), (_chained_box_3_outcomes(0.8), 0.4)],
    ids=["werner-3322", "box-3-outcomes"],
)
def test_bell_functional_certifies_nonbinary_and_larger_scenarios(corr, q):
    result = is_local_lp(corr)
    _assert_certified(corr, result)
    if q is not None:
        assert result.local_content == pytest.approx(q, abs=1e-9)


def _moved_within_a_block(y, corr):
    """y plus 10 at row 0 and minus 10 corr_0/corr_6 at row 6, both in the
    (x, y) = (0, 0) block: y.corr stays, and a strategy outputting (0, 1)
    there loses 10 corr_0/corr_6 > 6 >= its y.v, so min(V^T y) falls below 1."""
    moved = y.copy()
    moved[0] += 10.0
    moved[6] -= 10.0 * corr[0] / corr[6]
    return moved


@pytest.mark.parametrize(
    "perturb",
    [
        _moved_within_a_block,
        lambda y, corr: y + 1e-6 * (np.arange(y.size) == 4),
        lambda y, corr: np.full(y.size, np.nan),
    ],
    ids=["invalid", "shifted", "nan"],
)
def test_bell_functional_check_rejects_perturbed_duals(monkeypatch, perturb):
    # "invalid" breaks only y.v >= 1 on every strategy; raising one entry by
    # 1e-6 keeps y valid but moves y.corr off q
    solve = kernels.simplex_maximize

    def perturbed(A, b, c):
        status, q, m, y = solve(A, b, c)
        return status, q, m, perturb(y, b)

    corr = chsh_protocol_correlation(math.pi / 4, 0.9)
    assert is_local_lp(corr).bell_functional is not None
    monkeypatch.setattr(kernels, "simplex_maximize", perturbed)
    with pytest.raises(LPError, match=r"^Bell functional fails its check: min\(V\^T y\) = \S+, y\.corr = \S+ for q = "):
        is_local_lp(corr)
    assert is_local_lp(chsh_protocol_correlation(math.pi / 4, 0.6)).is_local


def test_fourth_setting_keeps_threshold():
    # appending (1,0,0) for Bob leaves the locality threshold unchanged
    for theta in (math.pi / 4, math.pi / 6):
        arr = chsh_arrangement(theta, fourth_bob_setting=True)
        v_l = local_visibility(theta)
        assert is_local_lp(werner_correlation(v_l - 1e-4, arr)).is_local
        assert not is_local_lp(werner_correlation(v_l + 1e-4, arr)).is_local


@pytest.mark.parametrize(
    "shift_support,shift_zero,failed",
    [
        (-1e-6, 0.0, "|sum(m) - q|"),
        (0.0, -1e-6, "-min(m)"),
        (1e-6, 0.0, "max(V m - corr)"),
    ],
    ids=["sum", "sign", "rows"],
)
def test_lp_primal_check_rejects_perturbed_solution(monkeypatch, shift_support, shift_zero, failed):
    # each perturbation breaks exactly one of the three checks: q follows the
    # changed weights except in the first case, and a support vertex of the
    # optimum has a tight row (complementary slackness), so raising its
    # weight pushes V m above the correlation
    solve = kernels.simplex_maximize

    def perturbed(A, b, c):
        status, q, m, y = solve(A, b, c)
        m = m.copy()
        m[np.argmax(m)] += shift_support
        m[np.flatnonzero(m == 0.0)[0]] += shift_zero
        return status, q + shift_zero + max(shift_support, 0.0), m, y

    corr = chsh_protocol_correlation(math.pi / 4, 1.0)
    assert is_local_lp(corr).local_content < 0.95
    monkeypatch.setattr(kernels, "simplex_maximize", perturbed)
    with pytest.raises(LPError, match=r"primal check: " + re.escape(failed) + r" = [0-9.e-]+$"):
        is_local_lp(corr)


# ----------------------------------------------------- local weight (segment)


def test_segment_weight_matches_closed_form():
    theta = math.pi / 4
    v_l = local_visibility(theta)
    target = chsh_protocol_correlation(theta, 1.0)
    for v in (0.72, 0.85, 0.97):
        result = max_local_weight_along(chsh_protocol_correlation(theta, v), target)
        assert result.on_segment
        assert result.q == pytest.approx((1 - v) / (1 - v_l), abs=1e-6)


def test_segment_weight_trivial_cases():
    theta = math.pi / 4
    target = chsh_protocol_correlation(theta, 1.0)
    local = chsh_protocol_correlation(theta, 0.5)
    assert max_local_weight_along(local, target).q == 1.0
    assert max_local_weight_along(target, target).q == 0.0


def test_segment_weight_components_valid():
    theta = math.pi / 3
    target = chsh_protocol_correlation(theta, 1.0)
    result = max_local_weight_along(chsh_protocol_correlation(theta, 0.8), target)
    assert result.local is not None
    assert result.local.table.min() >= 0.0
    assert np.allclose(result.local.table.sum(axis=(0, 1)), 1.0, atol=1e-9)
    # the extracted component sits at the locality boundary
    assert is_local_lp(result.local).is_local


def test_segment_weight_monotone_in_visibility():
    theta = math.pi / 4
    target = chsh_protocol_correlation(theta, 1.0)
    qs = [
        max_local_weight_along(chsh_protocol_correlation(theta, v), target).q
        for v in (0.72, 0.80, 0.90, 0.98)
    ]
    assert all(qs[i] >= qs[i + 1] - 1e-7 for i in range(len(qs) - 1))


def test_segment_weight_scenario_mismatch():
    with pytest.raises(CorrelationError):
        max_local_weight_along(
            chsh_protocol_correlation(math.pi / 4, 0.8), pr_box()
        )


def _jittered_werner(rng, n_b, v):
    """Noisy singlet on the theta protocol's settings (a fourth Bob setting
    on 2x4), each Bloch vector jittered at random: nonsignaling, usually
    nonlocal for v near 1."""
    base = chsh_arrangement(float(rng.uniform(0.2, 1.37)), fourth_bob_setting=n_b == 4)

    def jitter(vector):
        moved = vector + rng.normal(scale=0.15, size=3)
        return moved / np.linalg.norm(moved)

    arrangement = MeasurementArrangement(
        tuple(jitter(a) for a in base.alice), tuple(jitter(b) for b in base.bob)
    )
    return werner_correlation(v, arrangement)


def _random_local(rng, scenario):
    """A random mixture of deterministic strategies."""
    weights = rng.dirichlet(np.full(vertex_matrix(scenario).shape[1], 0.3))
    table = (vertex_matrix(scenario) @ weights).reshape(scenario.table_shape)
    return Correlation(scenario, table / table.sum(axis=(0, 1), keepdims=True))


def _highs(optimize, c, **constraints):
    return optimize.linprog(
        c, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        **constraints,
    )


def test_segment_weight_matches_highs():
    # min r st V m + r*target = corr, m, r >= 0 solved by scipy's HiGHS, on
    # random 2x3 and 2x4 pairs: corr on the segment from a local point to
    # the target, an unrelated nonlocal corr (often off the segment), and a
    # noisy, usually local corr
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(1181)
    seen = set()
    for i in range(150):
        scenario = Scenario(2, 3 + i % 2, 2, 2)
        target = _jittered_werner(rng, scenario.n_b, rng.uniform(0.85, 1.0))
        kind = ("segment", "unrelated", "noisy")[i % 3]
        if kind == "segment":
            local, weight = _random_local(rng, scenario), float(rng.uniform(0.02, 0.4))
            corr = Correlation(scenario, weight * local.table + (1.0 - weight) * target.table)
        else:
            corr = _jittered_werner(rng, scenario.n_b, rng.uniform(0.8, 1.0) if kind == "unrelated" else 0.5)
        result = max_local_weight_along(corr, target)
        if is_local_lp(corr).is_local:
            assert result.q == 1.0 and result.local is corr and result.on_segment
            seen.add("local")
            continue
        mat = np.column_stack([vertex_matrix(scenario), target.table.ravel()])
        cost = np.zeros(mat.shape[1])
        cost[-1] = 1.0
        reference = _highs(optimize, cost, A_eq=mat, b_eq=corr.table.ravel())
        if reference.status == 2:
            assert not result.on_segment and result.q == 0.0 and result.local is None
            seen.add("off segment")
            continue
        assert reference.status == 0 and result.on_segment
        assert abs(result.q - (1.0 - reference.fun)) < 1e-9
        rebuilt = result.q * result.local.table + (1.0 - result.q) * target.table
        assert np.abs(rebuilt - corr.table).max() < 1e-9
        assert is_local_lp(result.local).is_local
        seen.add("on segment")
    assert seen == {"local", "off segment", "on segment"}


@pytest.mark.parametrize("n", [4, 5])
def test_large_lps_match_highs(n):
    # the membership and segment LPs of noisy singlets on three random
    # arrangements with n settings a side: m + n = 320 and 321 on 4422, and
    # 1,124 and 1,125 on 5522, past the m + n = 400 from which a fixed
    # budget of 20,000 pivots would end before Bland's rule starts
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2103 + n)
    for _ in range(3):
        vectors = rng.normal(size=(2 * n, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        arrangement = MeasurementArrangement(tuple(vectors[:n]), tuple(vectors[n:]))
        corr, target = werner_correlation(0.95, arrangement), werner_correlation(1.0, arrangement)
        mat = vertex_matrix(corr.scenario)
        b = corr.table.ravel()
        q = is_local_lp(corr).local_content
        assert q < 1.0 - kernels.LP_SLACK
        reference = _highs(optimize, -np.ones(mat.shape[1]), A_ub=mat, b_ub=b)
        assert reference.status == 0 and abs(q + reference.fun) < 1e-9
        segment = np.column_stack([mat, target.table.ravel()])
        cost = np.zeros(segment.shape[1])
        cost[-1] = 1.0
        reference = _highs(optimize, cost, A_eq=segment, b_eq=b)
        result = max_local_weight_along(corr, target)
        assert reference.status == 0 and result.on_segment
        assert abs(result.q - (1.0 - reference.fun)) < 1e-9


def test_segment_weight_keeps_the_membership_tolerance():
    # a slice point 3e-10 outside the local square, along polar angle 0.5:
    # local within the membership LP's 1e-9, but the segment LP alone (no
    # membership pre-pass) finds no split along this target and returns q = 0
    radius = (1 + 3e-10) / (math.cos(0.5) + math.sin(0.5))
    corr = slice_correlation(radius * math.cos(0.5), radius * math.sin(0.5))
    target = slice_correlation(-0.7, 0.7)
    membership = is_local_lp(corr)
    assert membership.is_local and 1 - membership.local_content == pytest.approx(3e-10, rel=1e-3)
    result = max_local_weight_along(corr, target)
    assert result.q == 1.0 and result.local is corr and result.on_segment
    mat = np.column_stack([vertex_matrix(corr.scenario), target.table.ravel()])
    obj = np.zeros(mat.shape[1])
    obj[-1] = -1.0
    status, _, _, _ = kernels.simplex_maximize(mat, corr.table.ravel(), obj, equalities=mat.shape[0])
    assert status == kernels.SIMPLEX_INFEASIBLE


def test_segment_weight_skips_the_witness_of_a_nonlocal_input(monkeypatch):
    # the segment weight's membership pre-pass and the NS weight read the LP
    # verdict alone: with every dual NaN, only is_local_lp's check fails
    solve = kernels.simplex_maximize

    def no_duals(A, b, c, equalities=0):
        status, value, x, y = solve(A, b, c, equalities=equalities)
        return status, value, x, np.full(y.size, np.nan)

    theta = math.pi / 4
    corr = chsh_protocol_correlation(theta, 0.85)
    monkeypatch.setattr(kernels, "simplex_maximize", no_duals)
    result = max_local_weight_along(corr, chsh_protocol_correlation(theta, 1.0))
    assert result.on_segment and 0.0 < result.q < 1.0
    assert 0.0 < max_local_weight_ns(corr).q < 1.0
    with pytest.raises(LPError, match="Bell functional"):
        is_local_lp(corr)


def test_segment_weight_primal_check_rejects_perturbed_solution(monkeypatch):
    solve = kernels.simplex_maximize

    def perturbed(A, b, c, equalities=0):
        status, value, x, y = solve(A, b, c, equalities=equalities)
        x = x.copy()
        if equalities:
            x[np.flatnonzero(x == 0.0)[0]] = 1e-6
        return status, value, x, y

    theta = math.pi / 4
    monkeypatch.setattr(kernels, "simplex_maximize", perturbed)
    with pytest.raises(LPError, match=r"primal check: max\|V m \+ r t - corr\| = "):
        max_local_weight_along(chsh_protocol_correlation(theta, 0.85), chsh_protocol_correlation(theta, 1.0))


# ------------------------------------------------- local weight (nonsignaling)


def test_ns_weight_local_input():
    result = max_local_weight_ns(chsh_protocol_correlation(math.pi / 4, 0.5))
    assert result.q == pytest.approx(1.0, abs=1e-9)
    assert result.rest is None


def test_ns_weight_pr_box_is_zero():
    result = max_local_weight_ns(pr_box())
    assert result.q == pytest.approx(0.0, abs=1e-9)
    assert result.local is None


def test_ns_weight_ideal_protocol():
    # known local content of the maximally violating point: 2 - sqrt(2)
    result = max_local_weight_ns(chsh_protocol_correlation(math.pi / 4, 1.0))
    assert 0.0 <= result.q <= 1 - (2 * math.sqrt(2) - 2) / 2 + 1e-9
    assert result.q == pytest.approx(2 - math.sqrt(2), abs=1e-9)


def _pr_like_box(rng, scenario):
    """p(a,b|x,y) = 1/2 when a xor b = x*f(y) xor g(y), for random bits f, g:
    nonsignaling, with uniform marginals."""
    f = rng.integers(0, 2, scenario.n_b)
    g = rng.integers(0, 2, scenario.n_b)
    a, b, x, y = np.indices(scenario.table_shape)
    return Correlation(scenario, 0.5 * ((a ^ b) == (x * f[y]) ^ g[y]))


def test_ns_weight_matches_highs():
    # max sum(m) st V m <= corr, m >= 0 solved by scipy's HiGHS, on random
    # nonsignaling mixtures of a PR-like box, a jittered noisy singlet and a
    # local point on 2x3 and 2x4
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(419)
    qs = []
    for i in range(80):
        scenario = Scenario(2, 3 + i % 2, 2, 2)
        w = rng.dirichlet(np.ones(3))
        table = (
            w[0] * _pr_like_box(rng, scenario).table
            + w[1] * _jittered_werner(rng, scenario.n_b, rng.uniform(0.6, 1.0)).table
            + w[2] * _random_local(rng, scenario).table
        )
        corr = Correlation(scenario, table)
        assert corr.is_nonsignaling(atol=1e-12)
        result = max_local_weight_ns(corr)
        mat = vertex_matrix(scenario)
        reference = _highs(optimize, -np.ones(mat.shape[1]), A_ub=mat, b_ub=corr.table.ravel())
        assert reference.status == 0
        assert abs(result.q + reference.fun) < 1e-9
        qs.append(result.q)
        if result.rest is not None:
            assert result.rest.is_nonsignaling(atol=1e-8)
    assert min(qs) < 0.5 and max(qs) > 0.9


@pytest.mark.parametrize("band", [(1e-12, 1e-9), (1e-9, 3e-9), (3e-9, 1e-8)])
def test_ns_weight_just_outside_the_local_square(band):
    # slice points a relative eps outside the facet |s| + |t| = 1: dividing
    # the LP's rounding by 1 - q once made their remainder "negative"; a
    # member (1 - q <= LP_SLACK) has no remainder, and a nonmember's split
    # reproduces corr
    rng = np.random.default_rng(1)
    phis = rng.uniform(0.05, math.pi / 2 - 0.05, 300)
    epss = np.exp(rng.uniform(math.log(band[0]), math.log(band[1]), 300))
    for phi, eps in zip(phis.tolist(), epss.tolist()):
        radius = (1 + eps) / (math.cos(phi) + math.sin(phi))
        corr = slice_correlation(radius * math.cos(phi), radius * math.sin(phi))
        result = max_local_weight_ns(corr)
        if is_local_lp(corr).is_local:
            assert result.rest is None
        else:
            recon = result.q * result.local.table + (1 - result.q) * result.rest.table
            assert np.abs(recon - corr.table).max() <= 1e-12


def test_ns_weight_primal_check_rejects_perturbed_solution(monkeypatch):
    # raising a support vertex's weight by 1e-6 lifts V m above corr on its
    # tight row; the remainder is refused by the primal residual
    solve = kernels.simplex_maximize

    def perturbed(A, b, c):
        status, q, m, y = solve(A, b, c)
        m = m.copy()
        m[np.argmax(m)] += 1e-6
        return status, q + 1e-6, m, y

    monkeypatch.setattr(kernels, "simplex_maximize", perturbed)
    with pytest.raises(LPError, match=r"primal check: max\(V m - corr\) = [0-9.e-]+$"):
        max_local_weight_ns(chsh_protocol_correlation(math.pi / 4, 0.8))


def test_ns_weight_refuses_a_signaling_correlation():
    # outputs that agree, equally often 0 and 1 at y = 0 but 0 nine times in
    # ten at y = 1: Alice's marginal depends on Bob's setting, and the LP
    # answers q = 0.6 with a "nonsignaling" remainder that signals
    table = np.zeros((2, 2, 2, 2))
    table[:, :, :, 0] = np.diag([0.5, 0.5])[:, :, None]
    table[:, :, :, 1] = np.diag([0.9, 0.1])[:, :, None]
    corr = Correlation(Scenario(2, 2, 2, 2), table)
    with pytest.raises(CorrelationError, match=r"^correlation signals: a marginal moves by more than 1e-09 "):
        max_local_weight_ns(corr)


@pytest.mark.parametrize("shift, accepted", [(1e-10, True), (1e-8, False)])
def test_ns_weight_allows_signaling_within_the_lp_slack(shift, accepted):
    # moving `shift` from p(0,0|0,0) to p(0,1|0,0) moves Bob's y = 0
    # marginal away from its x = 1 value by `shift`, half of it from the mean
    table = chsh_protocol_correlation(math.pi / 4, 0.8).table.copy()
    table[0, 0, 0, 0] -= shift
    table[0, 1, 0, 0] += shift
    corr = Correlation(Scenario(2, 3, 2, 2), table)
    if accepted:
        assert 0.0 < max_local_weight_ns(corr).q < 1.0
    else:
        with pytest.raises(CorrelationError, match=r"^correlation signals"):
            max_local_weight_ns(corr)


def test_ns_weight_decomposition_reconstructs():
    corr = chsh_protocol_correlation(math.pi / 4, 0.8)
    result = max_local_weight_ns(corr)
    assert 0.0 < result.q < 1.0
    recon = result.q * result.local.table + (1 - result.q) * result.rest.table
    assert np.abs(recon - corr.table).max() < 1e-9
    assert result.rest.is_nonsignaling(atol=1e-8)
    assert is_local_lp(result.local).is_local


def _simplex_stopping_at_its_iteration_limit(equality_lp_only):
    """A ``kernels.simplex_maximize`` that reports the iteration limit on
    every LP, or only on the LPs with equality rows."""
    solve = kernels.simplex_maximize

    def stopped(A, b, c, maxiter=None, equalities=0):
        if equality_lp_only and not equalities:
            return solve(A, b, c, maxiter, equalities)
        m, n = np.shape(A)
        return kernels.SIMPLEX_ITERATION_LIMIT, 0.0, np.zeros(n), np.full(m, np.nan)

    return stopped


@pytest.mark.parametrize(
    "call, equality_lp_only",
    [
        pytest.param(lambda: is_local_lp(pr_box()), False, id="membership"),
        pytest.param(lambda: max_local_weight_ns(pr_box()), False, id="ns-weight"),
        pytest.param(lambda: max_local_weight_along(chsh_protocol_correlation(math.pi / 4, 0.9),
                                                    chsh_protocol_correlation(math.pi / 4, 1.0)),
                     True, id="segment-weight"),
    ],
)
def test_simplex_iteration_limit_is_an_lp_error(monkeypatch, call, equality_lp_only):
    monkeypatch.setattr(kernels, "simplex_maximize", _simplex_stopping_at_its_iteration_limit(equality_lp_only))
    with pytest.raises(LPError, match=re.escape("simplex did not reach an optimum (status 1)")):
        call()
