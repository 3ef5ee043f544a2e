"""Local polytope membership, facets, and local-weight maximization."""

import math
import re

import numpy as np
import pytest

from ccbound import kernels, localset
from ccbound.correlations import (
    Correlation,
    CorrelationError,
    MeasurementArrangement,
    Scenario,
    chsh_arrangement,
    chsh_protocol_correlation,
    slice_correlation,
    to_correlators,
    werner_correlation,
)
from ccbound.localset import (
    FacetValue,
    LPError,
    VertexGuardError,
    enumerate_vertices,
    facet_values,
    is_local_lp,
    local_visibility,
    max_local_weight_along,
    max_local_weight_ns,
    vertex_matrix,
)

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


@pytest.mark.parametrize(
    "scenario,count",
    [
        (Scenario(2, 2, 2, 2), 16),
        (Scenario(2, 3, 2, 2), 32),
        (Scenario(1, 1, 2, 2), 4),
    ],
)
def test_vertex_counts(scenario, count):
    vertices = enumerate_vertices(scenario)
    assert len(vertices) == count
    tables = {v.correlation.table.tobytes() for v in vertices}
    assert len(tables) == count  # all distinct


def test_vertices_are_deterministic_products():
    for vertex in enumerate_vertices(Scenario(1, 1, 2, 2)):
        assert set(np.unique(vertex.correlation.table)) <= {0.0, 1.0}
        assert vertex.correlation.is_nonsignaling()


def test_vertex_guard():
    with pytest.raises(VertexGuardError):
        enumerate_vertices(Scenario(10, 10, 4, 4))
    # 5 settings a side, 100 x 1,024 entries, is inside the guard
    assert vertex_matrix(Scenario(5, 5, 2, 2)).shape == (100, 1024)


def test_vertex_matrix_consistent_with_enumeration():
    scenario = Scenario(2, 3, 2, 2)
    mat = vertex_matrix(scenario)
    vertices = enumerate_vertices(scenario)
    assert mat.shape == (2 * 2 * 2 * 3, 32)
    for i in (0, 7, 31):
        assert np.array_equal(mat[:, i], vertices[i].correlation.table.ravel())


# ------------------------------------------------------------------- facets


def test_facet_count_and_bound():
    form = to_correlators(chsh_protocol_correlation(math.pi / 4, 1.0))
    values = facet_values(form)
    assert len(values) == 12
    assert all(abs(f.value) <= 4.0 + 1e-12 for f in values)


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
        form = to_correlators(chsh_protocol_correlation(theta, 1.0))
        for facet in facet_values(form):
            key = (facet.x0, facet.x1, facet.y0, facet.y1)
            assert facet.value == pytest.approx(expected[key], abs=1e-12), key


def test_facets_uniform_all_zero():
    form = to_correlators(chsh_protocol_correlation(math.pi / 4, 0.0))
    assert all(abs(f.value) < 1e-14 for f in facet_values(form))


def test_facets_scale_linearly_with_visibility():
    theta = 0.9
    base = {(f.x0, f.x1, f.y0, f.y1): f.value for f in facet_values(to_correlators(chsh_protocol_correlation(theta, 1.0)))}
    noisy = facet_values(to_correlators(chsh_protocol_correlation(theta, 0.6)))
    for facet in noisy:
        assert facet.value == pytest.approx(0.6 * base[(facet.x0, facet.x1, facet.y0, facet.y1)], abs=1e-12)


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
            by_facets = all(abs(f.value) <= 2 + 1e-9 for f in facet_values(to_correlators(corr)))
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
    vertex = enumerate_vertices(Scenario(2, 3, 2, 2))[5]
    result = is_local_lp(vertex.correlation)
    assert result.is_local
    assert result.local_content == pytest.approx(1.0, abs=1e-9)
    assert np.count_nonzero(result.weights > 1e-9) == 1


def test_nonlocal_witness_is_violated_facet():
    corr = chsh_protocol_correlation(math.pi / 4, 0.75)
    result = is_local_lp(corr)
    assert not result.is_local
    assert isinstance(result.witness, FacetValue)
    assert abs(result.witness.value) > 2.0
    assert result.witness.value == pytest.approx(0.75 * 2 * math.sqrt(2), abs=1e-9)


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

    def perturbed(A, b, c, tol, maxiter):
        status, q, m = solve(A, b, c, tol, maxiter)
        m = m.copy()
        m[np.argmax(m)] += shift_support
        m[np.flatnonzero(m == 0.0)[0]] += shift_zero
        return status, q + shift_zero + max(shift_support, 0.0), m

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
            corr = _random_local(rng, scenario).mix(target, float(rng.uniform(0.02, 0.4)))
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
    status, _, _ = kernels.simplex_maximize(mat, corr.table.ravel(), obj, 1e-11, 20000, equalities=mat.shape[0])
    assert status == kernels.SIMPLEX_INFEASIBLE


def test_segment_weight_skips_the_witness_of_a_nonlocal_input(monkeypatch):
    # the membership pre-pass reads the LP verdict alone: no correlator form
    # and no facet values are built for a nonlocal corr
    def unused(*args):
        raise AssertionError("the segment weight builds no CHSH witness")

    theta = math.pi / 4
    monkeypatch.setattr(localset, "to_correlators", unused)
    monkeypatch.setattr(localset, "facet_values", unused)
    result = max_local_weight_along(chsh_protocol_correlation(theta, 0.85), chsh_protocol_correlation(theta, 1.0))
    assert result.on_segment and 0.0 < result.q < 1.0


def test_segment_weight_primal_check_rejects_perturbed_solution(monkeypatch):
    solve = kernels.simplex_maximize

    def perturbed(A, b, c, tol, maxiter, equalities=0):
        status, value, x = solve(A, b, c, tol, maxiter, equalities)
        x = x.copy()
        if equalities:
            x[np.flatnonzero(x == 0.0)[0]] = 1e-6
        return status, value, x

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

    def perturbed(A, b, c, tol, maxiter):
        status, q, m = solve(A, b, c, tol, maxiter)
        m = m.copy()
        m[np.argmax(m)] += 1e-6
        return status, q + 1e-6, m

    monkeypatch.setattr(kernels, "simplex_maximize", perturbed)
    with pytest.raises(LPError, match=r"primal check: max\(V m - corr\) = [0-9.e-]+$"):
        max_local_weight_ns(chsh_protocol_correlation(math.pi / 4, 0.8))


def test_ns_weight_decomposition_reconstructs():
    corr = chsh_protocol_correlation(math.pi / 4, 0.8)
    result = max_local_weight_ns(corr)
    assert 0.0 < result.q < 1.0
    recon = result.q * result.local.table + (1 - result.q) * result.rest.table
    assert np.abs(recon - corr.table).max() < 1e-9
    assert result.rest.is_nonsignaling(atol=1e-8)
    assert is_local_lp(result.local).is_local
