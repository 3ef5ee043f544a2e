"""Kernel-level tests: the batched entropy kernel must match the entropy
formula and agree between batched and single calls, the sweep must match
brute force, and the simplex must match brute-force answers on tiny
problems, an element-by-element pivot bit for bit, and scipy's HiGHS on
LPs shaped like the locality LPs, in their optima and in their duals."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbound import kernels
from ccbound.correlations import MeasurementArrangement, Scenario, chsh_arrangement, werner_correlation
from ccbound.localset import vertex_matrix


def test_simplex_known_optimum():
    # max x + y st x <= 1, y <= 2, x + y <= 2.5
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 2.5])
    c = np.ones(2)
    status, obj, x, _ = kernels.simplex_maximize(A, b, c, 1000)
    assert status == kernels.SIMPLEX_OPTIMAL
    assert abs(obj - 2.5) < 1e-12
    assert abs(x.sum() - 2.5) < 1e-12
    assert np.all(A @ x <= b + 1e-12)


def test_simplex_degenerate_rhs():
    # zero right-hand side forces the optimum 0 with degenerate pivoting
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([0.0, 0.0])
    c = np.array([1.0, 0.0])
    status, obj, x, _ = kernels.simplex_maximize(A, b, c, 1000)
    assert status == kernels.SIMPLEX_OPTIMAL
    assert abs(obj) < 1e-12


def test_simplex_unbounded_detected():
    A = np.array([[-1.0, 0.0]])
    b = np.array([0.0])
    c = np.array([1.0, 0.0])
    status, _, _, _ = kernels.simplex_maximize(A, b, c, 1000)
    assert status == kernels.SIMPLEX_UNBOUNDED


def test_simplex_random_vs_vertex_enumeration():
    # 2D problems solved exactly by checking all constraint intersections
    rng = np.random.default_rng(7)
    for _ in range(50):
        A = rng.uniform(0.1, 1.0, size=(4, 2))
        b = rng.uniform(0.5, 2.0, size=4)
        c = rng.uniform(0.1, 1.0, size=2)
        status, obj, x, _ = kernels.simplex_maximize(A, b, c, 1000)
        assert status == kernels.SIMPLEX_OPTIMAL
        best = 0.0
        candidates = [np.zeros(2)]
        for i in range(4):
            for j in range(i + 1, 4):
                M = A[[i, j]]
                if abs(np.linalg.det(M)) > 1e-9:
                    candidates.append(np.linalg.solve(M, b[[i, j]]))
            # axis intersections
            for k in range(2):
                if A[i, k] > 1e-9:
                    point = np.zeros(2)
                    point[k] = b[i] / A[i, k]
                    candidates.append(point)
        for point in candidates:
            if np.all(point >= -1e-9) and np.all(A @ point <= b + 1e-9):
                best = max(best, float(c @ point))
        assert abs(obj - best) < 1e-8


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
def test_simplex_rejects_negative_or_non_finite_rhs(bad):
    # the slack basis is infeasible for such a b; max x st x <= -1 used to
    # return x = [-1] as optimal, and a NaN b was reported as unbounded
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}") + "$"):
        kernels.simplex_maximize(np.ones((2, 1)), np.array([1.0, bad]), np.ones(1), 100)


def test_simplex_accepts_negative_zero_rhs():
    status, obj, x, _ = kernels.simplex_maximize(np.ones((1, 1)), np.array([-0.0]), np.ones(1), 100)
    assert status == kernels.SIMPLEX_OPTIMAL
    assert obj == 0.0 and x.tolist() == [0.0]


# Beale's LP: Dantzig's rule with smallest-index ties cycles through six
# degenerate bases, so the optimum is reached only after Bland's rule takes
# over at pivot 50*(m+n) = 350
BEALE_A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
BEALE_B = np.array([0.0, 0.0, 1.0])
BEALE_C = np.array([0.75, -20.0, 0.5, -6.0])


def test_simplex_cycles_until_bland_rule():
    status, _, _, _ = kernels.simplex_maximize(BEALE_A, BEALE_B, BEALE_C, 354)
    assert status == kernels.SIMPLEX_ITERATION_LIMIT
    status, obj, x, _ = kernels.simplex_maximize(BEALE_A, BEALE_B, BEALE_C, 1000)
    assert status == kernels.SIMPLEX_OPTIMAL
    assert abs(obj - 1.25) < 1e-12
    assert np.allclose(x, [1.0, 0.0, 1.0, 0.0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("size", [400, 1028])
def test_simplex_default_budget_reaches_bland_rule(size):
    # Beale's LP padded with zero columns to m + n = size still cycles under
    # Dantzig's rule; Bland's rule takes over at pivot 50*(m+n), within the
    # default budget of 100*(m+n) pivots.  From m + n = 400 on, a fixed
    # budget of 20,000 pivots ends before Bland's rule starts
    A = np.hstack([BEALE_A, np.zeros((3, size - 7))])
    c = np.r_[BEALE_C, np.zeros(size - 7)]
    if size == 400:
        status, _, _, _ = kernels.simplex_maximize(A, BEALE_B, c, 20000)
        assert status == kernels.SIMPLEX_ITERATION_LIMIT
    status, obj, x, _ = kernels.simplex_maximize(A, BEALE_B, c)
    assert status == kernels.SIMPLEX_OPTIMAL
    assert abs(obj - 1.25) < 1e-12
    assert np.allclose(x[:4], [1.0, 0.0, 1.0, 0.0], rtol=0.0, atol=1e-12) and not x[4:].any()


def test_simplex_tied_ratio_leaves_smallest_basis_index():
    # pivot 1: x0 enters and leaves row 1 basic; pivot 2: x1 enters and all
    # three rows tie at ratio 1 while holding basis indices 3 (slack), 0 (x0)
    # and 5 (slack).  Row 1, neither the first nor the last tied row, must
    # leave: that is optimal after two pivots, the other rows need a third
    A = np.array([[1.0, 1.0, 0.0], [2.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
    b = np.array([1.0, 1.0, 2.0])
    c = np.ones(3)
    status, _, _, _ = kernels.simplex_maximize(A, b, c, 2)
    assert status == kernels.SIMPLEX_ITERATION_LIMIT
    status, obj, x, _ = kernels.simplex_maximize(A, b, c, 3)
    assert status == kernels.SIMPLEX_OPTIMAL
    assert obj == 1.0
    assert x.tolist() == [0.0, 1.0, 0.0]


def _elementwise_simplex(A, b, c, tol, maxiter):
    """The same tableau simplex pivoting one element at a time: the reference
    that the vectorized pivot must equal bit for bit."""
    m, n = A.shape
    width = n + m + 1
    T = np.zeros((m + 1, width))
    T[:m, :n] = A
    for i in range(m):
        T[i, n + i] = 1.0
    T[:m, width - 1] = b
    T[m, :n] = -c
    basis = list(range(n, n + m))
    for it in range(maxiter):
        col = -1
        if it < 50 * (m + n):
            best = -tol
            for j in range(n + m):
                if T[m, j] < best:
                    best = T[m, j]
                    col = j
        else:
            for j in range(n + m):
                if T[m, j] < -tol:
                    col = j
                    break
        if col < 0:
            x = np.zeros(n)
            for i in range(m):
                if basis[i] < n:
                    x[basis[i]] = T[i, width - 1]
            return kernels.SIMPLEX_OPTIMAL, T[m, width - 1], x, T[m, n : n + m].copy()
        row = -1
        best_ratio = np.inf
        for i in range(m):
            if T[i, col] > tol:
                ratio = T[i, width - 1] / T[i, col]
                if ratio < best_ratio - 1e-12:
                    best_ratio = ratio
                    row = i
                elif ratio < best_ratio + 1e-12 and row >= 0 and basis[i] < basis[row]:
                    row = i
        if row < 0:
            return kernels.SIMPLEX_UNBOUNDED, 0.0, np.zeros(n), np.full(m, np.nan)
        T[row, :] /= T[row, col]
        for i in range(m + 1):
            if i != row and T[i, col] != 0.0:
                T[i, :] -= T[i, col] * T[row, :]
        basis[row] = col
    return kernels.SIMPLEX_ITERATION_LIMIT, 0.0, np.zeros(n), np.full(m, np.nan)


def _result_bytes(result):
    status, obj, x, duals = result
    return status, np.float64(obj).tobytes(), np.asarray(x, dtype=float).tobytes(), duals.tobytes()


def test_simplex_equals_elementwise_pivot_bit_for_bit():
    # status, optimum, solution and duals on random LPs with 30% zero
    # entries, quarter-step entries (exact ties and degenerate pivots), -0.0
    # right-hand sides, every exit status, and Beale's LP through Bland's rule
    rng = np.random.default_rng(11)
    cases = [(BEALE_A, BEALE_B, BEALE_C, maxiter) for maxiter in (354, 1000)]
    for k in range(300):
        m, n = rng.integers(1, 25), rng.integers(1, 40)
        A = rng.normal(size=(m, n)) if k % 3 else rng.uniform(0.0, 1.0, size=(m, n))
        A[rng.random(A.shape) < 0.3] = 0.0
        if k % 4 == 0:
            A = np.round(A * 4.0) / 4.0
        b = rng.uniform(0.0, 1.0, size=m)
        b[rng.random(m) < 0.3] = 0.0 if k % 5 else -0.0
        c = rng.normal(size=n) if k % 2 else np.ones(n)
        cases.append((A, b, c, (1000, 7, 20000)[k % 3]))
    statuses = set()
    for A, b, c, maxiter in cases:
        expected = _result_bytes(_elementwise_simplex(A, b, c, 1e-11, maxiter))
        assert _result_bytes(kernels.simplex_maximize(A, b, c, maxiter)) == expected
        statuses.add(expected[0])
    assert statuses == {kernels.SIMPLEX_OPTIMAL, kernels.SIMPLEX_ITERATION_LIMIT, kernels.SIMPLEX_UNBOUNDED}


@pytest.mark.parametrize("n", [4, 5])
def test_simplex_equals_elementwise_pivot_on_werner_membership_lps(n):
    # the 64 x 256 and 100 x 1,024 membership LPs of seeded 4422 and 5522
    # Werner correlations, local and nonlocal, at the default pivot budget
    rng = np.random.default_rng(int(f"{n}{n}22"))
    vectors = [[x / math.hypot(*v) for x in v] for v in rng.normal(size=(2 * n, 3)).tolist()]
    arrangement = MeasurementArrangement(tuple(vectors[:n]), tuple(vectors[n:]))
    mat = vertex_matrix(Scenario(n, n, 2, 2))
    c = np.ones(mat.shape[1])
    for v in (0.6, 0.8, 0.9, 1.0):
        b = werner_correlation(v, arrangement).table.ravel()
        expected = _result_bytes(_elementwise_simplex(mat, b, c, 1e-11, 100 * sum(mat.shape)))
        assert _result_bytes(kernels.simplex_maximize(mat, b, c)) == expected
        assert expected[0] == kernels.SIMPLEX_OPTIMAL


def test_pivot_leaves_zero_factor_rows_untouched_signed_zeros_included():
    # rows 1 and 2 have a zero, of either sign, in the pivot column 0.
    # Subtracting their zero multiple of the pivot row would turn row 1's
    # -0.0 under the pivot row's -2.0 into -0.0 - (0.0 * -2.0) = +0.0, and
    # row 2's -0.0 under the pivot's 1.0 into -0.0 - (-0.0 * 1.0) = +0.0
    T = np.array([[1.0, -2.0, 3.0], [0.0, -0.0, 5.0], [-0.0, 1.0, -0.0], [4.0, -0.0, 2.0]])
    kernels._pivot(T, 0, 0)
    expected = np.array([[1.0, -2.0, 3.0], [0.0, -0.0, 5.0], [-0.0, 1.0, -0.0], [0.0, 8.0, -10.0]])
    assert T.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([Scenario(2, 3, 2, 2), Scenario(2, 4, 2, 2)]).flatmap(
        lambda scenario: st.tuples(
            st.just(scenario),
            st.lists(
                st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
                min_size=math.prod(scenario.table_shape),
                max_size=math.prod(scenario.table_shape),
            ),
        )
    )
)
def test_simplex_matches_highs_on_local_content_lps(case):
    # max sum(m) subject to V m <= b, m >= 0, with V the 24x32 or 32x64
    # vertex matrix of the locality LPs and an arbitrary b >= 0.  Nonzero
    # entries stay above 1e-3 and HiGHS's tolerances are tightened, because
    # at its default 1e-7 it answers 1e-8 where b has one entry 1e-8 and
    # the exact optimum is 0
    optimize = pytest.importorskip("scipy.optimize")
    scenario, b = case
    mat = vertex_matrix(scenario)
    b = np.array(b)
    c = np.ones(mat.shape[1])
    status, obj, x, _ = kernels.simplex_maximize(mat, b, c)
    assert status == kernels.SIMPLEX_OPTIMAL
    reference = optimize.linprog(
        -c, A_ub=mat, b_ub=b, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert reference.status == 0
    assert abs(obj + reference.fun) < 1e-9
    assert abs(x.sum() - obj) < 1e-9


def test_simplex_equality_rows_known_optima():
    # max x + 2y st x + y = 1 (equality), y <= 0.4
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    status, obj, x, _ = kernels.simplex_maximize(A, [1.0, 0.4], [1.0, 2.0], 100, equalities=1)
    assert status == kernels.SIMPLEX_OPTIMAL
    assert abs(obj - 1.4) < 1e-12 and np.abs(x - [0.6, 0.4]).max() < 1e-12
    # a redundant copy of the equality (twice the row) leaves an artificial
    # basic at level zero with no real entry in its row
    A = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 1.0]])
    status, obj, x, _ = kernels.simplex_maximize(A, [1.0, 2.0, 0.4], [1.0, 2.0], 100, equalities=2)
    assert status == kernels.SIMPLEX_OPTIMAL
    assert abs(obj - 1.4) < 1e-12
    # an inconsistent copy is infeasible
    status, obj, x, _ = kernels.simplex_maximize(A, [1.0, 2.5, 0.4], [1.0, 2.0], 100, equalities=2)
    assert status == kernels.SIMPLEX_INFEASIBLE
    assert obj == 0.0 and not x.any()
    # artificials never re-enter: max -x - y st x + y = 1 is -1; were the
    # artificial free to enter, the row would act as x + y <= 1 and give 0
    status, obj, x, _ = kernels.simplex_maximize([[1.0, 1.0]], [1.0], [-1.0, -1.0], 100, equalities=1)
    assert status == kernels.SIMPLEX_OPTIMAL and obj == -1.0


def _random_equality_lp(rng):
    """(A, b, c, equalities) with b >= 0 and bounded feasible set, and its kind:
    consistent rows, redundant rows (combinations of earlier rows), an
    inconsistent copy of a row, or more random rows than columns."""
    n = int(rng.integers(1, 9))
    m_eq = int(rng.integers(1, 7))
    kind = ("consistent", "redundant", "inconsistent", "overdetermined")[int(rng.integers(0, 4))]
    if kind == "overdetermined":
        m_eq = n + int(rng.integers(1, 3))
    A_eq = np.round(rng.normal(size=(m_eq, n)) * 4) / 4 * (rng.uniform(size=(m_eq, n)) > 0.3)
    x0 = rng.uniform(size=n) * (rng.uniform(size=n) > 0.4)
    b_eq = A_eq @ x0
    if kind == "redundant":
        weights = rng.normal(size=(int(rng.integers(1, 4)), m_eq))
        A_eq, b_eq = np.vstack([A_eq, weights @ A_eq]), np.r_[b_eq, weights @ b_eq]
    elif kind == "inconsistent":
        i = int(rng.integers(0, m_eq))
        shift = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
        A_eq, b_eq = np.vstack([A_eq, A_eq[i]]), np.r_[b_eq, b_eq[i] + shift]
    elif kind == "overdetermined":
        b_eq = b_eq + rng.uniform(0.1, 1.0, size=m_eq) * rng.choice([-1.0, 1.0], size=m_eq)
    # flip rows with a negative right-hand side: the same equations
    sign = np.where(b_eq < 0.0, -1.0, 1.0)
    A_eq, b_eq = A_eq * sign[:, None], np.abs(b_eq)
    m_in = int(rng.integers(0, 4))
    A_in = np.round(rng.normal(size=(m_in, n)) * 4) / 4
    b_in = np.maximum(A_in @ x0, 0.0) + rng.uniform(size=m_in) * (rng.uniform(size=m_in) > 0.5)
    # sum(x) <= sum(x0) + 5 keeps every objective bounded
    A_in, b_in = np.vstack([A_in, np.ones(n)]), np.r_[b_in, x0.sum() + 5.0]
    c = np.round(rng.normal(size=n) * 4) / 4
    return np.vstack([A_eq, A_in]), np.r_[b_eq, b_in], c, len(b_eq), kind


def test_simplex_equality_rows_match_highs():
    # random LPs mixing equality and inequality rows, including redundant
    # and infeasible equalities; status, optimum and feasibility against
    # scipy's HiGHS with its tolerances tightened to 1e-10
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2206)
    seen = set()
    for _ in range(300):
        A, b, c, eq, kind = _random_equality_lp(rng)
        status, obj, x, _ = kernels.simplex_maximize(A, b, c, equalities=eq)
        reference = optimize.linprog(
            -c, A_ub=A[eq:], b_ub=b[eq:], A_eq=A[:eq], b_eq=b[:eq], bounds=(0, None), method="highs",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        seen.add((kind, status))
        if reference.status == 2:
            assert status == kernels.SIMPLEX_INFEASIBLE, kind
            continue
        assert reference.status == 0 and status == kernels.SIMPLEX_OPTIMAL, kind
        assert abs(obj + reference.fun) < 1e-9
        assert abs(c @ x - obj) < 1e-9
        assert np.abs(A[:eq] @ x - b[:eq]).max() < 1e-9
        assert (A[eq:] @ x - b[eq:]).max() < 1e-9 and x.min() > -1e-12
    assert seen >= {
        ("consistent", kernels.SIMPLEX_OPTIMAL),
        ("redundant", kernels.SIMPLEX_OPTIMAL),
        ("inconsistent", kernels.SIMPLEX_INFEASIBLE),
        ("overdetermined", kernels.SIMPLEX_INFEASIBLE),
    }


def _highs_duals(optimize, A, b, c):
    """max c.x st A x <= b, x >= 0 by scipy's HiGHS: (optimum, duals y = -marginals)."""
    reference = optimize.linprog(
        -c, A_ub=A, b_ub=b, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert reference.status == 0
    return -reference.fun, -reference.ineqlin.marginals


def test_simplex_duals_match_highs_on_random_lps():
    # dense positive A, b and c: a bounded LP whose optimum is, almost
    # surely, nondegenerate, so its dual is unique
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2021)
    for _ in range(100):
        m, n = rng.integers(1, 15), rng.integers(1, 25)
        A = rng.uniform(0.05, 1.0, size=(m, n))
        b = rng.uniform(0.1, 1.0, size=m)
        c = rng.uniform(0.1, 1.0, size=n)
        status, obj, _, y = kernels.simplex_maximize(A, b, c)
        assert status == kernels.SIMPLEX_OPTIMAL
        optimum, duals = _highs_duals(optimize, A, b, c)
        assert abs(obj - optimum) < 1e-9
        assert np.abs(y - duals).max() < 1e-9
        assert abs(y @ b - obj) < 1e-9
        assert (A.T @ y - c).min() >= -kernels.PIVOT_TOL and y.min() >= -kernels.PIVOT_TOL


def _werner_cases():
    rng = np.random.default_rng(5522)
    vectors = rng.normal(size=(10, 3))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    random_5522 = MeasurementArrangement(tuple(vectors[:5]), tuple(vectors[5:]))
    cases = [werner_correlation(v, random_5522) for v in (0.75, 0.9, 1.0)]
    for theta in (math.pi / 4, math.pi / 6, 1.2):
        cases.append(werner_correlation(0.9, chsh_arrangement(theta, fourth_bob_setting=True)))
    return cases


def test_simplex_duals_match_highs_on_werner_membership_lps():
    # max sum(m) st V m <= corr on nonlocal noisy singlets: the seeded 5522
    # arrangement at three visibilities and the 2x4 protocol at three angles
    optimize = pytest.importorskip("scipy.optimize")
    for corr in _werner_cases():
        mat = vertex_matrix(corr.scenario)
        b = corr.table.ravel()
        c = np.ones(mat.shape[1])
        status, obj, _, y = kernels.simplex_maximize(mat, b, c)
        assert status == kernels.SIMPLEX_OPTIMAL and obj < 1.0 - 1e-3
        optimum, duals = _highs_duals(optimize, mat, b, c)
        assert abs(obj - optimum) < 1e-9
        assert np.abs(y - duals).max() < 1e-9
        assert (mat.T @ y).min() >= 1.0 - 1e-12


def test_simplex_duals_are_nan_at_equality_rows_and_off_optimum():
    # max x + 2y st x + y = 1 (equality), y <= 0.4: raising the bound on y
    # by d moves d from x to y and gains d, so the inequality's dual is 1
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    status, _, _, y = kernels.simplex_maximize(A, [1.0, 0.4], [1.0, 2.0], 100, equalities=1)
    assert status == kernels.SIMPLEX_OPTIMAL
    assert math.isnan(y[0]) and abs(y[1] - 1.0) < 1e-12
    # infeasible, unbounded and out of pivots: no dual at all
    A = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 1.0]])
    results = [
        kernels.simplex_maximize(A, [1.0, 2.5, 0.4], [1.0, 2.0], 100, equalities=2),
        kernels.simplex_maximize(np.array([[-1.0, 0.0]]), np.array([0.0]), np.array([1.0, 0.0]), 1000),
        kernels.simplex_maximize(BEALE_A, BEALE_B, BEALE_C, 354),
    ]
    statuses = [kernels.SIMPLEX_INFEASIBLE, kernels.SIMPLEX_UNBOUNDED, kernels.SIMPLEX_ITERATION_LIMIT]
    for (status, _, _, y), expected, rows in zip(results, statuses, (3, 1, 3)):
        assert status == expected and y.shape == (rows,) and np.isnan(y).all()


def _entropy_bits(p, keep):
    """H of the marginal of p[a, b, f] on the axes in ``keep``."""
    q = p.sum(axis=tuple(i for i in range(3) if i not in keep)).ravel()
    q = q[q > 0]
    return -float(np.sum(q * np.log2(q)))


def test_cmi_kernel_matches_entropy_formula_and_batches():
    # I(A:B|F) = H(AF) + H(BF) - H(ABF) - H(F), one table or map at a time
    # and for a batch of maps in one call
    rng = np.random.default_rng(11)
    for shape in ((2, 2, 3), (2, 3, 4), (3, 3, 5)):
        p = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
        expected = (
            _entropy_bits(p, (0, 2)) + _entropy_bits(p, (1, 2))
            - _entropy_bits(p, (0, 1, 2)) - _entropy_bits(p, (2,))
        )
        assert abs(kernels.conditional_mutual_information_bits(p) - expected) < 1e-12

        n_e = shape[2]
        maps = rng.dirichlet(np.ones(n_e), size=(7, n_e))
        maps[3] = np.eye(n_e)[rng.integers(0, n_e, n_e)]  # a one-hot map in the batch
        batched = kernels.cmi_after_map_bits(p, maps)
        assert batched.shape == (7,)
        for k in range(7):
            single = kernels.cmi_after_map_bits(p, maps[k])
            assert isinstance(single, float)
            assert single == batched[k]


def test_mutual_information_kernel_direct_sum():
    # perfectly correlated bit
    p = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert abs(kernels.mutual_information_bits(p) - 1.0) < 1e-15
    # independent bits
    p = np.full((2, 2), 0.25)
    assert abs(kernels.mutual_information_bits(p)) < 1e-15
    # asymmetric case vs an explicit four-term sum
    p = np.array([[0.4, 0.1], [0.2, 0.3]])
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    expected = sum(
        p[a, b] * math.log2(p[a, b] / (pa[a] * pb[b])) for a in (0, 1) for b in (0, 1)
    )
    assert abs(kernels.mutual_information_bits(p) - expected) < 1e-15


def test_cmi_kernel_branch_weighting():
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(18)).reshape(2, 3, 3)
    expected = 0.0
    for f in range(3):
        pf = p[:, :, f].sum()
        expected += pf * kernels.mutual_information_bits(p[:, :, f] / pf)
    assert abs(kernels.conditional_mutual_information_bits(p) - expected) < 1e-12


def _frozen_cmi_bits(p_abf):
    """conditional_mutual_information_bits as it was written with .sum,
    ones_like and a final np.where: the oracle of the leaner kernel."""
    p = np.asarray(p_abf, dtype=float)
    *batch, na, nb, nf = p.shape
    pa = p.sum(axis=-2, keepdims=True)
    pb = p.sum(axis=-3, keepdims=True)
    pf = p.reshape(*batch, na * nb, 1, nf).sum(axis=-3, keepdims=True)
    keep = p > kernels.PROB_FLOOR
    ratio = np.divide(p * pf, pa * pb, out=np.ones_like(p), where=keep)
    terms = np.where(keep, p * np.log2(ratio), 0.0)
    ordered = terms.reshape(*batch, na * nb, nf).swapaxes(-1, -2).reshape(*batch, nf * na * nb)
    total = np.cumsum(ordered, axis=-1)[..., -1]
    return total if batch else float(total)


def _frozen_rows_from_squares(z, shape):
    """infotheory._rows_from_squares as it was written with two np.where."""
    sq = (z * z).reshape(*z.shape[:-1], *shape)
    sums = sq.sum(axis=-1, keepdims=True)
    positive = sums > 1e-300
    return np.where(positive, sq / np.where(positive, sums, 1.0), 1.0 / shape[1])


def _sparse_tables(rng, shape):
    """Normalized tables of ``shape`` with about 30% zero entries, some
    entries of 1e-17 (below the pruning floor) and some of -0.0."""
    p = rng.random(shape) * (rng.random(shape) > 0.3)
    p /= p.sum(axis=(-3, -2, -1), keepdims=True)
    p[rng.random(shape) < 0.1] = 1e-17
    p[(p == 0.0) & (rng.random(shape) < 0.5)] = -0.0
    return p


@pytest.mark.parametrize("shape", [(2, 2, 5), (2, 2, 1), (3, 3, 4), (4, 4, 2), (2, 5, 3), (6, 4, 1)])
def test_cmi_kernel_equals_frozen_reference_bit_for_bit(shape):
    # single and batched calls on sparse tables, |F| = 1 and |A|*|B| >= 8,
    # where numpy's reduction order could differ, all as the oracle's bytes
    rng = np.random.default_rng([17, *shape])
    batched = _sparse_tables(rng, (3, 5, *shape))
    assert kernels.conditional_mutual_information_bits(batched).tobytes() == _frozen_cmi_bits(batched).tobytes()
    for p in batched.reshape(-1, *shape):
        value = kernels.conditional_mutual_information_bits(p)
        assert isinstance(value, float)
        assert np.float64(value).tobytes() == np.float64(_frozen_cmi_bits(p)).tobytes()
    if shape[2] == 1:
        for p in batched.reshape(-1, *shape[:2]):
            assert np.float64(kernels.mutual_information_bits(p)).tobytes() == (
                np.float64(_frozen_cmi_bits(p[..., None])).tobytes()
            )
    n_e = shape[2]
    p = np.abs(batched[0, 0])
    maps = _frozen_rows_from_squares(rng.normal(size=(64, n_e * n_e)), (n_e, n_e))
    ours = kernels.cmi_after_map_bits(p, maps)
    assert ours.tobytes() == _frozen_cmi_bits(np.einsum("abe,...ef->...abf", p, maps)).tobytes()


def test_rows_from_squares_equals_frozen_reference_bit_for_bit():
    # single and batched parameter vectors, with rows of zeros and of
    # squares that sum to at most 1e-300 (the uniform fallback)
    from ccbound.infotheory import _rows_from_squares

    rng = np.random.default_rng(29)
    for n_e in (1, 2, 4, 5):
        z = rng.normal(size=(7, 3, n_e * n_e))
        rows = z.reshape(7, 3, n_e, n_e)
        rows[0, 0, 0] = 0.0
        rows[1, :, -1] = -0.0
        rows[2, 1, 0] = 0.0
        rows[2, 1, 0, 0] = 1e-160  # squares to a subnormal
        rows[3, 2] = 0.0
        for zz in (z, z[4, 1], z[3, 2], z[2, 1]):
            assert _rows_from_squares(zz, (n_e, n_e)).tobytes() == _frozen_rows_from_squares(zz, (n_e, n_e)).tobytes()


def test_sweep_covers_identity_and_constants():
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(12)).reshape(2, 2, 3)
    best, assign = kernels.sweep_deterministic_maps(p, 3)
    # the sweep can never beat an exhaustive manual scan
    manual = np.inf
    for i in range(27):
        digits = (i % 3, (i // 3) % 3, (i // 9) % 3)
        q = np.zeros((2, 2, 3))
        for e in range(3):
            q[:, :, digits[e]] += p[:, :, e]
        manual = min(manual, kernels.conditional_mutual_information_bits(q))
    assert abs(best - manual) < 1e-14
    assert assign.shape == (3,)

    # |E| = 5: 3125 maps span several sweep batches; brute force over every
    # map, keeping the first minimum in odometer order (e = 0 fastest)
    p = rng.dirichlet(np.ones(20)).reshape(2, 2, 5)
    assert 5**5 > kernels.SWEEP_BATCH
    brute_best, brute_assign = np.inf, None
    for digits in itertools.product(range(5), repeat=5):
        digits = digits[::-1]
        value = kernels.cmi_after_map_bits(p, np.eye(5)[list(digits)])
        if value < brute_best:
            brute_best, brute_assign = value, digits
    best, assign = kernels.sweep_deterministic_maps(p, 5)
    assert best == brute_best
    assert tuple(assign) == brute_assign

    # exact ties: every map separating e in {0, 1, 2} (a = b = 0) from
    # e in {3, 4} (a = b = 1) gives exactly 0; the first in odometer order wins
    p = np.zeros((2, 2, 5))
    p[0, 0, :3] = 0.25
    p[1, 1, 3:] = 0.125
    best, assign = kernels.sweep_deterministic_maps(p, 5)
    assert best == 0.0
    assert tuple(assign) == (1, 1, 1, 0, 0)


def test_kernel_flags_exported():
    from ccbound import _jit

    assert isinstance(_jit.JIT_ENABLED, bool)
    assert isinstance(_jit.HAVE_NUMBA, bool)


def test_sweep_batches_shrink_for_wide_tables():
    # a 100x100x3 table: 256 maps per call would make temporaries of
    # 256 x 30,000 entries (61 MB) each; map_batch gives 4 maps per call
    p = np.random.default_rng(3).dirichlet(np.ones(30_000)).reshape(100, 100, 3)
    tracemalloc.start()
    try:
        best, assign = kernels.sweep_deterministic_maps(p, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert (kernels.map_batch(20), kernels.map_batch(21), kernels.map_batch(30_000)) == (256, 243, 4)
    maps = np.eye(3)[[i // 3 ** np.arange(3) % 3 for i in range(27)]]
    values = [kernels.cmi_after_map_bits(p, rows) for rows in maps]
    assert best == min(values) and tuple(assign) == tuple(maps[int(np.argmin(values))].argmax(axis=1))


def test_simplex_iteration_limit_in_phase_one_returns_no_solution():
    # with no pivot allowed, phase 1 stops before it drives out the artificial
    status, objective, x, duals = kernels.simplex_maximize([[1.0, 1.0]], [1.0], [1.0, 1.0], maxiter=0, equalities=1)
    assert status == kernels.SIMPLEX_ITERATION_LIMIT
    assert objective == 0.0 and x.tolist() == [0.0, 0.0] and np.isnan(duals).all()
