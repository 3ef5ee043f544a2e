"""Hot numeric kernels: dense simplex pivoting and one batched entropy sum.

All information kernels are compositions of
:func:`conditional_mutual_information_bits`, which evaluates I(A:B|F) for
any number of leading batch axes.  Probabilities below 1e-15 are pruned
from the sum to avoid log underflow; logarithms are base 2 throughout.
"""

import numpy as np

PROB_FLOOR = 1e-15

# maps per kernel call of the deterministic sweep and Nelder-Mead on tables
# of up to 20 entries; map_batch scales it down for wider tables
SWEEP_BATCH = 256

SIMPLEX_OPTIMAL = 0
SIMPLEX_ITERATION_LIMIT = 1
SIMPLEX_UNBOUNDED = 2
SIMPLEX_INFEASIBLE = 3

# the one rounding slack of every LP answer: phase 1's infeasibility test here,
# localset's membership verdict and primal residuals, and regions' LOCAL label
LP_SLACK = 1e-9
PIVOT_TOL = 1e-11  # the simplex's one pivot tolerance; see simplex_maximize


def simplex_maximize(A, b, c, maxiter=None, equalities=0):
    """Maximize c.x subject to A x <= b, x >= 0, for finite b >= 0, where the
    first ``equalities`` rows hold with equality.

    Tableau simplex from the slack basis (feasible because b >= 0; a negative
    or non-finite entry of b raises ValueError).  Entering column by Dantzig's
    rule, switching to Bland's rule after 50*(m+n) pivots, half the default
    ``maxiter``, to rule out cycling; leaving row by minimum ratio with a
    1e-12 hysteresis and smallest-basis-index tie break.  A reduced cost
    above -PIVOT_TOL is optimal; a column entry <= PIVOT_TOL never pivots.
    Each pivot's row update is one product and one masked in-place subtract
    that skips every row whose pivot-column entry is zero, of either sign, so
    the tableau equals an element-by-element pivot's bit for bit.

    With equality rows the slacks of those rows are artificial variables and
    a first phase maximizes the sum of those rows of A x from the same
    basis.  If it leaves the artificials a sum above LP_SLACK the
    result is SIMPLEX_INFEASIBLE.  Otherwise each artificial still basic
    (at level zero) is pivoted out on the largest entry of its row outside
    the artificial columns; a row without one is redundant and stays as it
    is.  The artificial columns are then zeroed, so they never enter again,
    and the second phase maximizes c.  Both phases share ``maxiter``.
    Without equality rows only the second phase runs.

    Returns (status, objective, x, duals).  ``duals`` is a copy of the final
    objective row at the slack columns: the dual y of the rows, with
    A^T y >= c - PIVOT_TOL and b.y equal to the objective up to rounding.
    It is NaN at equality rows, whose artificial columns are zeroed, and
    everywhere when the status is not optimal.
    """
    b = np.asarray(b, dtype=float)
    bad = ~(np.isfinite(b) & (b >= 0.0))
    if bad.any():
        raise ValueError(f"right-hand side must be finite and >= 0, got {float(b[bad].min())!r}")
    m, n = np.shape(A)
    maxiter = 100 * (m + n) if maxiter is None else maxiter
    # row m is the objective; with equality rows, row m + 1 is phase 1's
    T = np.zeros((m + 1 + (equalities > 0), n + m + 1))
    T[:m, :n] = A
    T[np.arange(m), n + np.arange(m)] = 1.0
    T[:m, -1] = b
    T[m, :n] = np.negative(c)
    basis = list(range(n, n + m))

    pivots = 0
    if equalities:
        T[m + 1, :n] = -T[:equalities, :n].sum(axis=0)
        status, pivots = _pivot_until_optimal(T, basis, m + 1, 0, maxiter)
        if status != SIMPLEX_OPTIMAL:
            return status, 0.0, np.zeros(n), np.full(m, np.nan)
        artificial = [i for i in range(m) if n <= basis[i] < n + equalities]
        if T[artificial, -1].sum() > LP_SLACK:
            return SIMPLEX_INFEASIBLE, 0.0, np.zeros(n), np.full(m, np.nan)
        allowed = np.r_[0:n, n + equalities : n + m]
        for row in artificial:
            entries = np.abs(T[row, allowed])
            if entries.max() > PIVOT_TOL:
                col = int(allowed[entries.argmax()])
                _pivot(T, row, col)
                basis[row] = col
        T[:, n : n + equalities] = 0.0
        T = T[: m + 1]

    status, _ = _pivot_until_optimal(T, basis, m, pivots, maxiter)
    if status != SIMPLEX_OPTIMAL:
        return status, 0.0, np.zeros(n), np.full(m, np.nan)
    basis = np.array(basis)
    x = np.zeros(n)
    x[basis[basis < n]] = T[:m, -1][basis < n]
    duals = T[m, n : n + m].copy()
    duals[:equalities] = np.nan
    return SIMPLEX_OPTIMAL, T[m, -1], x, duals


def _pivot_until_optimal(T, basis, cost_row, first, maxiter):
    """Pivot T until row ``cost_row`` has no entry below -PIVOT_TOL.

    The constraint rows are the first len(basis); pivots are counted from
    ``first``.  Returns (status, pivots made so far).
    """
    m = len(basis)
    n = T.shape[1] - m - 1
    cost = T[cost_row, :-1]
    rhs = T[:m, -1]
    bland_after = 50 * (m + n)
    for it in range(first, maxiter):
        # entering column: first most negative cost (Dantzig), first negative (Bland)
        if it < bland_after:
            col = int(cost.argmin())
            if not cost[col] < -PIVOT_TOL:
                col = -1
        else:
            negative = (cost < -PIVOT_TOL).nonzero()[0]
            col = int(negative[0]) if negative.size else -1
        if col < 0:
            return SIMPLEX_OPTIMAL, it

        # leaving row by minimum ratio, scanned in row order: the hysteresis is order-dependent
        column = T[:m, col]
        eligible = (column > PIVOT_TOL).nonzero()[0]
        ratios = rhs[eligible] / column[eligible]
        row = -1
        best_ratio = np.inf
        for i, ratio in zip(eligible.tolist(), ratios.tolist()):
            if ratio < best_ratio - 1e-12:
                best_ratio = ratio
                row = i
            elif ratio < best_ratio + 1e-12 and row >= 0 and basis[i] < basis[row]:
                row = i
        if row < 0:
            return SIMPLEX_UNBOUNDED, it

        _pivot(T, row, col)
        basis[row] = col
    return SIMPLEX_ITERATION_LIMIT, maxiter


def _pivot(T, row, col):
    """Scale ``row`` to a unit pivot and eliminate ``col``, in place, from
    every other row whose entry in it is nonzero."""
    pivot_row = T[row]
    pivot_row /= pivot_row[col]
    factors = T[:, col, None].copy()
    factors[row] = 0.0
    np.subtract(T, factors * pivot_row, out=T, where=factors != 0.0)


def conditional_mutual_information_bits(p_abf):
    """I(A:B|F) in bits of normalized joint tables p_abf[..., a, b, f].

    Computed as sum_f of the unnormalized per-branch contribution
    sum_ab p(a,b,f) log2[ p(a,b,f) p(f) / (p(a,f) p(b,f)) ], which equals
    p(f) * I(A:B|F=f) without forming the conditional distribution.
    Leading axes are batch axes: the result has shape p_abf.shape[:-3]
    (a float for a single table).
    """
    p = np.asarray(p_abf, dtype=float)
    *batch, na, nb, nf = p.shape
    # np.add.reduce is what .sum calls, in the same order, without its wrapper
    pa = np.add.reduce(p, axis=-2, keepdims=True)
    pb = np.add.reduce(p, axis=-3, keepdims=True)
    # p(f) sums the (a, b) entries in row-major order
    pf = np.add.reduce(p.reshape(*batch, na * nb, 1, nf), axis=-3, keepdims=True)
    # p(f) >= p(a,b,f) for nonnegative tables, so the per-entry floor also
    # prunes every branch with p(f) <= PROB_FLOOR.  A pruned entry keeps
    # ratio 1, so its term is p * 0.0: +0.0, or -0.0 for an entry of -0.0,
    # which leaves the sum as it is because every table has an entry above
    # the floor.
    keep = p > PROB_FLOOR
    terms = np.divide(p * pf, pa * pb, out=np.ones(p.shape), where=keep)
    np.log2(terms, out=terms)
    terms *= p
    # left-to-right sum in (f, a, b) order: the value does not depend on the
    # batch shape, so a batched sweep and single calls agree bit for bit
    ordered = terms.reshape(*batch, na * nb, nf).swapaxes(-1, -2).reshape(*batch, nf * na * nb)
    total = ordered.cumsum(axis=-1)[..., -1]
    return total if batch else float(total)


def cmi_after_map_bits(p_abe, rows):
    """I(A:B|F) after pushing e through the row-stochastic maps rows[..., e, f]."""
    # einsum sums over e in order; a matrix product goes through BLAS, whose
    # fused multiply-adds move the last bit and with it the minimizer's
    # Nelder-Mead path
    return conditional_mutual_information_bits(np.einsum("abe,...ef->...abf", p_abe, rows))


def map_batch(entries):
    """Maps per kernel call on |A|*|B|*|F| = ``entries``: at most SWEEP_BATCH * 20 map entries, at least 4 maps."""
    return max(4, min(SWEEP_BATCH, SWEEP_BATCH * 20 // entries))


def sweep_deterministic_maps(p_abe, n_f):
    """Minimum of I(A:B|F) over all deterministic maps e -> f.

    Enumerates the n_f**n_e assignments in odometer order (e = 0 changes
    fastest), map_batch maps at a time, and returns (best value, best
    assignment); ties keep the first assignment in that order.
    """
    n_a, n_b, n_e = p_abe.shape
    n_maps = n_f**n_e
    batch = map_batch(n_a * n_b * n_f)
    place = n_f ** np.arange(n_e)
    best = np.inf
    best_index = 0
    for start in range(0, n_maps, batch):
        index = np.arange(start, min(start + batch, n_maps))
        maps = np.eye(n_f)[index[:, None] // place % n_f]
        values = cmi_after_map_bits(p_abe, maps)
        k = int(np.argmin(values))
        if values[k] < best:
            best = float(values[k])
            best_index = start + k
    return best, best_index // place % n_f
