"""Hot numeric kernels: dense simplex pivoting and one batched entropy sum.

All information kernels are compositions of
:func:`conditional_mutual_information_bits`, which evaluates I(A:B|F) for
any number of leading batch axes.  Probabilities below 1e-15 are pruned
from the sum to avoid log underflow; logarithms are base 2 throughout.
"""

import numpy as np

PROB_FLOOR = 1e-15

# one-hot maps evaluated per batch by the deterministic sweep; bounds the
# sweep's temporary arrays to a few hundred kB whatever |F|^|E| is
SWEEP_BATCH = 256

SIMPLEX_OPTIMAL = 0
SIMPLEX_ITERATION_LIMIT = 1
SIMPLEX_UNBOUNDED = 2


def simplex_maximize(A, b, c, tol, maxiter):
    """Maximize c.x subject to A x <= b, x >= 0, assuming b >= 0.

    Tableau simplex starting from the slack basis (feasible because b >= 0).
    Entering column by Dantzig's rule, switching to Bland's rule after
    50*(m+n) pivots to rule out cycling; leaving row by minimum ratio with
    smallest-basis-index tie break.

    Returns (status, objective, x).
    """
    m, n = A.shape
    width = n + m + 1
    T = np.zeros((m + 1, width))
    T[:m, :n] = A
    for i in range(m):
        T[i, n + i] = 1.0
    T[:m, width - 1] = b
    T[m, :n] = -c
    basis = np.arange(n, n + m)

    bland_after = 50 * (m + n)
    it = 0
    while it < maxiter:
        # entering column
        col = -1
        if it < bland_after:
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
            return SIMPLEX_OPTIMAL, T[m, width - 1], x

        # leaving row: minimum ratio test
        row = -1
        best_ratio = np.inf
        for i in range(m):
            a = T[i, col]
            if a > tol:
                ratio = T[i, width - 1] / a
                if ratio < best_ratio - 1e-12:
                    best_ratio = ratio
                    row = i
                elif ratio < best_ratio + 1e-12 and row >= 0 and basis[i] < basis[row]:
                    row = i
        if row < 0:
            return SIMPLEX_UNBOUNDED, 0.0, np.zeros(n)

        piv = T[row, col]
        T[row, :] /= piv
        for i in range(m + 1):
            if i != row:
                f = T[i, col]
                if f != 0.0:
                    T[i, :] -= f * T[row, :]
        basis[row] = col
        it += 1

    return SIMPLEX_ITERATION_LIMIT, 0.0, np.zeros(n)


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
    pa = p.sum(axis=-2, keepdims=True)
    pb = p.sum(axis=-3, keepdims=True)
    # p(f) sums the (a, b) entries in row-major order
    pf = p.reshape(*batch, na * nb, 1, nf).sum(axis=-3, keepdims=True)
    # p(f) >= p(a,b,f) for nonnegative tables, so the per-entry floor also
    # prunes every branch with p(f) <= PROB_FLOOR
    keep = p > PROB_FLOOR
    ratio = np.divide(p * pf, pa * pb, out=np.ones_like(p), where=keep)
    terms = np.where(keep, p * np.log2(ratio), 0.0)
    # left-to-right sum in (f, a, b) order: the value does not depend on the
    # batch shape, so a batched sweep and single calls agree bit for bit
    ordered = np.moveaxis(terms, -1, -3).reshape(*batch, nf * na * nb)
    total = np.cumsum(ordered, axis=-1)[..., -1]
    return total if batch else float(total)


def mutual_information_bits(p_ab):
    """I(A:B) in bits of a normalized joint table p_ab[a, b]."""
    return conditional_mutual_information_bits(np.asarray(p_ab, dtype=float)[..., None])


def cmi_after_map_bits(p_abe, rows):
    """I(A:B|F) after pushing e through the row-stochastic maps rows[..., e, f]."""
    # einsum sums over e in order, like infotheory.apply_map; np.matmul goes
    # through BLAS, whose fused multiply-adds move the last bit and with it
    # the minimizer's Nelder-Mead path
    return conditional_mutual_information_bits(np.einsum("abe,...ef->...abf", p_abe, rows))


def sweep_deterministic_maps(p_abe, n_f):
    """Minimum of I(A:B|F) over all deterministic maps e -> f.

    Enumerates the n_f**n_e assignments in odometer order (e = 0 changes
    fastest), SWEEP_BATCH maps at a time, and returns (best value, best
    assignment); ties keep the first assignment in that order.
    """
    n_e = p_abe.shape[2]
    n_maps = n_f**n_e
    place = n_f ** np.arange(n_e)
    best = np.inf
    best_index = 0
    for start in range(0, n_maps, SWEEP_BATCH):
        index = np.arange(start, min(start + SWEEP_BATCH, n_maps))
        maps = np.eye(n_f)[index[:, None] // place % n_f]
        values = cmi_after_map_bits(p_abe, maps)
        k = int(np.argmin(values))
        if values[k] < best:
            best = float(values[k])
            best_index = start + k
    return best, best_index // place % n_f
