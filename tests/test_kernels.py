"""Kernel-level tests: the batched entropy kernel must match the entropy
formula and agree between batched and single calls, the sweep must match
brute force, and the simplex must match brute-force answers on tiny
problems."""

import itertools
import math

import numpy as np

from ccbound import kernels


def test_simplex_known_optimum():
    # max x + y st x <= 1, y <= 2, x + y <= 2.5
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 2.5])
    c = np.ones(2)
    status, obj, x = kernels.simplex_maximize(A, b, c, 1e-11, 1000)
    assert status == kernels.SIMPLEX_OPTIMAL
    assert abs(obj - 2.5) < 1e-12
    assert abs(x.sum() - 2.5) < 1e-12
    assert np.all(A @ x <= b + 1e-12)


def test_simplex_degenerate_rhs():
    # zero right-hand side forces the optimum 0 with degenerate pivoting
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([0.0, 0.0])
    c = np.array([1.0, 0.0])
    status, obj, x = kernels.simplex_maximize(A, b, c, 1e-11, 1000)
    assert status == kernels.SIMPLEX_OPTIMAL
    assert abs(obj) < 1e-12


def test_simplex_unbounded_detected():
    A = np.array([[-1.0, 0.0]])
    b = np.array([0.0])
    c = np.array([1.0, 0.0])
    status, _, _ = kernels.simplex_maximize(A, b, c, 1e-11, 1000)
    assert status == kernels.SIMPLEX_UNBOUNDED


def test_simplex_random_vs_vertex_enumeration():
    # 2D problems solved exactly by checking all constraint intersections
    rng = np.random.default_rng(7)
    for _ in range(50):
        A = rng.uniform(0.1, 1.0, size=(4, 2))
        b = rng.uniform(0.5, 2.0, size=4)
        c = rng.uniform(0.1, 1.0, size=2)
        status, obj, x = kernels.simplex_maximize(A, b, c, 1e-11, 1000)
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
