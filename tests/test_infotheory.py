"""Information measures and the relabelling minimizer."""

import math

import numpy as np
import pytest

from ccbound.correlations import Correlation, CorrelationError, Scenario
from ccbound.infotheory import (
    DistributionError,
    JointDistribution,
    StochasticMap,
    apply_map,
    conditional_mutual_information,
    load_distribution,
    minimize_intrinsic,
    mutual_information,
)

RNG = np.random.default_rng(99)


def random_joint(shape, rng=RNG):
    return JointDistribution(rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape))


def random_map(n_e, n_f, rng=RNG):
    return StochasticMap(rng.dirichlet(np.ones(n_f), size=n_e))


# ------------------------------------------------------------- basic objects


def test_joint_distribution_validation():
    with pytest.raises(DistributionError):
        JointDistribution(np.full((2, 2), 0.25))  # rank 2
    with pytest.raises(DistributionError):
        JointDistribution(np.full((2, 2, 2), 0.2))  # sums to 1.6
    bad = np.full((2, 2, 2), 0.125)
    bad[0, 0, 0] = -0.125
    bad[1, 1, 1] = 0.375
    with pytest.raises(DistributionError):
        JointDistribution(bad)


def test_stochastic_map_validation():
    with pytest.raises(DistributionError):
        StochasticMap(np.array([[0.5, 0.4], [0.5, 0.5]]))  # row sum 0.9
    with pytest.raises(DistributionError):
        StochasticMap(np.full((2, 3), 1 / 3))  # |F| > |E|
    ident = StochasticMap.identity(4)
    assert np.array_equal(ident.rows, np.eye(4))


def _correlation_with(bad):
    table = np.full((2, 2, 1, 1), 0.25)
    table[0, 0, 0, 0] = bad
    return Correlation(Scenario(1, 1, 2, 2), table)


def _joint_with(bad):
    p = np.full((2, 2, 2), 0.125)
    p[0, 0, 0] = bad
    return JointDistribution(p)


def _map_with(bad):
    rows = np.eye(2)
    rows[0, 0] = bad
    return StochasticMap(rows)


def _mutual_information_with(bad):
    p = np.full((2, 2), 0.25)
    p[0, 0] = bad
    return mutual_information(p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build", [_correlation_with, _joint_with, _map_with, _mutual_information_with]
)
def test_non_finite_entries_rejected(build, bad):
    with pytest.raises((CorrelationError, DistributionError)):
        build(bad)


def test_json_round_trip(tmp_path):
    dist = random_joint((2, 3, 4))
    path = tmp_path / "dist.json"
    path.write_text(__import__("json").dumps(dist.to_json_dict()))
    loaded = load_distribution(path)
    assert np.abs(loaded.p - dist.p).max() == 0.0
    path.write_text('{"alphabets": [2, 2, 2], "p": [[0.5, 0.5]]}')
    with pytest.raises(DistributionError):
        load_distribution(path)


# --------------------------------------------------------- mutual information


def test_mutual_information_correlated_bit():
    assert mutual_information([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_independent():
    assert mutual_information(np.full((2, 2), 0.25)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_attack_branch_oracle():
    # the hidden-branch conditional of the pi/4 protocol attack at v = 0.9:
    # diagonal (1-q)/(2Z), off-diagonal q(1-s)/(2Z), evaluated by a direct
    # four-term sum
    v_l = 1 / math.sqrt(2)
    q = (1 - 0.9) / (1 - v_l)
    s = (1 + v_l) / 2
    z = 1 - q * s
    d = (1 - q) / (2 * z)
    o = q * (1 - s) / (2 * z)
    oracle = 2 * d * math.log2(4 * d) + 2 * o * math.log2(4 * o)
    assert oracle == pytest.approx(0.6319758804930915, abs=1e-12)
    assert mutual_information([[d, o], [o, d]]) == pytest.approx(oracle, abs=1e-12)


def test_mutual_information_bounds_random():
    for _ in range(20):
        dist = random_joint((3, 4, 2))
        value = mutual_information(dist.marginal_ab())
        assert -1e-12 <= value <= math.log2(3) + 1e-12


def test_mutual_information_rejects_invalid():
    with pytest.raises(DistributionError):
        mutual_information([[0.7, 0.4], [0.1, 0.1]])


# ------------------------------------------------------------------ mappings


def test_apply_identity_map():
    dist = random_joint((2, 2, 4))
    mapped = apply_map(dist, StochasticMap.identity(4))
    assert np.abs(mapped.p - dist.p).max() < 1e-15


def test_apply_constant_map_erases_information():
    dist = random_joint((2, 3, 4))
    mapped = apply_map(dist, StochasticMap.constant(4))
    assert conditional_mutual_information(mapped) == pytest.approx(
        mutual_information(dist.marginal_ab()), abs=1e-12
    )


def test_apply_map_preserves_mass_and_checks_shapes():
    dist = random_joint((2, 2, 3))
    mapped = apply_map(dist, random_map(3, 3))
    assert mapped.p.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DistributionError):
        apply_map(dist, StochasticMap.identity(4))


# --------------------------------------------------- conditional information


def test_cmi_zero_when_f_copies_outcomes():
    p = np.zeros((2, 2, 4))
    joint = RNG.dirichlet(np.ones(4)).reshape(2, 2)
    for a in (0, 1):
        for b in (0, 1):
            p[a, b, 2 * a + b] = joint[a, b]
    assert conditional_mutual_information(JointDistribution(p)) == pytest.approx(0.0, abs=1e-14)


def test_cmi_constant_f_equals_mi():
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 0.5
    p[1, 1, 0] = 0.5
    assert conditional_mutual_information(JointDistribution(p)) == pytest.approx(1.0, abs=1e-12)


def test_cmi_independent_side_information():
    dist = random_joint((2, 3, 1))
    base = mutual_information(dist.marginal_ab())
    widened = JointDistribution(np.repeat(dist.p, 3, axis=2) / 3.0)
    assert conditional_mutual_information(widened) == pytest.approx(base, abs=1e-12)


def test_information_invariant_under_relabelling():
    dist = random_joint((3, 3, 4))
    base_mi = mutual_information(dist.marginal_ab())
    base_cmi = conditional_mutual_information(dist)
    perm_a = RNG.permutation(3)
    perm_b = RNG.permutation(3)
    perm_e = RNG.permutation(4)
    permuted = JointDistribution(dist.p[np.ix_(perm_a, perm_b, perm_e)])
    assert mutual_information(permuted.marginal_ab()) == pytest.approx(base_mi, abs=1e-12)
    assert conditional_mutual_information(permuted) == pytest.approx(base_cmi, abs=1e-12)


def test_cmi_nonnegative_and_bounded():
    for _ in range(20):
        dist = random_joint((2, 4, 3))
        value = conditional_mutual_information(dist)
        assert -1e-12 <= value <= 1.0 + 1e-12  # log2 min(2, 4) = 1


# ------------------------------------------------------------------ minimizer


def test_minimizer_independent_side_information_returns_mi():
    pab = np.array([[0.4, 0.1], [0.1, 0.4]])
    p = np.einsum("ab,e->abe", pab, np.full(3, 1 / 3))
    result = minimize_intrinsic(JointDistribution(p), restarts=4, seed=0)
    assert result.bound == pytest.approx(mutual_information(pab), abs=1e-9)


def test_minimizer_exact_copy_reaches_zero():
    p = np.zeros((2, 2, 4))
    p[0, 0, 0] = p[1, 1, 3] = 0.45
    p[0, 1, 1] = p[1, 0, 2] = 0.05
    result = minimize_intrinsic(JointDistribution(p), restarts=2, seed=0)
    assert result.bound <= 1e-12


def test_minimizer_never_beaten_by_sampled_maps():
    dist = random_joint((2, 2, 3))
    result = minimize_intrinsic(dist, restarts=6, seed=1)
    for _ in range(20):
        sampled = conditional_mutual_information(apply_map(dist, random_map(3, 3)))
        assert result.bound <= sampled + 1e-9
    identity_value = conditional_mutual_information(dist)
    assert result.bound <= identity_value + 1e-12


def test_minimizer_returns_valid_map():
    dist = random_joint((2, 2, 4))
    result = minimize_intrinsic(dist, restarts=2, seed=3)
    rows = result.map.rows
    assert rows.shape == (4, 4)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    assert conditional_mutual_information(apply_map(dist, result.map)) == pytest.approx(
        result.bound, abs=1e-9
    )


def test_minimizer_reproducible():
    dist = random_joint((2, 2, 4))
    a = minimize_intrinsic(dist, restarts=3, seed=7)
    b = minimize_intrinsic(dist, restarts=3, seed=7)
    assert a.bound == b.bound
    assert np.array_equal(a.map.rows, b.map.rows)


def test_sweep_guard_raises_when_requested():
    # 9 symbols: 9^9 deterministic maps exceed the guard
    dist = random_joint((2, 2, 9))
    with pytest.raises(DistributionError):
        minimize_intrinsic(dist, restarts=0, deterministic_sweep=True)
    # auto mode skips the sweep silently
    result = minimize_intrinsic(dist, restarts=1, seed=0)
    assert result.bound >= 0.0
