"""Information measures and the relabelling minimizer."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from ccbound import attack, infotheory, kernels
from ccbound._jsondoc import ATOL
from ccbound.correlations import Correlation, CorrelationError, Scenario
from ccbound.infotheory import (
    DistributionError,
    JointDistribution,
    MinimizerError,
    StochasticMap,
    load_distribution,
    minimize_intrinsic,
    mutual_information,
)
from test_kernels import cmi_by_entropies

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


SUM_MESSAGE = "probabilities must sum to 1 within 1e-12; worst deviation "


@pytest.mark.parametrize(
    "bad, message",
    [
        (math.nan, "^negative or NaN probability entry: min = nan$"),
        (math.inf, f"^{SUM_MESSAGE}inf$"),
        (0.5, rf"^{SUM_MESSAGE}0\.[0-9]+$"),  # every kind's sum is off by 1/4 to 1/2
        (1.5, rf"^{SUM_MESSAGE}[01]\.[0-9]+$"),  # a map entry above 1 too
    ],
    ids=["nan", "inf", "sum-below-1", "entry-above-1"],
)
@pytest.mark.parametrize(
    "build", [_correlation_with, _joint_with, _map_with, _mutual_information_with]
)
def test_every_probability_table_gives_one_diagnostic(build, bad, message):
    with pytest.raises((CorrelationError, DistributionError), match=message):
        build(bad)


def test_map_entries_above_one_are_rejected():
    with pytest.raises(DistributionError, match="^negative or NaN probability entry: min = -0.5$"):
        StochasticMap([[1.5, -0.5], [0.0, 1.0]])
    with pytest.raises(DistributionError, match=f"^{SUM_MESSAGE}0.5$"):
        StochasticMap([[1.5, 0.0], [0.0, 1.0]])
    # an entry above 1 by less than the rows' 1e-12 slack is rounding
    assert StochasticMap([[1.0 + 5e-13, 0.0], [0.0, 1.0]]).rows[0, 0] > 1.0


@pytest.mark.parametrize("shape", [(0, 0), (0, 2), (3, 0)])
def test_a_map_without_input_symbols_or_rows_is_refused(shape):
    # a 0x0 map has no row sum to fail; the other two fail as before
    message = {
        (0, 0): r"^a map needs at least one input symbol, got shape \(0, 0\)$",
        (0, 2): "^output alphabet 2 exceeds input alphabet 0$",
        (3, 0): f"^{SUM_MESSAGE}1.0$",
    }[shape]
    with pytest.raises(DistributionError, match=message):
        StochasticMap(np.zeros(shape))


def _sum_rule_oracle(arr, sum_axes):
    """The diagnostic of the table rule written with the array methods, or
    None for a valid table: every entry >= 0, every sum within ATOL of 1."""
    if not (arr >= 0).all():
        return f"negative or NaN probability entry: min = {float(arr.min())!r}"
    deviation = abs(arr.sum(axis=sum_axes) - 1.0)
    if (deviation > ATOL).any():
        return f"probabilities must sum to 1 within {ATOL}; worst deviation {float(deviation.max())!r}"
    return None


# each kind of table: a seeded valid table, its sum axes, its error and its constructor
_TABLE_KINDS = {
    "correlation": (
        lambda rng: np.moveaxis(rng.dirichlet(np.ones(4), size=(2, 3)), -1, 0).reshape(2, 2, 2, 3),
        (0, 1),
        CorrelationError,
        lambda arr: Correlation(Scenario(2, 3, 2, 2), arr),
    ),
    "joint": (lambda rng: rng.dirichlet(np.ones(12)).reshape(2, 2, 3), None, DistributionError, JointDistribution),
    "map": (lambda rng: rng.dirichlet(np.ones(3), size=4), 1, DistributionError, StochasticMap),
    "bipartite": (lambda rng: rng.dirichlet(np.ones(6)).reshape(2, 3), None, DistributionError, mutual_information),
}


def _oracle_cases():
    for kind, (draw, axes, _, _) in _TABLE_KINDS.items():
        rng = np.random.default_rng(len(kind))
        for k in range(-8, 9):
            table = draw(rng)
            sums = table.sum(axis=axes, keepdims=axes is not None)
            yield pytest.param(kind, table / sums * (1.0 + k * ATOL / 4), id=f"{kind}-sum{k:+d}")
        for name, entry in [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                            ("-0.0", -0.0), ("-1e-300", -1e-300)]:
            # the entry replaces a zero of an otherwise valid table
            table = draw(rng)
            i = np.unravel_index(int(rng.integers(table.size)), table.shape)
            table[i] = 0.0
            table /= table.sum(axis=axes, keepdims=axes is not None)
            table[i] = entry
            yield pytest.param(kind, table, id=f"{kind}-{name}")
    yield pytest.param("map", np.zeros((3, 0)), id="map-3x0")
    yield pytest.param("joint", np.zeros((0, 2, 2)), id="joint-0x2x2")
    yield pytest.param("bipartite", np.zeros((0, 2)), id="bipartite-0x2")


@pytest.mark.parametrize("kind, table", _oracle_cases())
def test_probability_tables_follow_the_method_oracle(kind, table):
    # the same verdict, exception type and message as the rule written out
    # with the array methods: at sums 1 + k ATOL/4 for k in -8..8, on either
    # side of the ATOL edge, with one bad entry, and on empty tables
    _, axes, error, build = _TABLE_KINDS[kind]
    expected = _sum_rule_oracle(table, axes)
    if expected is None:
        build(table)
    else:
        with pytest.raises(error) as excinfo:
            build(table)
        assert type(excinfo.value) is error and str(excinfo.value) == expected


def test_tables_are_read_only_copies():
    table = np.full((2, 2, 1, 1), 0.25)
    p = np.full((2, 2, 2), 0.125)
    rows = np.eye(2)
    stored = [Correlation(Scenario(1, 1, 2, 2), table).table, JointDistribution(p).p, StochasticMap(rows).rows]
    assert all(arr.flags.writeable for arr in (table, p, rows))
    assert not any(arr.flags.writeable for arr in stored)


@pytest.mark.parametrize(
    "build",
    [
        lambda: JointDistribution(np.full((2, 2, 2), math.nan)),
        lambda: Correlation(Scenario(1, 1, 2, 2), np.full((2, 2, 1, 1), math.nan)),
        lambda: Correlation(Scenario(1, 1, 2, 2), np.full((2, 2, 1, 1), 0.3)),
        lambda: StochasticMap(np.array([[0.5, 0.4], [0.5, 0.5]])),
    ],
)
def test_diagnostics_print_plain_floats(build):
    with pytest.raises((CorrelationError, DistributionError)) as excinfo:
        build()
    message = str(excinfo.value)
    assert "np." not in message and "array(" not in message


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
        value = mutual_information(dist.p.sum(axis=2))
        assert -1e-12 <= value <= math.log2(3) + 1e-12


def test_mutual_information_rejects_invalid():
    with pytest.raises(DistributionError):
        mutual_information([[0.7, 0.4], [0.1, 0.1]])


# ------------------------------------------------------------------ mappings


def test_apply_constant_map_erases_information():
    dist = random_joint((2, 3, 4))
    assert kernels.cmi_after_map_bits(dist.p, np.eye(4)[[0, 0, 0, 0]]) == pytest.approx(
        mutual_information(dist.p.sum(axis=2)), abs=1e-12
    )


# --------------------------------------------------- conditional information


def test_cmi_zero_when_f_copies_outcomes():
    p = np.zeros((2, 2, 4))
    joint = RNG.dirichlet(np.ones(4)).reshape(2, 2)
    for a in (0, 1):
        for b in (0, 1):
            p[a, b, 2 * a + b] = joint[a, b]
    assert kernels.conditional_mutual_information_bits(p) == pytest.approx(0.0, abs=1e-14)


def test_cmi_constant_f_equals_mi():
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 0.5
    p[1, 1, 0] = 0.5
    assert kernels.conditional_mutual_information_bits(p) == pytest.approx(1.0, abs=1e-12)


def test_cmi_independent_side_information():
    dist = random_joint((2, 3, 1))
    base = mutual_information(dist.p.sum(axis=2))
    widened = np.repeat(dist.p, 3, axis=2) / 3.0
    assert kernels.conditional_mutual_information_bits(widened) == pytest.approx(base, abs=1e-12)


def test_information_invariant_under_relabelling():
    dist = random_joint((3, 3, 4))
    base_mi = mutual_information(dist.p.sum(axis=2))
    base_cmi = kernels.conditional_mutual_information_bits(dist.p)
    perm_a = RNG.permutation(3)
    perm_b = RNG.permutation(3)
    perm_e = RNG.permutation(4)
    permuted = JointDistribution(dist.p[np.ix_(perm_a, perm_b, perm_e)])
    assert mutual_information(permuted.p.sum(axis=2)) == pytest.approx(base_mi, abs=1e-12)
    assert kernels.conditional_mutual_information_bits(permuted.p) == pytest.approx(base_cmi, abs=1e-12)


def test_cmi_nonnegative_and_bounded():
    for _ in range(20):
        dist = random_joint((2, 4, 3))
        value = kernels.conditional_mutual_information_bits(dist.p)
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


def _pushed(dist, rows):
    """p(a, b, f) = sum_e p(a, b, e) rows[e, f], summed in a loop over e."""
    return sum(dist.p[:, :, e, None] * rows[e] for e in range(rows.shape[0]))


def test_minimizer_never_beaten_by_sampled_maps():
    # the sampled maps' values come from the entropy formula, not the kernel
    dist = random_joint((2, 2, 3))
    result = minimize_intrinsic(dist, restarts=6, seed=1)
    for _ in range(20):
        sampled = cmi_by_entropies(_pushed(dist, random_map(3, 3).rows))
        assert result.bound <= sampled + 1e-9
    assert result.bound <= cmi_by_entropies(dist.p) + 1e-12


def test_minimizer_returns_valid_map():
    dist = random_joint((2, 2, 4))
    result = minimize_intrinsic(dist, restarts=2, seed=3)
    rows = result.map.rows
    assert rows.shape == (4, 4)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    assert abs(cmi_by_entropies(_pushed(dist, rows)) - result.bound) <= 1e-9


def test_minimizer_reproducible():
    dist = random_joint((2, 2, 4))
    a = minimize_intrinsic(dist, restarts=3, seed=7)
    b = minimize_intrinsic(dist, restarts=3, seed=7)
    assert a.bound == b.bound
    assert np.array_equal(a.map.rows, b.map.rows)


def test_sweep_guard_skips_the_sweep():
    # 9 symbols: 9^9 deterministic maps exceed the guard, so the sweep is
    # skipped silently and only the descent runs
    dist = random_joint((2, 2, 9))
    result = minimize_intrinsic(dist, restarts=1, seed=0)
    assert result.bound >= 0.0
    assert result.record.maps < 9**9


def test_minimizer_rejects_negative_restarts():
    dist = random_joint((2, 2, 3), np.random.default_rng(8))
    with pytest.raises(ValueError, match="restarts must be >= 0, got -3"):
        minimize_intrinsic(dist, restarts=-3, seed=0)
    assert minimize_intrinsic(dist, restarts=0, seed=0).record.starts == 1


@pytest.mark.parametrize("name, value", [("restarts", 1.5), ("restarts", True), ("seed", 0.5), ("seed", False)])
def test_minimizer_rejects_counts_that_are_not_integers(name, value):
    # range(1.5) and numpy's seeding would raise their own errors, and True would run one restart
    dist = random_joint((2, 2, 3), np.random.default_rng(8))
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        minimize_intrinsic(dist, **{name: value})


def test_minimizer_takes_numpy_integer_counts():
    dist = random_joint((2, 2, 3), np.random.default_rng(8))
    result = minimize_intrinsic(dist, restarts=np.int64(2), seed=np.uint8(3))
    expected = minimize_intrinsic(dist, restarts=2, seed=3)
    assert result.bound == expected.bound and np.array_equal(result.map.rows, expected.map.rows)


@pytest.mark.parametrize("restarts", [0, 2])
def test_minimizer_rejects_negative_seed(restarts):
    dist = random_joint((2, 2, 3), np.random.default_rng(8))
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        minimize_intrinsic(dist, restarts=restarts, seed=-1)


def test_minimizer_rejects_an_alphabet_too_large_for_nelder_mead():
    # |E| = 20 would need a gather table and one block of lanes of
    # 11,017,620 entries; the check comes before anything is built
    dist = JointDistribution(np.full((2, 2, 20), 1 / 80))
    with pytest.raises(ValueError, match="^[|]E[|] = 20 needs 11017620 Nelder-Mead entries, above the guard of 10000000$"):
        minimize_intrinsic(dist, restarts=0)


def test_minimizer_runs_on_three_outcome_attack_alphabets():
    # three outcomes per side give |E| = 10, far inside the guard
    dist = random_joint((3, 3, 10), np.random.default_rng(4))
    result = minimize_intrinsic(dist, restarts=0)
    assert result.map.rows.shape == (10, 10) and result.record.starts == 1


def _self_check_inputs():
    """The three criterion-7 inputs (attack, independent, copy), then three
    random 2x2x5 inputs."""
    yield attack.tripartite(attack.cc_chsh(math.pi / 4, 0.72), 0, 2)
    pab = np.array([[0.4, 0.1], [0.2, 0.3]])
    yield JointDistribution(np.einsum("ab,e->abe", pab, np.full(4, 0.25)))
    copy = np.zeros((2, 2, 4))
    copy[0, 0, 0], copy[0, 1, 1], copy[1, 0, 2], copy[1, 1, 3] = pab.ravel()
    yield JointDistribution(copy)
    rng = np.random.default_rng(2021)
    for _ in range(3):
        yield random_joint((2, 2, 5), rng)


def test_minimizer_bound_is_the_value_of_its_map():
    # the bound equals I(A:B|F) recomputed from the returned map, bit for
    # bit after the <= 0 clamp, whichever start won
    for dist in _self_check_inputs():
        result = minimize_intrinsic(dist, restarts=1, seed=0)
        value = kernels.cmi_after_map_bits(dist.p, result.map.rows)
        assert result.bound == max(float(value), 0.0)


def test_minimizer_self_check_raises_on_mismatch(monkeypatch):
    # a kernel that answers differently for the returned (read-only) map
    # than during the search must trip the check
    evaluate = kernels.cmi_after_map_bits

    def drifting(p, rows):
        value = evaluate(p, rows)
        return value if np.asarray(rows).flags.writeable else value + 1e-9

    monkeypatch.setattr(kernels, "cmi_after_map_bits", drifting)
    with pytest.raises(MinimizerError, match="recomputed from the returned map"):
        minimize_intrinsic(random_joint((2, 2, 3), np.random.default_rng(5)), restarts=1, seed=0)


@pytest.mark.parametrize(
    "alphabets", [[2, 2, 1.9], [2, 2, 2.0], [2, True, 2], [2, 2, "2"], [2, 2, None], "222"]
)
def test_json_alphabets_must_be_integers(alphabets):
    doc = JointDistribution(np.full((2, 2, 2), 0.125)).to_json_dict()
    doc["alphabets"] = alphabets
    with pytest.raises(DistributionError, match="alphabet size must be a JSON integer"):
        JointDistribution.from_json_dict(doc)


@pytest.mark.parametrize("entry", ["0.125", True, None, {}])
def test_json_entries_must_be_numbers(entry):
    doc = JointDistribution(np.full((2, 2, 2), 0.125)).to_json_dict()
    doc["p"][1][0][1] = entry
    with pytest.raises(DistributionError, match="p entries must be JSON numbers"):
        JointDistribution.from_json_dict(doc)


# ------------------------------------------- lockstep Nelder-Mead against one start


def _reference_rows(z, shape):
    """The single-start parameterization: squares of z, normalized per row."""
    sq = (z * z).reshape(shape)
    sums = sq.sum(axis=1, keepdims=True)
    uniform = np.full(shape[1], 1.0 / shape[1])
    return np.where(sums > 1e-300, sq / np.where(sums > 1e-300, sums, 1.0), uniform)


def _reference_nelder_mead(fn, x0, max_iter=4000, fatol=1e-13, xatol=1e-10, initial_step=0.25):
    """The one-start Nelder-Mead loop, one scalar ``fn`` call per point; it
    also returns the iterations run and the shrinks taken."""
    n = x0.shape[0]
    alpha = 1.0
    beta = 1.0 + 2.0 / n
    gamma = 0.75 - 0.5 / n
    delta = 1.0 - 1.0 / n

    simplex = np.repeat(x0[None, :], n + 1, axis=0)
    for i in range(n):
        simplex[i + 1, i] += initial_step if simplex[i + 1, i] >= 0 else -initial_step
    values = np.array([fn(x) for x in simplex])

    iterations = max_iter
    shrinks = 0
    for it in range(max_iter):
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        if values[-1] - values[0] <= fatol or np.abs(simplex[1:] - simplex[0]).max() <= xatol:
            iterations = it
            break

        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + alpha * (centroid - simplex[-1])
        f_reflected = fn(reflected)
        if f_reflected < values[0]:
            expanded = centroid + beta * (reflected - centroid)
            f_expanded = fn(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + gamma * (reflected - centroid)
            else:
                contracted = centroid - gamma * (centroid - simplex[-1])
            f_contracted = fn(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                simplex[1:] = simplex[0] + delta * (simplex[1:] - simplex[0])
                values[1:] = [fn(x) for x in simplex[1:]]
                shrinks += 1

    best = int(np.argmin(values))
    return simplex[best], float(values[best]), iterations, shrinks


def _starts(p, restarts, seed=0):
    """minimize_intrinsic's descent starts from the identity map."""
    n_e = p.shape[2]
    starts = [np.sqrt(np.eye(n_e) + 0.05).ravel()]
    for i in range(restarts):
        starts.append(np.random.default_rng([seed, i]).normal(0.0, 1.0, size=n_e * n_e))
    return np.array(starts)


def _objectives(p):
    """The minimizer's objective on batches of points and on one point."""
    shape = (p.shape[2], p.shape[2])
    return (
        lambda z: kernels.cmi_after_map_bits(p, infotheory._rows_from_squares(z, shape)),
        lambda z: float(kernels.cmi_after_map_bits(p, _reference_rows(z, shape))),
    )


def _compare_lockstep(objectives, starts, **options):
    """Run both loops from every start; the points, values and iterations
    must agree bit for bit.  Returns the reference runs."""
    batched, single = objectives
    points, values, iterations = infotheory._nelder_mead(batched, starts, **options)
    runs = []
    for k, z0 in enumerate(starts):
        run = _reference_nelder_mead(single, z0.copy(), **options)
        assert points[k].tobytes() == run[0].tobytes(), f"start {k}"
        assert values[k] == run[1] and iterations[k] == run[2], f"start {k}"
        runs.append(run)
    return runs


def _random_table(shape, seed):
    """A random table with about 30% zero entries."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    p[rng.random(shape) < 0.3] = 0.0
    return p / p.sum()


def test_lockstep_matches_single_start_on_attack_inputs():
    rng = np.random.default_rng(7)
    for _ in range(2):
        theta = float(rng.uniform(math.pi / 12, 5 * math.pi / 12))
        v = float(rng.uniform(0.72, 0.95))
        p = attack.tripartite(attack.cc_chsh(theta, v), 0, 2).p
        _compare_lockstep(_objectives(p), _starts(p, 0))


@pytest.mark.parametrize("shape, seed", [((2, 2, 3), 1), ((3, 3, 3), 0), ((3, 3, 3), 1)])
def test_lockstep_matches_single_start_on_random_tables(shape, seed):
    # seed 0's 2x2x3 table is the next test's
    p = _random_table(shape, seed)
    _compare_lockstep(_objectives(p), _starts(p, 3))


def test_lockstep_shrinks_and_stops_apart_like_single_starts():
    # seed 0's 2x2x3 table: two of its four starts shrink, and the starts stop
    # at four different iterations
    p = _random_table((2, 2, 3), 0)
    runs = _compare_lockstep(_objectives(p), _starts(p, 3))
    assert sum(run[3] > 0 for run in runs) == 2
    assert len({run[2] for run in runs}) == 4


def test_lockstep_matches_single_start_at_the_xatol_test():
    # with fatol = 0 only the simplex's size stops a start; sum sqrt|z - c|
    # has a cusp at its minimum, so the values stay apart while it shrinks
    center = np.array([0.3, -1.2])
    batched = lambda z: np.add.reduce(np.sqrt(np.abs(z - center)), axis=-1)
    single = lambda z: float(batched(z[None])[0])
    starts = np.random.default_rng(4).normal(size=(4, 2))
    runs = _compare_lockstep((batched, single), starts, fatol=0.0)
    assert all(run[2] < 4000 for run in runs)


def test_lockstep_matches_single_start_when_iterations_run_out():
    p = _random_table((2, 2, 3), 0)
    runs = _compare_lockstep(_objectives(p), _starts(p, 3), max_iter=50)
    assert all(run[2] == 50 for run in runs)


def _reference_minimize(p, restarts, seed=0):
    """minimize_intrinsic with one single-start loop per start: the identity,
    the sweep, then each start in order, taking a new best only below
    best - 1e-15.  Returns (bound, rows, winner, iterations)."""
    n = p.shape[2]
    best_rows = np.eye(n)
    best = float(kernels.cmi_after_map_bits(p, best_rows))
    winner = "identity"
    sweep_best, assign = kernels.sweep_deterministic_maps(p, n)
    if sweep_best < best:
        best, best_rows, winner = float(sweep_best), np.eye(n)[assign], "sweep"
    starts = _starts(p, restarts, seed)
    starts[0] = np.sqrt(best_rows + 0.05).ravel()
    iterations = []
    for i, z0 in enumerate(starts):
        fn = lambda z: float(kernels.cmi_after_map_bits(p, _reference_rows(z, (n, n))))
        z_opt, value, steps, _ = _reference_nelder_mead(fn, z0.copy())
        iterations.append(steps)
        if value < best - 1e-15:
            best, best_rows = value, _reference_rows(z_opt, (n, n))
            winner = f"restart {i - 1}" if i else "polish"
    return max(best, 0.0), best_rows, winner, tuple(iterations)


def test_minimizer_runs_more_starts_than_one_block_like_single_starts():
    # 71 starts: one block of SWEEP_BATCH // 4 = 64 lanes, then one of 7
    p = _random_table((2, 2, 2), 3)
    result = minimize_intrinsic(JointDistribution(p), restarts=70, seed=0)
    bound, rows, winner, iterations = _reference_minimize(p, 70)
    assert result.bound == bound and result.map.rows.tobytes() == rows.tobytes()
    assert result.record.winner == winner
    assert result.record.iterations == iterations
    assert (result.record.starts, result.record.lanes) == (71, kernels.SWEEP_BATCH // 4)


def test_minimizer_builds_each_block_of_starts_when_it_runs(monkeypatch):
    # with Nelder-Mead stubbed, 3,001 starts held at once would take the
    # traced peak from about 0.36 MB at restarts 64 to 1.7 MB; built block by
    # block, the peak stays that of the sweep
    dist = list(_self_check_inputs())[0]
    monkeypatch.setattr(infotheory, "_nelder_mead", lambda fn, starts: (starts, [math.inf] * len(starts), [0] * len(starts)))
    minimize_intrinsic(dist, restarts=4)
    peaks = []
    for restarts in (64, 3000):
        tracemalloc.start()
        try:
            result = minimize_intrinsic(dist, restarts=restarts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.record.starts == restarts + 1 == len(result.record.iterations)
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize(
    "index, restarts, winner", [(0, 32, "restart 12"), (1, 8, "sweep"), (2, 8, "identity")]
)
def test_minimizer_record_on_criterion_7_inputs(monkeypatch, index, restarts, winner):
    # the record's counts equal those of a wrapped kernel, and the winner is
    # the candidate whose map is returned.  The copy input's identity value
    # is 0.0, which no candidate can lower, so it stops before Nelder-Mead
    dist = list(_self_check_inputs())[index]
    evaluate = kernels.cmi_after_map_bits
    seen = {"calls": 0, "maps": 0}

    def counted(p, rows):
        seen["calls"] += 1
        seen["maps"] += int(np.prod(np.shape(rows)[:-2]))
        return evaluate(p, rows)

    monkeypatch.setattr(kernels, "cmi_after_map_bits", counted)
    result = minimize_intrinsic(dist, restarts=restarts, seed=0)
    record = result.record
    assert (record.calls, record.maps) == (seen["calls"], seen["maps"])
    if winner == "identity":
        assert (record.starts, record.lanes, record.iterations, record.calls) == (0, 0, (), 2)
    else:
        assert record.starts == restarts + 1 == record.lanes == len(record.iterations)
    assert record.winner == winner
    n = dist.p.shape[2]
    if winner == "identity":
        assert np.array_equal(result.map.rows, np.eye(n))
    elif winner == "sweep":
        assert set(result.map.rows.ravel().tolist()) <= {0.0, 1.0}


# ---------------------------------------------------------- stop at a zero bound


def _copy_input(seed):
    """A seeded 2x2x4 input whose E copies the pair (a, b): I(A:B|E) = 0."""
    p = np.zeros((2, 2, 4))
    p.reshape(4, 4)[np.arange(4), np.arange(4)] = np.random.default_rng([41, seed]).dirichlet(np.ones(4))
    return JointDistribution(p)


@pytest.mark.parametrize("seed", range(12))
def test_minimizer_stops_at_the_identity_of_a_copy_input(monkeypatch, seed):
    # the identity gives 0.0 on a copy input.  Nelder-Mead from the 33 starts
    # of restarts 32 never gets below -1e-15, the margin a start must beat
    # the best by, so it could not replace the identity, and it no longer runs
    dist = _copy_input(seed)
    assert kernels.cmi_after_map_bits(dist.p, np.eye(4)) == 0.0
    _, values, _ = infotheory._nelder_mead(_objectives(dist.p)[0], _starts(dist.p, 32))
    assert min(values) >= -1e-15

    def fail(*args):
        raise AssertionError("Nelder-Mead ran after a zero bound")

    monkeypatch.setattr(infotheory, "_nelder_mead", fail)
    result = minimize_intrinsic(dist, restarts=32, seed=0)
    assert result.bound == 0.0 and np.array_equal(result.map.rows, np.eye(4))
    assert result.record == infotheory.MinimizerRecord(0, 0, (), 2, 2, "identity")


def _conditionally_independent(seed):
    """p(e) p(a|e) p(b|e) over three symbols of E, from a seeded draw."""
    rng = np.random.default_rng([seed, 3])
    p_e = rng.dirichlet(np.ones(3))
    p_a, p_b = rng.dirichlet(np.ones(2), size=3), rng.dirichlet(np.ones(2), size=3)
    return np.einsum("e,ea,eb->abe", p_e, p_a, p_b)


def test_minimizer_stops_at_an_identity_value_below_zero():
    # A and B are independent given E, and the identity's rounded value is
    # below 0: the bound is 0.0 from the identity, without the sweep
    p = _conditionally_independent(0)
    assert kernels.cmi_after_map_bits(p, np.eye(3)) < 0.0
    result = minimize_intrinsic(JointDistribution(p), restarts=4, seed=0)
    assert result.bound == 0.0 and np.array_equal(result.map.rows, np.eye(3))
    assert result.record == infotheory.MinimizerRecord(0, 0, (), 2, 2, "identity")


def test_minimizer_stops_at_a_sweep_value_below_zero():
    # E's symbols 0 and 1 hide a correlated and an anticorrelated bit of
    # equal weight, so the identity's value is positive; merging them leaves
    # the seeded conditionally independent rest, whose rounded sweep value
    # is below 0: the bound is 0.0 from the sweep, without Nelder-Mead
    rng = np.random.default_rng([0, 7])
    w = rng.uniform(0.1, 0.4)
    p = np.zeros((2, 2, 4))
    p[:, :, 0] = np.eye(2) * w / 2
    p[:, :, 1] = (1 - np.eye(2)) * w / 2
    p_e = rng.dirichlet(np.ones(2)) * (1 - 2 * w)
    p_a, p_b = rng.dirichlet(np.ones(2), size=2), rng.dirichlet(np.ones(2), size=2)
    p[:, :, 2:] = np.einsum("e,ea,eb->abe", p_e, p_a, p_b)
    sweep_best, assign = kernels.sweep_deterministic_maps(p, 4)
    assert kernels.cmi_after_map_bits(p, np.eye(4)) > 0.1 and sweep_best < 0.0
    result = minimize_intrinsic(JointDistribution(p), restarts=4, seed=0)
    assert result.bound == 0.0
    assert np.array_equal(result.map.rows, np.eye(4)[assign])
    assert result.record == infotheory.MinimizerRecord(0, 0, (), 1 + 4**4 + 1, 1 + 1 + 1, "sweep")


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: StochasticMap(np.full(3, 1.0)), "expected a matrix, got shape (3,)", id="map-vector"),
        pytest.param(lambda: mutual_information([0.5, 0.5]),
                     "expected a bipartite table, got shape (2,)", id="mutual-information-vector"),
        pytest.param(lambda: mutual_information(np.full((2, 2, 2), 0.125)),
                     "expected a bipartite table, got shape (2, 2, 2)", id="mutual-information-tripartite"),
    ],
)
def test_information_input_checks(call, message):
    with pytest.raises(DistributionError, match=re.escape(message)):
        call()
