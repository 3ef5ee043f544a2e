"""Finite-alphabet information measures and the intrinsic-information
minimization over stochastic relabellings of the third party's variable.

All information quantities are in bits.  The minimizer is a heuristic:
an exhaustive sweep over deterministic relabellings (when the enumeration
guard permits) combined with Nelder-Mead descent over row-stochastic
matrices; any candidate map already yields a valid upper bound, so global
optimality is not required and not claimed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._jsondoc import constructor_reduce, is_index, json_document, json_int, json_table, probability_table

SWEEP_GUARD = 10**7

# entries of the Nelder-Mead state (its gather table and one block of
# lanes) that minimize_intrinsic may hold: |E| up to 19 fits
NELDER_MEAD_GUARD = 10**7


class DistributionError(ValueError):
    """A probability tensor or stochastic map violates its contract."""


class MinimizerError(RuntimeError):
    """The minimizer's bound differs from the value of the map it returns."""


@dataclass(frozen=True, eq=False, slots=True)
class JointDistribution:
    """Immutable joint distribution p(a, b, e) over three finite alphabets."""

    p: np.ndarray

    __reduce__ = constructor_reduce

    def __post_init__(self):
        if np.ndim(self.p) != 3:
            raise DistributionError(f"expected a rank-3 tensor, got shape {np.shape(self.p)}")
        object.__setattr__(self, "p", probability_table(self.p, None, DistributionError))

    def to_json_dict(self) -> dict:
        return {"alphabets": list(self.p.shape), "p": self.p.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointDistribution":
        try:
            sizes = tuple(json_int(n, "alphabet size", DistributionError) for n in data["alphabets"])
            arr = json_table(data["p"], "p", DistributionError)
        except (KeyError, TypeError) as exc:
            raise DistributionError(f"malformed distribution document: {exc}") from exc
        if arr.shape != sizes:
            raise DistributionError(f"tensor shape {arr.shape} != declared alphabets {sizes}")
        return cls(arr)


def load_distribution(path) -> JointDistribution:
    return JointDistribution.from_json_dict(json_document(path, DistributionError))


@dataclass(frozen=True, eq=False, slots=True)
class StochasticMap:
    """Row-stochastic matrix sending symbol e to symbol f, with |F| <= |E|."""

    rows: np.ndarray

    __reduce__ = constructor_reduce

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=float)
        if arr.ndim != 2:
            raise DistributionError(f"expected a matrix, got shape {arr.shape}")
        if arr.shape[1] > arr.shape[0]:
            raise DistributionError(f"output alphabet {arr.shape[1]} exceeds input alphabet {arr.shape[0]}")
        object.__setattr__(self, "rows", probability_table(arr, 1, DistributionError))

    @classmethod
    def identity(cls, n: int) -> "StochasticMap":
        return cls(np.eye(n))

    @classmethod
    def deterministic(cls, assignment, n_f: int) -> "StochasticMap":
        # integer symbols only: a float would be truncated and a bool read as 0 or 1
        assignment = np.asarray(assignment)
        if not (is_index(n_f) and assignment.dtype.kind in "iu" and ((0 <= assignment) & (assignment < n_f)).all()):
            raise DistributionError(f"assignment entries must lie in range({n_f}), got {assignment.tolist()}")
        rows = np.zeros((assignment.shape[0], n_f))
        rows[np.arange(assignment.shape[0]), assignment] = 1.0
        return cls(rows)


def mutual_information(p_ab) -> float:
    """I(A:B) in bits of a bipartite distribution (2D array or nested list)."""
    arr = np.asarray(p_ab, dtype=float)
    if arr.ndim != 2:
        raise DistributionError(f"expected a bipartite table, got shape {arr.shape}")
    return float(kernels.mutual_information_bits(probability_table(arr, None, DistributionError)))


def apply_map(dist: JointDistribution, m: StochasticMap) -> JointDistribution:
    """Push the third variable through a stochastic map: p(a,b,f) = sum_e p(a,b,e) m(f|e)."""
    if m.rows.shape[0] != dist.p.shape[2]:
        raise DistributionError(
            f"map input alphabet {m.rows.shape[0]} != distribution alphabet {dist.p.shape[2]}"
        )
    return JointDistribution(np.einsum("abe,ef->abf", dist.p, m.rows))


def conditional_mutual_information(dist: JointDistribution) -> float:
    """I(A:B|F) in bits, the p(f)-weighted mutual information per branch."""
    return float(kernels.conditional_mutual_information_bits(dist.p))


@dataclass(frozen=True, slots=True)
class MinimizerRecord:
    """Work counts of one :func:`minimize_intrinsic` call.

    ``maps`` and ``calls`` count everything passed to
    ``kernels.cmi_after_map_bits``: the identity map, the deterministic
    sweep, the Nelder-Mead points and the final self-check.  When the
    identity or the sweep gives a value <= 0.0, Nelder-Mead does not run:
    ``starts`` and ``lanes`` are 0 and ``iterations`` is empty.
    """

    starts: int  # Nelder-Mead starts: the polish run plus the restarts, or 0
    lanes: int  # starts run in lockstep per block: a quarter of kernels.map_batch, at most 64; or 0
    iterations: tuple[int, ...]  # Nelder-Mead iterations of each start, in start order
    maps: int
    calls: int
    winner: str  # 'identity', 'sweep', 'polish' or 'restart i'


@dataclass(frozen=True, slots=True)
class IntrinsicResult:
    bound: float
    map: StochasticMap
    record: MinimizerRecord


def _rows_from_squares(z: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Row-stochastic matrices from unconstrained parameter vectors z[..., k].

    Entries are the squares of the parameters, normalized per row; a row
    whose squares sum to at most 1e-300 falls back to the uniform row.
    """
    sq = (z * z).reshape(*z.shape[:-1], *shape)
    sums = np.add.reduce(sq, axis=-1, keepdims=True)
    return np.divide(sq, sums, out=np.full(sq.shape, 1.0 / shape[1]), where=sums > 1e-300)


def _nelder_mead(fn, starts, max_iter=4000, fatol=1e-13, xatol=1e-10):
    """Derivative-free simplex descent with the dimension-adaptive coefficients,
    run in lockstep from every row of ``starts[lanes, n]``.

    ``fn`` maps points z[..., n] to their values.  Each iteration makes one
    call of ``fn`` on the reflected, expanded, outside- and inside-contracted
    points of every running start, and one more on the shrink points of the
    starts that shrink.  Every start takes the steps it would take alone, bit
    for bit, and stops at its own fatol/xatol test or after max_iter
    iterations.  Returns (points[lanes, n], values, iterations): each start's
    best vertex, its value and the iterations it ran.
    """
    lanes, n = starts.shape
    initial_step = 0.25
    alpha = 1.0
    beta = 1.0 + 2.0 / n
    gamma = 0.75 - 0.5 / n
    delta = 1.0 - 1.0 / n
    # c - gamma*u is c + (-gamma)*u bit for bit
    ends_coef = np.array([[alpha], [-gamma]])
    middle_coef = np.array([[beta], [gamma]])

    # a start's block of rows: its n + 1 vertices sorted by value (vals),
    # then its four trial points.  Each iteration ends with one gather that
    # builds every next block.  Row step * (n + 1) + j of gather lists the
    # rows of a start's next block when trial point ``step`` replaces the
    # worst vertex and sorts into place j (after equal values, as a stable
    # sort puts it).
    scratch = list(range(n + 1, n + 5))
    gather = np.array(
        [[*range(j), n + 1 + step, *range(j, n), *scratch] for step in range(4) for j in range(n + 1)]
    )
    offsets = np.arange(0, lanes * (n + 5), n + 5)[:, None]
    block = np.empty((lanes, n + 5, n))
    block[:, : n + 1] = starts[:, None]
    axis = np.arange(n)
    first = block[:, axis + 1, axis]
    block[:, axis + 1, axis] = first + np.where(first >= 0, initial_step, -initial_step)
    vals = fn(block[:, : n + 1]).tolist()
    orders = [sorted(range(n + 1), key=v.__getitem__) for v in vals]
    vals = [[v[i] for i in order] for v, order in zip(vals, orders)]
    block = block.reshape(-1, n)[np.array([order + scratch for order in orders]) + offsets]

    points = np.empty((lanes, n))
    best_values = [0.0] * lanes
    iterations = [0] * lanes
    live = list(range(lanes))  # the start in each block
    for it in range(max_iter + 1):
        # the worst vertex's distance from the best bounds the simplex's
        # spread from below, so only starts it leaves near are measured whole
        near = (np.abs(block[:, n] - block[:, 0]).max(axis=1) <= xatol).tolist()
        stops = [
            k
            for k, (v, close) in enumerate(zip(vals, near))
            if it == max_iter
            or v[-1] - v[0] <= fatol
            or close and np.abs(block[k, 1 : n + 1] - block[k, 0]).max() <= xatol
        ]
        # a stopped start's best vertex is the first of its sorted block
        if stops:
            for k in stops:
                best_values[live[k]] = vals[k][0]
                iterations[live[k]] = it
            points[[live[k] for k in stops]] = block[stops, 0]
            keep = [k for k in range(len(live)) if k not in stops]
            block = block[keep]
            vals = [vals[k] for k in keep]
            live = [live[k] for k in keep]
            offsets = offsets[: len(live)]
            if not live:
                break

        centroid = np.add.reduce(block[:, :n], axis=1) / n
        inward = centroid - block[:, n]
        trial = block[:, n + 1 :]
        ends = trial[:, ::3]  # reflected and inside-contracted
        np.multiply(inward[:, None], ends_coef, out=ends)
        ends += centroid[:, None]
        middle = trial[:, 1:3]  # expanded and outside-contracted
        np.multiply((trial[:, 0] - centroid)[:, None], middle_coef, out=middle)
        middle += centroid[:, None]

        # each start's step: 0 reflect, 1 expand, 2 contract outside,
        # 3 contract inside, or a shrink, which keeps the old worst vertex
        places, shrinking = [], []
        for k, (v, (f_r, f_e, f_o, f_i)) in enumerate(zip(vals, fn(trial).tolist())):
            if f_r < v[0]:
                step, f = (1, f_e) if f_e < f_r else (0, f_r)
            elif f_r < v[-2]:
                step, f = 0, f_r
            else:
                step, f = (2, f_o) if f_r < v[-1] else (3, f_i)
                if not f < min(f_r, v[-1]):
                    shrinking.append(k)
                    places.append(n)  # the gather row is set below
                    continue
            place = bisect.bisect_right(v, f, 0, n)
            v.insert(place, f)
            v.pop()
            places.append(step * (n + 1) + place)
        rows = gather[places]
        if shrinking:
            kept = block[shrinking, :1]
            shrunk = kept + delta * (block[shrinking, 1 : n + 1] - kept)
            block[shrinking, 1 : n + 1] = shrunk
            for k, new in zip(shrinking, fn(shrunk).tolist()):
                v = [vals[k][0], *new]
                order = sorted(range(n + 1), key=v.__getitem__)
                vals[k] = [v[i] for i in order]
                rows[k, : n + 1] = order
        block = block.reshape(-1, n)[rows + offsets]
    return points, best_values, iterations


def minimize_intrinsic(
    dist: JointDistribution,
    restarts: int = 32,
    seed: int = 0,
) -> IntrinsicResult:
    """Heuristic minimum of I(A:B|F) over stochastic maps E -> F with |F| = |E|.

    Candidates: the identity map, the exhaustive set of deterministic maps
    (when |F|^|E| <= 10^7, skipped otherwise), and Nelder-Mead descent from
    ``restarts`` random row-stochastic starts plus a polish run from the best
    deterministic map.  Each restart is seeded independently so results are
    reproducible.  The starts run in lockstep, in blocks of a quarter of
    kernels.map_batch (64 lanes, fewer for wide tables); the result's
    ``record`` holds the work counts and the winning candidate.

    The bound reported is max(best, 0.0), so no candidate can lower a best
    value <= 0.0: an identity value <= 0.0 returns without the sweep, and a
    sweep value <= 0.0 returns without Nelder-Mead (then the record's starts
    and lanes are 0).  An |E| whose Nelder-Mead state would exceed
    NELDER_MEAD_GUARD entries raises ValueError before anything is built.
    """
    for name, value in (("restarts", restarts), ("seed", seed)):
        if not is_index(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    n_e = dist.p.shape[2]
    n_f = n_e
    n = n_e * n_f
    state = (4 * (n + 1) + kernels.SWEEP_BATCH // 4 * n) * (n + 5)
    if state > NELDER_MEAD_GUARD:
        raise ValueError(f"|E| = {n_e} needs {state} Nelder-Mead entries, above the guard of {NELDER_MEAD_GUARD}")
    p = np.ascontiguousarray(dist.p)

    best_rows = np.eye(n_e)
    best = float(kernels.cmi_after_map_bits(p, best_rows))
    winner = "identity"
    calls = maps = 1

    # a best <= 0.0 is final: the bound is max(best, 0.0)
    batch = kernels.map_batch(p.shape[0] * p.shape[1] * n_f)
    if best > 0.0 and n_f**n_e <= SWEEP_GUARD:
        sweep_best, sweep_assign = kernels.sweep_deterministic_maps(p, n_f)
        calls += -(-(n_f**n_e) // batch)
        maps += n_f**n_e
        if sweep_best < best:
            best = float(sweep_best)
            best_rows = StochasticMap.deterministic(sweep_assign, n_f).rows.copy()
            winner = "sweep"
    if best <= 0.0:
        return _checked_result(p, best, best_rows, MinimizerRecord(0, 0, (), maps + 1, calls + 1, winner))

    shape = (n_e, n_f)

    def objective(z):
        nonlocal calls, maps
        calls += 1
        maps += z.size // z.shape[-1]
        return kernels.cmi_after_map_bits(p, _rows_from_squares(z, shape))

    # descent starts: sqrt of the best map so far (with a floor so zero rows
    # can move), then fully random restarts, each from its own seed
    polish = np.sqrt(best_rows + 0.05).ravel()
    # blocks of lanes bound the memory of a large --restarts: a block's starts
    # are built when it runs, and its trial points are one kernel batch of maps
    total = restarts + 1
    lanes = min(total, batch // 4)
    iterations = []
    for first in range(0, total, lanes):
        starts = np.array([np.random.default_rng([seed, i - 1]).normal(0.0, 1.0, size=n) if i else polish
                           for i in range(first, min(first + lanes, total))])
        points, values, steps = _nelder_mead(objective, starts)
        iterations += steps
        for i, (z_opt, value) in enumerate(zip(points, values), first):
            if value < best - 1e-15:
                best = value
                best_rows = _rows_from_squares(z_opt, shape)
                winner = f"restart {i - 1}" if i else "polish"

    record = MinimizerRecord(total, lanes, tuple(iterations), maps + 1, calls + 1, winner)
    return _checked_result(p, best, best_rows, record)


def _checked_result(p, best, best_rows, record):
    """The result of bound max(best, 0.0) for the map ``best_rows`` of value ``best``.

    Self-check: the bound is the value of the map returned, recomputed by
    the same kernel (batched and single calls agree bit for bit); a
    mismatch raises MinimizerError.
    """
    # rounding can leave a tiny negative (or -0.0) sum
    bound = 0.0 if best <= 0.0 else best
    result = IntrinsicResult(bound, StochasticMap(best_rows), record)
    check = float(kernels.cmi_after_map_bits(p, result.map.rows))
    if max(check, 0.0) != bound:
        raise MinimizerError(f"reported bound {bound!r} != {check!r} recomputed from the returned map")
    return result
