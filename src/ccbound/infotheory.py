"""Finite-alphabet information measures and the intrinsic-information
minimization over stochastic relabellings of the third party's variable.

All information quantities are in bits.  The minimizer is a heuristic:
an exhaustive sweep over deterministic relabellings (when the enumeration
guard permits) combined with Nelder-Mead descent over row-stochastic
matrices; any candidate map already yields a valid upper bound, so global
optimality is not required and not claimed.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from . import kernels

ATOL = 1e-12

SWEEP_GUARD = 10**7


class DistributionError(ValueError):
    """A probability tensor or stochastic map violates its contract."""


class JointDistribution:
    """Immutable joint distribution p(a, b, e) over three finite alphabets."""

    __slots__ = ("p",)

    def __init__(self, p):
        arr = np.array(p, dtype=float)
        if arr.ndim != 3:
            raise DistributionError(f"expected a rank-3 tensor, got shape {arr.shape}")
        if not np.all(arr >= 0.0):
            raise DistributionError(f"negative or NaN probability entry: min = {arr.min()!r}")
        total = float(arr.sum())
        if abs(total - 1.0) > ATOL:
            raise DistributionError(f"probabilities sum to {total!r}, expected 1 within {ATOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    def __setattr__(self, name, value):
        raise AttributeError("JointDistribution is immutable")

    @property
    def alphabet_sizes(self) -> tuple[int, int, int]:
        return self.p.shape

    def marginal_ab(self) -> np.ndarray:
        return self.p.sum(axis=2)

    def to_json_dict(self) -> dict:
        return {"alphabets": list(self.p.shape), "p": self.p.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointDistribution":
        try:
            sizes = tuple(int(n) for n in data["alphabets"])
            arr = np.asarray(data["p"], dtype=float)
        except (KeyError, TypeError) as exc:
            raise DistributionError(f"malformed distribution document: {exc}") from exc
        if arr.shape != sizes:
            raise DistributionError(f"tensor shape {arr.shape} != declared alphabets {sizes}")
        return cls(arr)

    def __repr__(self):
        return f"JointDistribution(alphabets={self.p.shape})"


def load_distribution(path) -> JointDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DistributionError(f"invalid JSON in {path}: {exc}") from exc
    return JointDistribution.from_json_dict(data)


class StochasticMap:
    """Row-stochastic matrix sending symbol e to symbol f, with |F| <= |E|."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        arr = np.array(rows, dtype=float)
        if arr.ndim != 2:
            raise DistributionError(f"expected a matrix, got shape {arr.shape}")
        if arr.shape[1] > arr.shape[0]:
            raise DistributionError(
                f"output alphabet {arr.shape[1]} exceeds input alphabet {arr.shape[0]}"
            )
        if not np.all((arr >= 0.0) & (arr <= 1.0 + ATOL)):
            raise DistributionError("map entries must lie in [0, 1]")
        row_sums = arr.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ATOL):
            raise DistributionError(f"rows must sum to 1 within {ATOL}; got {row_sums!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    def __setattr__(self, name, value):
        raise AttributeError("StochasticMap is immutable")

    @classmethod
    def identity(cls, n: int) -> "StochasticMap":
        return cls(np.eye(n))

    @classmethod
    def constant(cls, n: int, target: int = 0) -> "StochasticMap":
        rows = np.zeros((n, n))
        rows[:, target] = 1.0
        return cls(rows)

    @classmethod
    def deterministic(cls, assignment, n_f: int) -> "StochasticMap":
        assignment = np.asarray(assignment, dtype=int)
        rows = np.zeros((assignment.shape[0], n_f))
        rows[np.arange(assignment.shape[0]), assignment] = 1.0
        return cls(rows)

    def __repr__(self):
        return f"StochasticMap({self.rows.shape[0]}->{self.rows.shape[1]})"


def mutual_information(p_ab) -> float:
    """I(A:B) in bits of a bipartite distribution (2D array or nested list)."""
    arr = np.array(p_ab, dtype=float)
    if arr.ndim != 2:
        raise DistributionError(f"expected a bipartite table, got shape {arr.shape}")
    if not np.all(arr >= 0.0) or abs(float(arr.sum()) - 1.0) > ATOL:
        raise DistributionError("not a normalized bipartite distribution")
    return float(kernels.mutual_information_bits(arr))


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


class IntrinsicResult(NamedTuple):
    bound: float
    map: StochasticMap


def _rows_from_squares(z: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Row-stochastic matrix from an unconstrained parameter vector.

    Entries are the squares of the parameters, normalized per row; an
    all-zero row falls back to the uniform row.
    """
    sq = (z * z).reshape(shape)
    sums = sq.sum(axis=1, keepdims=True)
    uniform = np.full(shape[1], 1.0 / shape[1])
    out = np.where(sums > 1e-300, sq / np.where(sums > 1e-300, sums, 1.0), uniform)
    return out


def _nelder_mead(fn, x0, max_iter=4000, fatol=1e-13, xatol=1e-10, initial_step=0.25):
    """Derivative-free simplex descent with the dimension-adaptive coefficients."""
    n = x0.shape[0]
    alpha = 1.0
    beta = 1.0 + 2.0 / n
    gamma = 0.75 - 0.5 / n
    delta = 1.0 - 1.0 / n

    simplex = np.repeat(x0[None, :], n + 1, axis=0)
    for i in range(n):
        simplex[i + 1, i] += initial_step if simplex[i + 1, i] >= 0 else -initial_step
    values = np.array([fn(x) for x in simplex])

    for _ in range(max_iter):
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        if values[-1] - values[0] <= fatol:
            break
        if np.abs(simplex[1:] - simplex[0]).max() <= xatol:
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

    best = int(np.argmin(values))
    return simplex[best], float(values[best])


def minimize_intrinsic(
    dist: JointDistribution,
    restarts: int = 32,
    deterministic_sweep: bool | None = None,
    seed: int = 0,
) -> IntrinsicResult:
    """Heuristic minimum of I(A:B|F) over stochastic maps E -> F with |F| = |E|.

    Candidates: the identity map, the exhaustive set of deterministic maps
    (when |F|^|E| <= 10^7; skipped silently when ``deterministic_sweep`` is
    None and the guard is exceeded, an error when it was requested
    explicitly), and Nelder-Mead descent from ``restarts`` random
    row-stochastic starts plus a polish run from the best deterministic map.
    Each restart is seeded independently so results are reproducible.
    """
    n_e = dist.p.shape[2]
    n_f = n_e
    p = np.ascontiguousarray(dist.p)

    best_rows = np.eye(n_e)
    best = float(kernels.cmi_after_map_bits(p, best_rows))

    sweep_size = float(n_f) ** n_e
    run_sweep = deterministic_sweep if deterministic_sweep is not None else sweep_size <= SWEEP_GUARD
    if run_sweep:
        if sweep_size > SWEEP_GUARD:
            raise DistributionError(
                f"deterministic sweep of {sweep_size:.3g} maps exceeds the guard {SWEEP_GUARD}"
            )
        sweep_best, sweep_assign = kernels.sweep_deterministic_maps(p, n_f)
        if sweep_best < best:
            best = float(sweep_best)
            best_rows = StochasticMap.deterministic(sweep_assign, n_f).rows.copy()

    shape = (n_e, n_f)

    def objective(z):
        return float(kernels.cmi_after_map_bits(p, _rows_from_squares(z, shape)))

    # descent starts: sqrt of the best map so far (with a floor so zero rows
    # can move), then fully random restarts
    starts = [np.sqrt(best_rows + 0.05).ravel()]
    for i in range(restarts):
        rng = np.random.default_rng([seed, i])
        starts.append(rng.normal(0.0, 1.0, size=n_e * n_f))

    for z0 in starts:
        z_opt, value = _nelder_mead(objective, np.asarray(z0, dtype=float))
        if value < best - 1e-15:
            best = value
            best_rows = _rows_from_squares(z_opt, shape)

    if best <= 0.0:  # rounding can leave a tiny negative (or -0.0) sum
        best = 0.0
    return IntrinsicResult(best, StochasticMap(best_rows))
