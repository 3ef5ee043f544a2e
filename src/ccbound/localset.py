"""Locality of finite correlations: deterministic strategies, LP membership
in the local polytope with a Bell functional for every nonlocal verdict, and
local-weight maximization by linear programming.

Membership in the local polytope is decided with a single dense LP that
maximizes the local content q: the largest q such that the correlation
splits as q * (mixture of deterministic strategies) + (1-q) * remainder
with a nonnegative remainder.  Because every deterministic strategy is
nonsignaling, the remainder of a nonsignaling correlation is automatically
a valid nonsignaling correlation, and q = 1 exactly when the correlation
is local.  That LP has only inequality rows with nonnegative right-hand
sides, so the slack basis is feasible and the simplex needs no first phase.
Its dual y, read off the final tableau, is a Bell functional in any
scenario: y.v >= 1 on every deterministic strategy v, so on the whole local
polytope, while y.corr = q < 1 for a nonlocal corr.
The segment weight along a fixed target is one LP with equality rows,
solved by the simplex's two-phase method.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._jsondoc import constructor_reduce, read_only_copy
from .correlations import Correlation, CorrelationError, Scenario

# entries (rows x vertices) of the largest vertex matrix built; 5522 has
# 100 x 1,024 and a binary 9x9 scenario 324 x 262,144
VERTEX_GUARD = 10**7


class LPError(RuntimeError):
    """The LP solver failed numerically (distinct from a 'nonlocal' verdict)."""


def _strategy_tables(n: int, k: int) -> np.ndarray:
    """(k^n, n, k) one-hot output tables of one party's strategies, in lexicographic order."""
    outputs = np.arange(k**n)[:, None] // k ** np.arange(n - 1, -1, -1) % k
    return np.eye(k)[outputs]


@functools.lru_cache(maxsize=32)
def vertex_matrix(scenario: Scenario) -> np.ndarray:
    """Dense read-only matrix whose columns are the raveled tables of the
    k_a^n_a * k_b^n_b product deterministic strategies.

    Row order matches Correlation.table.ravel().  Columns run over Alice's
    output tuples a(x) in the outer loop and Bob's b(y) in the inner loop,
    each in lexicographic order: the broadcast product of the parties'
    one-hot output tables.  Above VERTEX_GUARD entries it raises
    ValueError before allocating anything.
    """
    rows = math.prod(scenario.table_shape)
    count = scenario.k_a**scenario.n_a * scenario.k_b**scenario.n_b
    if rows * count > VERTEX_GUARD:
        raise ValueError(f"{rows} x {count} vertex matrix entries exceed the guard of {VERTEX_GUARD}")
    alice = _strategy_tables(scenario.n_a, scenario.k_a)
    bob = _strategy_tables(scenario.n_b, scenario.k_b)
    mat = np.einsum("sxa,tyb->abxyst", alice, bob, order="C").reshape(rows, count)
    mat.setflags(write=False)
    return mat


def local_visibility(theta: float) -> float:
    """Visibility threshold 1/(cos theta + sin theta) below which the
    theta-protocol correlation is local."""
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta must lie in (0, pi/2), got {theta!r}")
    return 1.0 / (math.cos(theta) + math.sin(theta))


@dataclass(frozen=True, eq=False)
class LocalityResult:
    """Verdict of the local-polytope membership LP.

    A nonlocal verdict carries the LP's dual y as ``bell_functional``, in
    the row order of Correlation.table.ravel(): y.v >= 1 - LP_SLACK on every
    deterministic strategy v, and y.corr lies within LP_SLACK of
    ``local_content``, which is below 1 - LP_SLACK, so corr violates the
    Bell inequality y.p >= 1 that every local correlation meets up to that
    slack.
    """

    is_local: bool
    local_content: float
    weights: np.ndarray | None  # vertex weights when local, in vertex order (read-only)
    bell_functional: np.ndarray | None  # dual y when nonlocal (read-only)

    __reduce__ = constructor_reduce

    def __post_init__(self):
        object.__setattr__(self, "weights", read_only_copy(self.weights))
        object.__setattr__(self, "bell_functional", read_only_copy(self.bell_functional))


def _local_content_lp(corr: Correlation) -> tuple[bool, float, np.ndarray, np.ndarray, np.ndarray]:
    """Maximal q with corr >= q * (convex mixture of vertices), entrywise.

    Returns (member, q, m, V m, y): the membership verdict q >= 1 - LP_SLACK,
    the unnormalized vertex weights m summing to q, their raveled table, and
    the simplex's unchecked dual y of the rows.
    """
    mat = vertex_matrix(corr.scenario)
    b = corr.table.ravel()
    status, q, m, y = kernels.simplex_maximize(mat, b, np.ones(mat.shape[1]))
    if status != kernels.SIMPLEX_OPTIMAL:
        raise LPError(f"simplex did not reach an optimum (status {status})")
    # primal self-check: V m <= corr, m >= 0 and sum(m) = q
    q = float(q)
    # V m summed by numpy, not BLAS, so the output does not depend on the BLAS kernel
    local_flat = np.add.reduce(mat * m, axis=1)
    _check_primal({
        "max(V m - corr)": float((local_flat - b).max()),
        "-min(m)": float(-m.min()),
        "|sum(m) - q|": abs(float(m.sum()) - q),
    })
    return q >= 1.0 - kernels.LP_SLACK, q, m, local_flat, y


def _check_primal(residuals: dict[str, float]) -> None:
    """Raise LPError naming every residual of an LP solution above LP_SLACK."""
    failed = [f"{name} = {value!r}" for name, value in residuals.items() if not value <= kernels.LP_SLACK]
    if failed:
        raise LPError(f"LP solution fails its primal check: {', '.join(failed)}")


def is_local_lp(corr: Correlation) -> LocalityResult:
    """Decide membership in the local polytope by linear programming.

    Local verdicts come with vertex weights reproducing the correlation.
    Nonlocal verdicts, in any scenario, come with the LP's dual y as a Bell
    functional, checked after the primal: min(V^T y) over the deterministic
    strategies must be >= 1 - LP_SLACK and |y.corr - q| <= LP_SLACK, else
    LPError names both numbers.
    """
    member, q, m, _, y = _local_content_lp(corr)
    if member:
        return LocalityResult(True, q, m, None)
    mat = vertex_matrix(corr.scenario)
    # V^T y and y.corr summed by numpy, not BLAS, like the primal check
    lowest = float(np.add.reduce(mat * y[:, None], axis=0).min())
    value = float(np.add.reduce(y * corr.table.ravel()))
    if not (lowest >= 1.0 - kernels.LP_SLACK and abs(value - q) <= kernels.LP_SLACK):
        raise LPError(f"Bell functional fails its check: min(V^T y) = {lowest!r}, y.corr = {value!r} for q = {q!r}")
    return LocalityResult(False, q, None, y)


@dataclass(frozen=True, eq=False)
class NSLocalWeight:
    """Maximal-q decomposition corr = q*local + (1-q)*nonsignaling rest;
    ``rest`` is None for a local corr, ``local`` when q <= 1e-12."""

    q: float
    weights: np.ndarray  # read-only
    local: Correlation | None
    rest: Correlation | None

    __reduce__ = constructor_reduce

    def __post_init__(self):
        object.__setattr__(self, "weights", read_only_copy(self.weights))


def max_local_weight_ns(corr: Correlation) -> NSLocalWeight:
    """Largest q such that corr = q*p_local + (1-q)*p_ns with p_ns nonsignaling.

    Single LP over vertex weights; the remainder corr - q*p_local is
    automatically nonsignaling whenever corr is, so a corr whose marginals
    signal by more than LP_SLACK raises CorrelationError.  A local corr
    (q >= 1 - LP_SLACK) gets no remainder; otherwise the primal check bounds
    corr - V m below by -LP_SLACK, and its clipped (x, y) blocks are scaled
    to sum 1.
    """
    if not corr.is_nonsignaling(atol=kernels.LP_SLACK):
        raise CorrelationError(f"correlation signals: a marginal moves by more than {kernels.LP_SLACK} with the other party's setting")
    member, q, m, local_flat, _ = _local_content_lp(corr)
    q = min(max(q, 0.0), 1.0)
    shape = corr.scenario.table_shape
    local = None
    rest = None
    if q > 1e-12:
        local = Correlation(corr.scenario, np.clip((local_flat / q).reshape(shape), 0.0, None))
    if not member:
        rest_table = np.clip(corr.table.ravel() - local_flat, 0.0, None).reshape(shape)
        rest = Correlation(corr.scenario, rest_table / rest_table.sum(axis=(0, 1), keepdims=True))
    return NSLocalWeight(q, m, local, rest)


@dataclass(frozen=True)
class SegmentLocalWeight:
    """Maximal q with corr = q*p_local + (1-q)*target along a fixed target."""

    q: float
    local: Correlation | None
    on_segment: bool  # False when no local decomposition along the target exists


def max_local_weight_along(corr: Correlation, target: Correlation) -> SegmentLocalWeight:
    """Largest q such that corr = q*p_local + (1-q)*target with p_local local.

    One equality LP over the vertex weights m and the target weight r:
    minimize r subject to V m + r*target = corr and m, r >= 0, so q = 1 - r
    and p_local = V m / sum(m), a mixture of vertices and so local by
    construction.  A local corr is answered by the membership LP alone, as
    q = 1 with corr itself; when the LP is infeasible no decomposition along
    the target exists and the result is q = 0 with on_segment False.  The
    solution is re-checked: |V m + r*target - corr|, -min(m, r) and
    |sum(m) + r - 1| must each be <= LP_SLACK, else LPError.
    """
    if corr.scenario != target.scenario:
        raise CorrelationError("correlation and target have mismatched scenarios")
    if _local_content_lp(corr)[0]:
        return SegmentLocalWeight(1.0, corr, True)

    vertices = vertex_matrix(corr.scenario)
    mat = np.column_stack([vertices, target.table.ravel()])
    b = corr.table.ravel()
    obj = np.zeros(mat.shape[1])
    obj[-1] = -1.0
    status, _, x, _ = kernels.simplex_maximize(mat, b, obj, equalities=mat.shape[0])
    if status == kernels.SIMPLEX_INFEASIBLE:
        return SegmentLocalWeight(0.0, None, False)
    if status != kernels.SIMPLEX_OPTIMAL:
        raise LPError(f"simplex did not reach an optimum (status {status})")
    _check_primal({
        "max|V m + r t - corr|": float(np.abs(np.add.reduce(mat * x, axis=1) - b).max()),
        "-min(m, r)": float(-x.min()),
        "|sum(m) + r - 1|": abs(float(x.sum()) - 1.0),
    })
    m = np.clip(x[:-1], 0.0, None)
    q = 1.0 - float(x[-1])
    local = None
    if m.sum() > 1e-12:
        local_flat = np.add.reduce(vertices * m, axis=1) / m.sum()
        local = Correlation(corr.scenario, local_flat.reshape(corr.scenario.table_shape))
    return SegmentLocalWeight(q, local, True)
