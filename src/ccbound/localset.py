"""Locality of finite correlations: deterministic strategies, CHSH-type
facets, and local-weight maximization by linear programming.

Membership in the local polytope is decided with a single dense LP that
maximizes the local content q: the largest q such that the correlation
splits as q * (mixture of deterministic strategies) + (1-q) * remainder
with a nonnegative remainder.  Because every deterministic strategy is
nonsignaling, the remainder of a nonsignaling correlation is automatically
a valid nonsignaling correlation, and q = 1 exactly when the correlation
is local.  That LP has only inequality rows with nonnegative right-hand
sides, so the slack basis is feasible and the simplex needs no first phase.
The segment weight along a fixed target is one LP with equality rows,
solved by the simplex's two-phase method.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .correlations import Correlation, CorrelationError, CorrelatorForm, Scenario, to_correlators

# entries (rows x vertices) of the largest vertex matrix built; 5522 has
# 100 x 1,024 and a binary 9x9 scenario 324 x 262,144
VERTEX_GUARD = 10**7


class LPError(RuntimeError):
    """The LP solver failed numerically (distinct from a 'nonlocal' verdict)."""


class VertexGuardError(ValueError):
    """The vertex matrix of a scenario exceeds the enumeration guard."""


@dataclass(frozen=True)
class DeterministicVertex:
    """A product deterministic strategy a(x), b(y) and its correlation."""

    alice_outputs: tuple
    bob_outputs: tuple
    correlation: Correlation


@dataclass(frozen=True)
class FacetValue:
    """A CHSH-type facet expression value for one ordered index pair."""

    x0: int
    x1: int
    y0: int
    y1: int
    value: float


def _assignments(scenario: Scenario):
    """(a_out, b_out) output tuples of every deterministic strategy, in vertex order."""
    return itertools.product(
        itertools.product(range(scenario.k_a), repeat=scenario.n_a),
        itertools.product(range(scenario.k_b), repeat=scenario.n_b),
    )


def enumerate_vertices(scenario: Scenario) -> list[DeterministicVertex]:
    """All k_a^n_a * k_b^n_b product deterministic strategies, in a fixed order.

    Alice assignments iterate in the outer loop, Bob assignments in the
    inner loop, each in lexicographic order of the output tuples.  The
    tables are the columns of :func:`vertex_matrix`.
    """
    mat = vertex_matrix(scenario)
    return [
        DeterministicVertex(a_out, b_out, Correlation(scenario, column.reshape(scenario.table_shape)))
        for (a_out, b_out), column in zip(_assignments(scenario), mat.T)
    ]


@functools.lru_cache(maxsize=32)
def vertex_matrix(scenario: Scenario) -> np.ndarray:
    """Dense matrix whose columns are the raveled vertex tables.

    Row order matches Correlation.table.ravel(); column order matches
    enumerate_vertices.
    """
    rows = math.prod(scenario.table_shape)
    count = scenario.k_a**scenario.n_a * scenario.k_b**scenario.n_b
    if rows * count > VERTEX_GUARD:
        raise VertexGuardError(f"{rows} x {count} vertex matrix entries exceed the guard of {VERTEX_GUARD}")
    mat = np.zeros((rows, count))
    tables = mat.reshape(*scenario.table_shape, -1)
    x = np.arange(scenario.n_a)[:, None]
    y = np.arange(scenario.n_b)[None, :]
    for col, (a_out, b_out) in enumerate(_assignments(scenario)):
        tables[np.array(a_out)[:, None], np.array(b_out)[None, :], x, y, col] = 1.0
    mat.setflags(write=False)
    return mat


def facet_values(form: CorrelatorForm) -> list[FacetValue]:
    """CHSH-type facet expressions for every ordered pair x0 != x1, y0 != y1.

    S = <A_x0 B_y0> + <A_x0 B_y1> + <A_x1 B_y0> - <A_x1 B_y1>.  A binary
    correlation in the three- and four-setting scenarios studied here is
    local exactly when all |S| <= 2.
    """
    co = form.correlators
    n_a, n_b = co.shape
    values = []
    for x0, x1 in itertools.permutations(range(n_a), 2):
        for y0, y1 in itertools.permutations(range(n_b), 2):
            s = co[x0, y0] + co[x0, y1] + co[x1, y0] - co[x1, y1]
            values.append(FacetValue(x0, x1, y0, y1, float(s)))
    return values


def local_visibility(theta: float) -> float:
    """Visibility threshold 1/(cos theta + sin theta) below which the
    theta-protocol correlation is local."""
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta must lie in (0, pi/2), got {theta!r}")
    return 1.0 / (math.cos(theta) + math.sin(theta))


@dataclass(frozen=True)
class LocalityResult:
    """Verdict of the local-polytope membership LP."""

    is_local: bool
    local_content: float
    weights: np.ndarray | None  # vertex weights when local, in vertex order
    witness: FacetValue | None  # maximal violated CHSH-type facet when nonlocal


def _local_content_lp(corr: Correlation) -> tuple[bool, float, np.ndarray, np.ndarray]:
    """Maximal q with corr >= q * (convex mixture of vertices), entrywise.

    Returns (member, q, m, V m): the membership verdict q >= 1 - LP_SLACK,
    the unnormalized vertex weights m summing to q, and their raveled table.
    """
    mat = vertex_matrix(corr.scenario)
    b = corr.table.ravel()
    status, q, m = kernels.simplex_maximize(mat, b, np.ones(mat.shape[1]), 1e-11, 20000)
    if status != kernels.SIMPLEX_OPTIMAL:
        raise LPError(f"simplex did not reach an optimum (status {status})")
    # primal self-check: V m <= corr, m >= 0 and sum(m) = q
    q = float(q)
    local_flat = mat @ m
    _check_primal({
        "max(V m - corr)": float((local_flat - b).max()),
        "-min(m)": float(-m.min()),
        "|sum(m) - q|": abs(float(m.sum()) - q),
    })
    return q >= 1.0 - kernels.LP_SLACK, q, m, local_flat


def _check_primal(residuals: dict[str, float]) -> None:
    """Raise LPError naming every residual of an LP solution above LP_SLACK."""
    failed = [f"{name} = {value!r}" for name, value in residuals.items() if not value <= kernels.LP_SLACK]
    if failed:
        raise LPError(f"LP solution fails its primal check: {', '.join(failed)}")


def is_local_lp(corr: Correlation) -> LocalityResult:
    """Decide membership in the local polytope by linear programming.

    Local verdicts come with vertex weights reproducing the correlation;
    nonlocal verdicts on binary scenarios come with the maximally violated
    CHSH-type facet as a witness (first by index order on ties).
    """
    member, q, m, _ = _local_content_lp(corr)
    if member:
        return LocalityResult(True, q, m, None)
    witness = None
    if corr.scenario.binary:
        worst = None
        for facet in facet_values(to_correlators(corr)):
            if worst is None or abs(facet.value) > abs(worst.value) + 1e-15:
                worst = facet
        if worst is not None and abs(worst.value) > 2.0:
            witness = worst
    return LocalityResult(False, q, None, witness)


@dataclass(frozen=True)
class NSLocalWeight:
    """Maximal-q decomposition corr = q*local + (1-q)*nonsignaling rest;
    ``rest`` is None for a local corr, ``local`` when q <= 1e-12."""

    q: float
    weights: np.ndarray
    local: Correlation | None
    rest: Correlation | None


def max_local_weight_ns(corr: Correlation) -> NSLocalWeight:
    """Largest q such that corr = q*p_local + (1-q)*p_ns with p_ns nonsignaling.

    Single LP over vertex weights; the remainder corr - q*p_local is
    automatically nonsignaling whenever corr is.  A local corr (q >= 1 -
    LP_SLACK) gets no remainder; otherwise the primal check bounds corr - V m
    below by -LP_SLACK, and its clipped (x, y) blocks are scaled to sum 1.
    """
    member, q, m, local_flat = _local_content_lp(corr)
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
    status, _, x = kernels.simplex_maximize(mat, b, obj, 1e-11, 20000, equalities=mat.shape[0])
    if status == kernels.SIMPLEX_INFEASIBLE:
        return SegmentLocalWeight(0.0, None, False)
    if status != kernels.SIMPLEX_OPTIMAL:
        raise LPError(f"simplex did not reach an optimum (status {status})")
    _check_primal({
        "max|V m + r t - corr|": float(np.abs(mat @ x - b).max()),
        "-min(m, r)": float(-x.min()),
        "|sum(m) + r - 1|": abs(float(x.sum()) - 1.0),
    })
    m = np.clip(x[:-1], 0.0, None)
    q = 1.0 - float(x[-1])
    local = None
    if m.sum() > 1e-12:
        local = Correlation(corr.scenario, (vertices @ m / m.sum()).reshape(corr.scenario.table_shape))
    return SegmentLocalWeight(q, local, True)
