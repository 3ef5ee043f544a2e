"""Finite bipartite correlations p(a,b|x,y) and their generators.

Correlations are stored as dense probability tables indexed (a, b, x, y).
Singlet-plus-white-noise correlations are generated directly from the Bloch
vectors of the projective measurements; no density matrices or measurement
operators appear anywhere in this package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._jsondoc import ATOL, constructor_reduce, is_index, is_real, json_document, json_int, json_table, probability_table, read_only_copy


class CorrelationError(ValueError):
    """A probability table or its construction inputs are invalid."""


@dataclass(frozen=True)
class Scenario:
    """Input/output counts of a bipartite measurement scenario, stored as
    Python ints (a numpy integer count is converted, a bool refused)."""

    n_a: int
    n_b: int
    k_a: int
    k_b: int

    def __post_init__(self):
        for name in ("n_a", "n_b", "k_a", "k_b"):
            value = getattr(self, name)
            if not (is_index(value) and value >= 1):
                raise CorrelationError(f"{name} must be a positive integer, got {value!r}")
            if type(value) is not int:
                object.__setattr__(self, name, int(value))

    @property
    def table_shape(self) -> tuple[int, int, int, int]:
        return (self.k_a, self.k_b, self.n_a, self.n_b)


def unit_vector(components) -> np.ndarray:
    """A validated read-only copy of a unit Bloch vector: three real numbers
    (not bools or strings, see ``is_real``) of norm 1 within ATOL."""
    raw = np.array(components, dtype=object)
    if raw.shape != (3,):
        raise CorrelationError(f"Bloch vector must have 3 components, got shape {raw.shape}")
    for component in raw.tolist():
        if not is_real(component):
            raise CorrelationError(f"Bloch vector components must be real numbers, got {component!r}")
    v = read_only_copy(raw, float)
    _check_unit_norms([v.tolist()])
    return v


def _check_unit_norms(vectors: list) -> None:
    """Raise unless each vector, a list of three floats, has norm 1 within ATOL."""
    for components in vectors:
        norm = math.hypot(*components)
        if not abs(norm - 1.0) <= ATOL:
            raise CorrelationError(f"Bloch vector must be unit norm, got |v| = {norm!r}")


def _unit_vectors(vectors) -> np.ndarray:
    """One side of an arrangement as a read-only (k, 3) float copy of its k
    unit vectors.  A (k, 3) integer or float array is converted and checked
    in one pass; any other side goes vector by vector through
    :func:`unit_vector`, so that a bad side raises its message for the first
    bad vector."""
    if isinstance(vectors, np.ndarray) and vectors.dtype.kind in "iuf" and vectors.ndim == 2 and vectors.shape[1] == 3:
        side = np.array(vectors, dtype=float)
        _check_unit_norms(side.tolist())
    else:
        side = np.array([unit_vector(v) for v in vectors]).reshape(-1, 3)
    side.setflags(write=False)
    return side


@dataclass(frozen=True, eq=False)
class MeasurementArrangement:
    """Projective binary measurements in Bloch form, one unit vector per setting.

    ``alice`` and ``bob`` are read-only (k, 3) float arrays, one row per
    setting, copied from the k vectors the caller passed (any sequence of
    3-component sequences of real numbers, or a (k, 3) array), so indexing,
    ``len`` and iteration give the vectors.  ``scenario``, its
    ``Scenario(len(alice), len(bob), 2, 2)``, is built once by the
    constructor; it is not a field, so copies, pickles and ``asdict`` hold
    only the two sides.
    """

    alice: np.ndarray
    bob: np.ndarray

    __reduce__ = constructor_reduce

    def __post_init__(self):
        object.__setattr__(self, "alice", _unit_vectors(self.alice))
        object.__setattr__(self, "bob", _unit_vectors(self.bob))
        if not len(self.alice) or not len(self.bob):
            raise CorrelationError("arrangement needs at least one setting per side")
        object.__setattr__(self, "scenario", Scenario(len(self.alice), len(self.bob), 2, 2))


@dataclass(frozen=True, eq=False, slots=True)
class Correlation:
    """Immutable conditional probability table p(a,b|x,y).

    Invariants enforced on construction: nonnegativity and, for every
    setting pair (x, y), normalization within 1e-12.  Nonsignaling is
    checkable through :meth:`is_nonsignaling` but not enforced.
    """

    scenario: Scenario
    table: np.ndarray

    __reduce__ = constructor_reduce

    def __post_init__(self):
        if np.shape(self.table) != self.scenario.table_shape:
            raise CorrelationError(f"table shape {np.shape(self.table)} does not match scenario {self.scenario.table_shape}")
        object.__setattr__(self, "table", probability_table(self.table, (0, 1), CorrelationError))

    def block(self, x: int, y: int) -> np.ndarray:
        """The 2D outcome table p(.,.|x,y); x and y must be integer indices of
        the settings (numpy would read a bool as a mask and wrap a negative)."""
        s = self.scenario
        if not (is_index(x) and is_index(y) and 0 <= x < s.n_a and 0 <= y < s.n_b):
            raise _setting_pair_error(s, (x, y))
        return self.table[:, :, x, y]

    def is_nonsignaling(self, atol: float = ATOL) -> bool:
        a_marg = self.table.sum(axis=1)  # (k_a, n_a, n_b)
        b_marg = self.table.sum(axis=0)  # (k_b, n_a, n_b)
        a_dev = np.abs(a_marg - a_marg.mean(axis=2, keepdims=True)).max()
        b_dev = np.abs(b_marg - b_marg.mean(axis=1, keepdims=True)).max()
        return bool(a_dev <= atol and b_dev <= atol)

    def allclose(self, other: "Correlation", atol: float = ATOL) -> bool:
        return _table_close(self.scenario, self.table, other, atol)

    def to_json_dict(self) -> dict:
        # nested [x][y][a][b] per the documented wire format
        nested = np.transpose(self.table, (2, 3, 0, 1)).tolist()
        s = self.scenario
        return {
            "scenario": {"nA": s.n_a, "nB": s.n_b, "kA": s.k_a, "kB": s.k_b},
            "table": nested,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Correlation":
        try:
            sc = data["scenario"]
            fields = ("nA", "nB", "kA", "kB")
            scenario = Scenario(*(json_int(sc[f], f"scenario field {f}", CorrelationError) for f in fields))
            nested = json_table(data["table"], "table", CorrelationError)
        except (KeyError, TypeError) as exc:
            raise CorrelationError(f"malformed correlation document: {exc}") from exc
        if nested.shape != (scenario.n_a, scenario.n_b, scenario.k_a, scenario.k_b):
            raise CorrelationError(
                f"table shape {nested.shape} inconsistent with scenario fields"
            )
        return cls(scenario, np.transpose(nested, (2, 3, 0, 1)))


def _setting_pair_error(scenario: Scenario, pair) -> CorrelationError:
    """The error for a setting pair, or a setting key that is not a tuple of
    two, that is not an index pair of the scenario's settings."""
    return CorrelationError(f"setting pair {pair!r} is not an index pair of the {scenario.n_a}x{scenario.n_b} settings")


def _table_close(scenario: Scenario, table: np.ndarray, other: Correlation, atol: float) -> bool:
    """:meth:`Correlation.allclose` of a table on ``scenario`` that no
    Correlation holds: the same scenario and no entry more than atol apart."""
    return scenario == other.scenario and bool(np.maximum.reduce(np.abs(table - other.table), axis=None) <= atol)


def load_correlation(path) -> Correlation:
    return Correlation.from_json_dict(json_document(path, CorrelationError))


def dump_correlation(corr: Correlation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(corr.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def werner_correlation(visibility: float, arrangement: MeasurementArrangement) -> Correlation:
    """Correlation from projective Bloch measurements on a visibility-v
    singlet/white-noise mixture.

    Each 2x2 outcome block has diagonal entries s/2 and off-diagonal entries
    (1-s)/2 with s = (1 - v a.b)/2 for the setting vectors a, b.
    """
    if not 0.0 <= visibility <= 1.0:
        raise CorrelationError(f"visibility must lie in [0, 1], got {visibility!r}")
    return _werner_correlations(arrangement, visibility)[0]


def _werner_correlations(arrangement: MeasurementArrangement, *visibilities: float) -> list[Correlation]:
    """:func:`werner_correlation` at each visibility, which must lie in
    [0, 1], all from one a.b matrix (a convex split takes two)."""
    # a.b summed by numpy, not BLAS, so the tables do not depend on the BLAS kernel
    dots = np.add.reduce(arrangement.alice[:, None] * arrangement.bob, axis=-1)
    scenario = arrangement.scenario
    out = []
    for visibility in visibilities:
        s = 0.5 * (1.0 - visibility * dots)
        table = np.empty(scenario.table_shape)
        table[0, 0] = table[1, 1] = 0.5 * s
        table[0, 1] = table[1, 0] = 0.5 * (1.0 - s)
        out.append(Correlation(scenario, table))
    return out


_CHSH_ALICE = read_only_copy(((0.0, 0.0, -1.0), (-1.0, 0.0, 0.0)), float)


def chsh_arrangement(theta: float, fourth_bob_setting: bool = False) -> MeasurementArrangement:
    """Measurement vectors of the biased-CHSH protocol at angle theta.

    Alice: (0,0,-1), (-1,0,0).  Bob: (sin t, 0, cos t), (-cos t, 0, sin t),
    (0,0,1), plus optionally (1,0,0) as a fourth setting.
    """
    if not 0.0 < theta < math.pi / 2:
        raise CorrelationError(f"theta must lie in (0, pi/2), got {theta!r}")
    bob = [
        (math.sin(theta), 0.0, math.cos(theta)),
        (-math.cos(theta), 0.0, math.sin(theta)),
        (0.0, 0.0, 1.0),
    ]
    if fourth_bob_setting:
        bob.append((1.0, 0.0, 0.0))
    # float arrays, whose components the arrangement need not test one by one
    return MeasurementArrangement(alice=_CHSH_ALICE, bob=np.array(bob))


def chsh_protocol_correlation(theta: float, visibility: float) -> Correlation:
    """Noisy biased-CHSH protocol correlation (2 x 3 settings, binary)."""
    return werner_correlation(visibility, chsh_arrangement(theta))


def slice_correlation(s: float, t: float) -> Correlation:
    """Point (s, t) of the two-parameter correlation slice, as a 2x3 correlation.

    Zero marginals, so p(a,b|x,y) = (1 + (-1)^(a+b) E[x, y])/4 for the
    correlator matrix E = [[s, t, v], [t, -s, 0]] with v = sqrt(s^2 + t^2).
    Only points inside the quantum disc s^2 + t^2 <= 1 are representable;
    entries that round below 0 at its edge are clipped to 0.
    """
    radius_sq = s * s + t * t
    if not radius_sq <= 1.0 + ATOL:
        raise CorrelationError(f"(s, t) = ({s}, {t}) has s^2 + t^2 = {radius_sq}, not <= 1")
    v = math.sqrt(min(radius_sq, 1.0))
    correlators = np.array([[s, t, v], [t, -s, 0.0]])
    table = np.empty((2, 2, 2, 3))
    table[0, 0] = table[1, 1] = 0.25 * (1.0 + correlators)
    table[0, 1] = table[1, 0] = 0.25 * (1.0 - correlators)
    np.clip(table, 0.0, None, out=table)
    return Correlation(Scenario(2, 3, 2, 2), table)
