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

from ._jsondoc import ATOL, constructor_reduce, is_index, json_document, json_int, json_table, probability_table, read_only_copy


class CorrelationError(ValueError):
    """A probability table or its construction inputs are invalid."""


class OutsideQuantumDiscError(CorrelationError):
    """A slice point (s, t) lies outside the quantum disc s^2 + t^2 <= 1."""


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
    """A validated read-only copy of a unit Bloch vector."""
    v = read_only_copy(components, float)
    if v.shape != (3,):
        raise CorrelationError(f"Bloch vector must have 3 components, got shape {v.shape}")
    norm = math.hypot(*v.tolist())
    if not abs(norm - 1.0) <= ATOL:
        raise CorrelationError(f"Bloch vector must be unit norm, got |v| = {norm!r}")
    return v


@dataclass(frozen=True, eq=False)
class MeasurementArrangement:
    """Projective binary measurements in Bloch form, one vector per setting.

    ``scenario``, its ``Scenario(len(alice), len(bob), 2, 2)``, is built once
    by the constructor; it is not a field, so copies, pickles and ``asdict``
    hold only the two vector tuples.
    """

    alice: tuple
    bob: tuple

    __reduce__ = constructor_reduce

    def __post_init__(self):
        object.__setattr__(self, "alice", tuple(unit_vector(v) for v in self.alice))
        object.__setattr__(self, "bob", tuple(unit_vector(v) for v in self.bob))
        if not self.alice or not self.bob:
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
            raise CorrelationError(f"setting pair {(x, y)} is not an index pair of the {s.n_a}x{s.n_b} settings")
        return self.table[:, :, x, y]

    def is_nonsignaling(self, atol: float = ATOL) -> bool:
        a_marg = self.table.sum(axis=1)  # (k_a, n_a, n_b)
        b_marg = self.table.sum(axis=0)  # (k_b, n_a, n_b)
        a_dev = np.abs(a_marg - a_marg.mean(axis=2, keepdims=True)).max()
        b_dev = np.abs(b_marg - b_marg.mean(axis=1, keepdims=True)).max()
        return bool(a_dev <= atol and b_dev <= atol)

    def mix(self, other: "Correlation", weight: float) -> "Correlation":
        """Convex combination weight*self + (1-weight)*other."""
        if other.scenario != self.scenario:
            raise CorrelationError("cannot mix correlations on different scenarios")
        if not 0.0 <= weight <= 1.0:
            raise CorrelationError(f"mixing weight must lie in [0,1], got {weight!r}")
        return Correlation(self.scenario, weight * self.table + (1.0 - weight) * other.table)

    def allclose(self, other: "Correlation", atol: float = ATOL) -> bool:
        return self.scenario == other.scenario and bool(
            np.maximum.reduce(np.abs(self.table - other.table), axis=None) <= atol
        )

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
    dots = np.add.reduce(np.array(arrangement.alice)[:, None] * np.array(arrangement.bob), axis=-1)
    scenario = arrangement.scenario
    out = []
    for visibility in visibilities:
        s = 0.5 * (1.0 - visibility * dots)
        table = np.empty(scenario.table_shape)
        table[0, 0] = table[1, 1] = 0.5 * s
        table[0, 1] = table[1, 0] = 0.5 * (1.0 - s)
        out.append(Correlation(scenario, table))
    return out


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
    return MeasurementArrangement(
        alice=((0.0, 0.0, -1.0), (-1.0, 0.0, 0.0)),
        bob=tuple(bob),
    )


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
        raise OutsideQuantumDiscError(
            f"(s, t) = ({s}, {t}) has s^2 + t^2 = {radius_sq}, not <= 1"
        )
    v = math.sqrt(min(radius_sq, 1.0))
    correlators = np.array([[s, t, v], [t, -s, 0.0]])
    table = np.empty((2, 2, 2, 3))
    table[0, 0] = table[1, 1] = 0.25 * (1.0 + correlators)
    table[0, 1] = table[1, 0] = 0.25 * (1.0 - correlators)
    np.clip(table, 0.0, None, out=table)
    return Correlation(Scenario(2, 3, 2, 2), table)
