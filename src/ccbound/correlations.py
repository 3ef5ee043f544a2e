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

ATOL = 1e-12

NEGATIVE_CLAMP = 1e-12  # reconstruction values in [-NEGATIVE_CLAMP, 0) are rounding noise


class CorrelationError(ValueError):
    """A probability table or its construction inputs are invalid."""


class OutsideQuantumDiscError(CorrelationError):
    """A slice point (s, t) lies outside the quantum disc s^2 + t^2 <= 1."""


@dataclass(frozen=True)
class Scenario:
    """Input/output counts of a bipartite measurement scenario."""

    n_a: int
    n_b: int
    k_a: int
    k_b: int

    def __post_init__(self):
        for name in ("n_a", "n_b", "k_a", "k_b"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise CorrelationError(f"{name} must be a positive integer, got {value!r}")

    @property
    def binary(self) -> bool:
        return self.k_a == 2 and self.k_b == 2

    @property
    def table_shape(self) -> tuple[int, int, int, int]:
        return (self.k_a, self.k_b, self.n_a, self.n_b)


def unit_vector(components) -> np.ndarray:
    """Validate and freeze a unit Bloch vector."""
    v = np.asarray(components, dtype=float)
    if v.shape != (3,):
        raise CorrelationError(f"Bloch vector must have 3 components, got shape {v.shape}")
    if abs(float(np.linalg.norm(v)) - 1.0) > ATOL:
        raise CorrelationError(f"Bloch vector must be unit norm, got |v| = {np.linalg.norm(v)!r}")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class MeasurementArrangement:
    """Projective binary measurements in Bloch form, one vector per setting."""

    alice: tuple
    bob: tuple

    def __post_init__(self):
        object.__setattr__(self, "alice", tuple(unit_vector(v) for v in self.alice))
        object.__setattr__(self, "bob", tuple(unit_vector(v) for v in self.bob))
        if not self.alice or not self.bob:
            raise CorrelationError("arrangement needs at least one setting per side")

    @property
    def scenario(self) -> Scenario:
        return Scenario(len(self.alice), len(self.bob), 2, 2)


class Correlation:
    """Immutable conditional probability table p(a,b|x,y).

    Invariants enforced on construction: nonnegativity and, for every
    setting pair (x, y), normalization within 1e-12.  Nonsignaling is
    checkable through :meth:`is_nonsignaling` but not enforced.
    """

    __slots__ = ("scenario", "table")

    def __init__(self, scenario: Scenario, table):
        arr = np.array(table, dtype=float)
        if arr.shape != scenario.table_shape:
            raise CorrelationError(
                f"table shape {arr.shape} does not match scenario {scenario.table_shape}"
            )
        if not np.all(arr >= 0.0):
            raise CorrelationError(f"negative or NaN probability entry: min = {arr.min()!r}")
        sums = arr.sum(axis=(0, 1))
        if np.any(np.abs(sums - 1.0) > ATOL):
            raise CorrelationError(
                f"each block p(.,.|x,y) must sum to 1 within {ATOL}; worst deviation "
                f"{np.abs(sums - 1.0).max()!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "table", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Correlation is immutable")

    def block(self, x: int, y: int) -> np.ndarray:
        """The 2D outcome table p(.,.|x,y)."""
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
            np.all(np.abs(self.table - other.table) <= atol)
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
            scenario = Scenario(int(sc["nA"]), int(sc["nB"]), int(sc["kA"]), int(sc["kB"]))
            nested = np.asarray(data["table"], dtype=float)
        except (KeyError, TypeError) as exc:
            raise CorrelationError(f"malformed correlation document: {exc}") from exc
        if nested.shape != (scenario.n_a, scenario.n_b, scenario.k_a, scenario.k_b):
            raise CorrelationError(
                f"table shape {nested.shape} inconsistent with scenario fields"
            )
        return cls(scenario, np.transpose(nested, (2, 3, 0, 1)))

    def __repr__(self):
        s = self.scenario
        return f"Correlation(({s.n_a},{s.n_b},{s.k_a},{s.k_b}) scenario)"


def load_correlation(path) -> Correlation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorrelationError(f"invalid JSON in {path}: {exc}") from exc
    return Correlation.from_json_dict(data)


def dump_correlation(corr: Correlation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(corr.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class CorrelatorForm:
    """Marginal/correlator representation of a binary-output correlation."""

    alice_marginals: np.ndarray
    bob_marginals: np.ndarray
    correlators: np.ndarray

    def __post_init__(self):
        am = np.asarray(self.alice_marginals, dtype=float)
        bm = np.asarray(self.bob_marginals, dtype=float)
        co = np.asarray(self.correlators, dtype=float)
        if co.shape != (am.shape[0], bm.shape[0]):
            raise CorrelationError(
                f"correlator matrix shape {co.shape} inconsistent with marginals"
            )
        for name, arr in (("alice_marginals", am), ("bob_marginals", bm), ("correlators", co)):
            if np.any(np.abs(arr) > 1.0 + ATOL):
                raise CorrelationError(f"{name} entries must lie in [-1, 1]")
        for arr in (am, bm, co):
            arr.setflags(write=False)
        object.__setattr__(self, "alice_marginals", am)
        object.__setattr__(self, "bob_marginals", bm)
        object.__setattr__(self, "correlators", co)


def werner_correlation(visibility: float, arrangement: MeasurementArrangement) -> Correlation:
    """Correlation from projective Bloch measurements on a visibility-v
    singlet/white-noise mixture.

    Each 2x2 outcome block has diagonal entries s/2 and off-diagonal entries
    (1-s)/2 with s = (1 - v a.b)/2 for the setting vectors a, b.
    """
    if not 0.0 <= visibility <= 1.0:
        raise CorrelationError(f"visibility must lie in [0, 1], got {visibility!r}")
    scenario = arrangement.scenario
    table = np.empty(scenario.table_shape)
    for x, alpha in enumerate(arrangement.alice):
        for y, beta in enumerate(arrangement.bob):
            s = 0.5 * (1.0 - visibility * float(alpha @ beta))
            table[0, 0, x, y] = table[1, 1, x, y] = 0.5 * s
            table[0, 1, x, y] = table[1, 0, x, y] = 0.5 * (1.0 - s)
    return Correlation(scenario, table)


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


def to_correlators(corr: Correlation) -> CorrelatorForm:
    """Marginals <A_x>, <B_y> and correlators <A_x B_y> of a binary correlation."""
    if not corr.scenario.binary:
        raise CorrelationError("correlator form requires binary outputs on both sides")
    t = corr.table
    alice = (t[0, 0] + t[0, 1] - t[1, 0] - t[1, 1]).mean(axis=1)
    bob = (t[0, 0] - t[0, 1] + t[1, 0] - t[1, 1]).mean(axis=0)
    correlators = t[0, 0] + t[1, 1] - t[0, 1] - t[1, 0]
    return CorrelatorForm(alice, bob, correlators)


def from_correlators(form: CorrelatorForm, scenario: Scenario) -> Correlation:
    """Reconstruct p(a,b|x,y) = 1/4 [1 + (-1)^a <A_x> + (-1)^b <B_y> + (-1)^(a+b) <A_x B_y>].

    Reconstruction values in [-1e-12, 0) are clamped to 0; anything more
    negative is rejected as a genuinely invalid correlator set.
    """
    if not scenario.binary:
        raise CorrelationError("correlator form requires binary outputs on both sides")
    am, bm, co = form.alice_marginals, form.bob_marginals, form.correlators
    if am.shape[0] != scenario.n_a or bm.shape[0] != scenario.n_b:
        raise CorrelationError("correlator form does not match the scenario input counts")
    table = np.empty(scenario.table_shape)
    for a in (0, 1):
        for b in (0, 1):
            sign_a = 1.0 if a == 0 else -1.0
            sign_b = 1.0 if b == 0 else -1.0
            table[a, b] = 0.25 * (
                1.0 + sign_a * am[:, None] + sign_b * bm[None, :] + sign_a * sign_b * co
            )
    low = table.min()
    if low < -NEGATIVE_CLAMP:
        raise CorrelationError(
            f"correlators produce a negative probability ({low!r}); not a valid correlation"
        )
    np.clip(table, 0.0, None, out=table)
    return Correlation(scenario, table)


def slice_correlation(s: float, t: float) -> Correlation:
    """Point (s, t) of the two-parameter correlation slice, as a 2x3 correlation.

    Zero marginals, correlator matrix [[s, t, v], [t, -s, 0]] with
    v = sqrt(s^2 + t^2).  Only points inside the quantum disc s^2 + t^2 <= 1
    are representable.
    """
    radius_sq = s * s + t * t
    if radius_sq > 1.0 + ATOL:
        raise OutsideQuantumDiscError(
            f"(s, t) = ({s}, {t}) has s^2 + t^2 = {radius_sq} > 1"
        )
    v = math.sqrt(min(radius_sq, 1.0))
    scenario = Scenario(2, 3, 2, 2)
    form = CorrelatorForm(
        alice_marginals=np.zeros(2),
        bob_marginals=np.zeros(3),
        correlators=np.array([[s, t, v], [t, -s, 0.0]]),
    )
    return from_correlators(form, scenario)
