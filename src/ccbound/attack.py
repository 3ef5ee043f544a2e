"""Convex-combination eavesdropping attacks and key-rate upper bounds.

The attack splits the observed correlation into a local part (whose
outcomes the eavesdropper knows exactly) and a nonlocal remainder (about
which she knows nothing), then relabels her side information to minimize
the conditional mutual information available to the honest parties.  The
resulting intrinsic-information bound is zero up to a critical visibility
(v_local + 1)/(3 - v_local) that lies strictly above the locality
threshold, so a range of nonlocal correlations admits no secret key under
setting-announcing protocols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from ._jsondoc import ATOL, FrozenDict, is_real
from .correlations import Correlation, MeasurementArrangement, _setting_pair_error, _table_close, _werner_correlations, chsh_arrangement
from .infotheory import JointDistribution, StochasticMap
from .localset import local_visibility

# Locality threshold of the singlet/white-noise family under arbitrary
# projective measurements (literature value, exact closed form).
WERNER_LOCAL_VISIBILITY = 999 * 689 * 1e-6 * math.cos(math.pi / 50) ** 4

# Visibility above which some projective arrangement is known to produce a
# nonlocal correlation.  Externally sourced numerical constant (no closed
# form published); used only to exhibit the nonlocal-yet-keyless gap.
WERNER_NONLOCAL_VISIBILITY = 0.6964


class AttackError(ValueError):
    """An attack model is inconsistent with the correlation it targets."""


@dataclass(frozen=True)
class CCDecomposition:
    """Observed correlation = local_weight * local + (1 - local_weight) * nonlocal_part."""

    local_weight: float
    local: Correlation
    nonlocal_part: Correlation

    def __post_init__(self):
        if not (is_real(self.local_weight) and 0.0 <= self.local_weight <= 1.0):
            raise AttackError(f"local weight must lie in [0, 1], got {self.local_weight!r}")
        if self.local.scenario != self.nonlocal_part.scenario:
            raise AttackError("decomposition components live on different scenarios")

    @property
    def scenario(self):
        return self.local.scenario


@dataclass(frozen=True, eq=False)
class AttackModel:
    """A decomposition plus per-setting relabelling maps and setting weights,
    and the unknown fractions the maps were built with (if recorded).

    The three mappings are stored as read-only copies, so the checks below
    hold for the model's lifetime.  A weighted or mapped setting pair that
    does not index the settings raises ``Correlation.block``'s
    CorrelationError; every other inconsistency raises AttackError.
    """

    decomposition: CCDecomposition
    maps: dict
    setting_weights: dict
    unknown_fractions: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("maps", "setting_weights", "unknown_fractions"):
            object.__setattr__(self, name, FrozenDict(getattr(self, name)))
        for pair in [*self.setting_weights, *self.maps]:
            _pair_block(self.decomposition.local, pair)
        for pair, weight in self.setting_weights.items():
            if not (is_real(weight) and math.isfinite(weight) and weight >= 0.0):
                raise AttackError(f"setting weight for {pair} must be a finite real number >= 0, got {weight!r}")
        total = sum(self.setting_weights.values())
        if abs(total - 1.0) > ATOL:
            raise AttackError(f"setting weights sum to {total!r}, expected 1")
        for pair, weight in self.setting_weights.items():
            if weight > 0.0 and pair not in self.maps:
                raise AttackError(f"no relabelling map supplied for weighted setting {pair}")
        symbols = self.decomposition.scenario.k_a * self.decomposition.scenario.k_b + 1
        for pair, m in self.maps.items():
            if not isinstance(m, StochasticMap):
                raise AttackError(f"map for setting {pair} must be a StochasticMap, got {type(m).__name__}")
            if m.rows.shape[0] != symbols:
                raise AttackError(f"map for setting {pair} takes {m.rows.shape[0]} symbols, expected {symbols}")


def _pair_block(correlation: Correlation, pair) -> np.ndarray:
    """``correlation.block(*pair)`` of a setting key; a key that is not a
    tuple of two raises block's error."""
    if not (isinstance(pair, tuple) and len(pair) == 2):
        raise _setting_pair_error(correlation.scenario, pair)
    return correlation.block(*pair)


def local_weight(visibility: float, local_visibility_value: float) -> float:
    """Local weight (1 - v)/(1 - v_local) of the convex-combination split."""
    if not 0.0 <= visibility <= 1.0:
        raise AttackError(f"visibility must lie in [0, 1], got {visibility!r}")
    if not 0.0 < local_visibility_value < 1.0:
        raise AttackError(f"local visibility must lie in (0, 1), got {local_visibility_value!r}")
    if visibility <= local_visibility_value:
        return 1.0
    return (1.0 - visibility) / (1.0 - local_visibility_value)


def cc_werner(
    visibility: float,
    arrangement: MeasurementArrangement,
    local_visibility_value: float = WERNER_LOCAL_VISIBILITY,
) -> CCDecomposition:
    """Convex-combination split of a noisy singlet correlation.

    Nonlocal part at visibility 1, local part at the locality threshold, and
    weight (1 - v)/(1 - v_local); by linearity in the visibility the mixture
    reproduces the observed correlation exactly.  Below the threshold the
    attack degenerates: weight 1 with the full (local) correlation as the
    local part.
    """
    weight = local_weight(visibility, local_visibility_value)  # checks both visibilities
    local, nonlocal_part = _werner_correlations(arrangement, min(visibility, local_visibility_value), 1.0)
    return CCDecomposition(weight, local, nonlocal_part)


def cc_chsh(theta: float, visibility: float) -> CCDecomposition:
    """Convex-combination split of the theta-protocol correlation, using the
    protocol-specific locality threshold 1/(cos theta + sin theta)."""
    return cc_werner(visibility, chsh_arrangement(theta), local_visibility(theta))


def tripartite(decomposition: CCDecomposition, x: int, y: int) -> JointDistribution:
    """Joint distribution of the outcomes and the eavesdropper's variable.

    On local rounds the side information equals the outcome pair (encoded as
    k_b*a + b); on nonlocal rounds it is the unknown symbol k_a*k_b, the last
    of the k_a*k_b + 1 symbols.
    """
    k_a, k_b = decomposition.scenario.k_a, decomposition.scenario.k_b
    q = decomposition.local_weight
    pairs = np.arange(k_a * k_b)
    p = np.zeros((k_a * k_b, k_a * k_b + 1))
    p[pairs, pairs] = q * decomposition.local.block(x, y).ravel()
    p[:, -1] = (1.0 - q) * decomposition.nonlocal_part.block(x, y).ravel()
    return JointDistribution(p.reshape(k_a, k_b, -1))


def eve_map(agreement: float, unknown_fraction: float) -> StochasticMap:
    """Relabelling of binary-outcome side information.

    When outcomes agree more often than not (agreement >= 1/2), matching
    pairs are kept and a fraction ``unknown_fraction`` of the mismatched
    pairs is merged into the unknown symbol; otherwise the roles of the
    matching and mismatched pairs are swapped.  The unknown symbol always
    maps to itself.
    """
    if not 0.0 <= unknown_fraction <= 1.0:
        raise AttackError(f"unknown_fraction must lie in [0, 1], got {unknown_fraction!r}")
    if not 0.0 <= agreement <= 1.0:
        raise AttackError(f"agreement must lie in [0, 1], got {agreement!r}")
    rows = np.eye(5)
    for e in (1, 2) if agreement >= 0.5 else (0, 3):
        rows[e, e] = 1.0 - unknown_fraction
        rows[e, 4] = unknown_fraction + 0.0  # + 0.0 turns -0.0 into 0.0
    return StochasticMap(rows)


def zero_key_visibility(agreement: float, local_visibility_value: float) -> float:
    """Visibility threshold up to which the relabelling can zero the bound.

    Equals [v_local (2s - 1) + 1] / [v_local (1 - 2s) + 4s - 1] for the
    ideal agreement s of the setting pair; monotonically decreasing in s,
    so the key-generating pair (s = 1) is the most favorable to the
    eavesdropper.  An array of local visibilities gives an array.
    """
    if not 0.5 <= agreement <= 1.0:
        raise AttackError(f"agreement must lie in [1/2, 1], got {agreement!r}")
    # the method, not np.all, which takes about 2.5 us more on a float
    if not np.asarray((0.0 < local_visibility_value) & (local_visibility_value < 1.0)).all():
        raise AttackError(
            f"local visibility must lie in (0, 1), got {local_visibility_value!r}"
        )
    v_l = local_visibility_value
    return (v_l * (2.0 * agreement - 1.0) + 1.0) / (v_l * (1.0 - 2.0 * agreement) + 4.0 * agreement - 1.0)


# Critical visibility of the noisy-singlet family under arbitrary projective
# measurements: below it no setting-announcing protocol can extract a key,
# although the correlations are nonlocal above ~0.6964.
WERNER_CRITICAL_VISIBILITY = zero_key_visibility(1.0, WERNER_LOCAL_VISIBILITY)


def solve_unknown_fraction(
    visibility: float, local_visibility_value: float, agreement: float
) -> float:
    """Fraction of mismatched local symbols to hide so the unknown branch
    carries zero mutual information.

    Solves (1-q) |2s-1| = fraction * q * (mass of the hidden local symbols)
    for the convex split with weight q at the given visibility.  Above the
    pair's zero-key visibility no fraction below 1 balances the branch, so
    every mismatched symbol is hidden (1.0); a balanced pair (s = 1/2)
    needs none (0.0).
    """
    q = local_weight(visibility, local_visibility_value)
    if not 0.0 <= agreement <= 1.0:
        raise AttackError(f"agreement must lie in [0, 1], got {agreement!r}")
    # probability of equal outcomes in the local part for this setting pair
    s_local = 0.5 * (1.0 - local_visibility_value * (1.0 - 2.0 * agreement))
    hidden = 1.0 - s_local if agreement >= 0.5 else s_local
    needed = (1.0 - q) * abs(2.0 * agreement - 1.0)
    available = q * hidden
    if needed < available:
        return needed / available
    return 1.0 if needed > 0.0 else 0.0


def setting_information(attack: AttackModel) -> dict:
    """I(A:B|F) after the relabelling, for each setting pair with a map."""
    return {
        pair: kernels.cmi_after_map_bits(tripartite(attack.decomposition, *pair).p, m.rows)
        for pair, m in attack.maps.items()
    }


def keyrate_bound(observed: Correlation, attack: AttackModel) -> float:
    """Upper bound on the two-way key rate: the setting-weighted conditional
    mutual information after the eavesdropper's relabelling.

    The attack's mixture q*L + (1 - q)*N must reproduce the observed
    correlation: the same scenario, and no entry of the observed table more
    than ATOL from the mixture's.  The mixture is not checked as a
    Correlation: both parts are checked tables and 0 <= q <= 1, so its
    entries are >= 0 and its block sums within ATOL of 1 up to rounding.
    """
    d = attack.decomposition
    q = d.local_weight
    mixture = q * d.local.table + (1.0 - q) * d.nonlocal_part.table
    if not _table_close(d.scenario, mixture, observed, ATOL):
        raise AttackError("attack decomposition does not reproduce the observed correlation")
    information = setting_information(attack)
    total = 0.0
    for pair, weight in attack.setting_weights.items():
        if weight != 0.0:
            total += weight * information[pair]
    return total


def chsh_attack(
    theta: float, visibility: float, unknown_fraction="auto", settings=None
) -> AttackModel:
    """Standard attack on the theta protocol with key rounds at the setting
    pairs of ``settings``, a ``{(x, y): weight}`` mapping (default {(0, 2): 1}).

    ``unknown_fraction='auto'`` takes each pair's ``solve_unknown_fraction``,
    which is 1 above the pair's zero-key visibility; a real number in [0, 1]
    is used for every pair (any fraction still yields a valid upper bound).
    """
    auto = isinstance(unknown_fraction, str) and unknown_fraction == "auto"
    if not auto and not (is_real(unknown_fraction) and 0.0 <= unknown_fraction <= 1.0):
        raise AttackError(f"unknown_fraction must be 'auto' or a real number in [0, 1], got {unknown_fraction!r}")
    if settings is None:
        settings = {(0, 2): 1.0}
    arrangement = chsh_arrangement(theta)
    v_l = local_visibility(theta)
    decomposition = cc_werner(visibility, arrangement, v_l)
    maps, fractions = {}, {}
    for pair in settings:
        # probability of equal outcomes in the nonlocal (visibility 1) part
        ideal = _pair_block(decomposition.nonlocal_part, pair)
        agreement = float(ideal[0, 0] + ideal[1, 1])
        if auto:
            fraction = solve_unknown_fraction(visibility, v_l, agreement)
        else:
            fraction = float(unknown_fraction) + 0.0  # + 0.0 turns -0.0 into 0.0
        maps[pair] = eve_map(agreement, fraction)
        fractions[pair] = fraction
    return AttackModel(decomposition, maps, settings, fractions)


def chsh_keyrate_bound(theta: float, visibility):
    """Closed-form key-rate upper bound for the theta protocol keyed on the
    (0, 2) setting pair, at a float visibility or at each visibility of an
    array of any shape (giving an array of that shape).

    Zero at and below the critical visibility; above it,
    2(1 - s q) + (1-q) log2[(1-q)/(2(1-sq))] + q(1-s) log2[q(1-s)/(2(1-sq))]
    with s = (1 + v_local)/2 and q = (1 - v)/(1 - v_local).  Both cases run
    the same numpy arithmetic and take ``math.log2`` point by point (numpy's
    SIMD log2 may differ from it in the last bit), so every value of an
    array is the float's bit for bit.
    """
    v = np.atleast_1d(np.asarray(visibility, dtype=float))
    if not ((0.0 <= v) & (v <= 1.0)).all():
        raise AttackError(f"visibility must lie in [0, 1], got {visibility!r}")
    v_l = local_visibility(theta)
    above = v > zero_key_visibility(1.0, v_l)
    s = 0.5 * (1.0 + v_l)
    q = (1.0 - v[above]) / (1.0 - v_l)
    z = 1.0 - s * q
    value = 2.0 * z + (1.0 - q) * _log2((1.0 - q) / (2.0 * z))
    hidden = q * (1.0 - s)
    hides = hidden > 0.0
    value[hides] += hidden[hides] * _log2(hidden[hides] / (2.0 * z[hides]))
    bounds = np.zeros(v.shape)
    bounds[above] = np.maximum(value, 0.0)
    return bounds if np.ndim(visibility) else float(bounds[0])


def _log2(x: np.ndarray) -> np.ndarray:
    """``math.log2`` of each value of x."""
    return np.fromiter(map(math.log2, x.tolist()), float, len(x))


def critical_visibility(theta: float) -> float:
    """Critical visibility (v_local + 1)/(3 - v_local) of the theta protocol;
    strictly above the protocol's locality threshold for every theta."""
    return zero_key_visibility(1.0, local_visibility(theta))
