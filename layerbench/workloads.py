"""The three workloads: seeded task lists, warm-ups and result checks.

A workload is a fixed list of tasks built from the seed.  Each task is one
call into ccbound's public API, made from outside the package.  ``call`` is
the timed part; ``capture`` turns its output into something small to keep
(a digest for the CSV files the CLI writes) and runs outside the timed
region, as does ``check``, which compares the captured result with an
independent reference from ``reference.py``.

Inputs are stratified: every seed draws the same number of tasks of each
kind from the same parameter strata, and only the positions inside each
stratum move.  This keeps the work in one pass over the list nearly equal
from seed to seed, so runs with different seeds can be compared.
"""

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

THETA_LO = math.pi / 12
THETA_HI = 5 * math.pi / 12

REGION_RESOLUTIONS = (401, 801)
REGION_COMMENT = "# grid ordering: row-major, t outer loop, s inner loop"
CURVE_STEP = "0.001"
CURVE_POINTS = 1001


@dataclass
class Task:
    kind: str
    call: Callable[[], object]
    check: Callable  # (captured result, reference module) -> None, raises on a mismatch
    capture: Callable[[object], object] = lambda out: out


@dataclass
class Workload:
    tasks: list
    warmups: list  # zero-argument callables, one per task kind


class CheckFailed(AssertionError):
    """A result disagrees with its reference."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def strata(rng, count, lo=THETA_LO, hi=THETA_HI):
    """One uniform draw from each of ``count`` equal strata of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + (i + float(rng.uniform())) * width for i in range(count)]


# ------------------------------------------------------------------ intrinsic

# seven attack inputs plus the two criterion-7 inputs make nine tasks per
# pass; with an odd count the median task time falls on one task, not
# between two.  The attack inputs all run without restarts, so the median
# falls inside a group of like tasks; with mixed restarts, tasks of very
# different lengths would sit around the median and which one it lands on
# would change from seed to seed.
ATTACK_INPUTS = 7
ATTACK_RESTARTS = 0
CRITERION7_RESTARTS = 1


def _check_minimizer(p, result, ref):
    recomputed = ref.cmi_after_map_bits(p, result.map.rows)
    expect(
        abs(recomputed - result.bound) <= 1e-12,
        f"bound {result.bound!r} differs from I(A:B|F) {recomputed!r} of the returned map",
    )


def _attack_check(theta, v, p):
    def check(result, ref):
        _check_minimizer(p, result, ref)
        if v <= ref.critical_visibility(theta):
            expect(result.bound <= 1e-6, f"bound {result.bound!r} > 1e-6 below v_crit")
        else:
            closed = ref.keyrate_closed_form(theta, v)
            expect(result.bound <= closed + 1e-9, f"bound {result.bound!r} > closed form {closed!r}")

    return check


def intrinsic(seed, out_dir):
    from ccbound import attack, infotheory

    import reference

    rng = np.random.default_rng([seed, 1])
    tasks = []
    # stratum i alternates the side of v_crit (i % 2), so every seed has the
    # same mix of sides
    for i, theta in enumerate(strata(rng, ATTACK_INPUTS)):
        v_l, v_c = reference.local_visibility(theta), reference.critical_visibility(theta)
        if i % 2 == 0:
            v = v_l + float(rng.uniform(0.45, 0.65)) * (v_c - v_l)
        else:
            v = v_c + float(rng.uniform(0.45, 0.65)) * (1.0 - v_c)
        joint = attack.tripartite(attack.cc_chsh(theta, v), 0, 2)
        tasks.append(
            Task(
                "attack",
                lambda joint=joint: infotheory.minimize_intrinsic(joint, restarts=ATTACK_RESTARTS),
                _attack_check(theta, v, joint.p),
            )
        )

    # criterion 7: E independent of AB gives I(A:B); E a copy of AB gives 0
    p_ab = rng.dirichlet(np.ones(4)).reshape(2, 2)
    independent = infotheory.JointDistribution(np.einsum("ab,e->abe", p_ab, np.full(4, 0.25)))
    copy = np.zeros((2, 2, 4))
    for a in (0, 1):
        for b in (0, 1):
            copy[a, b, 2 * a + b] = p_ab[a, b]
    copy = infotheory.JointDistribution(copy)

    def check_independent(result, ref):
        _check_minimizer(independent.p, result, ref)
        mi = ref.mutual_information_bits(p_ab)
        expect(abs(result.bound - mi) <= 1e-9, f"bound {result.bound!r} != I(A:B) {mi!r}")

    def check_copy(result, ref):
        _check_minimizer(copy.p, result, ref)
        expect(result.bound <= 1e-12, f"copy: bound {result.bound!r} > 1e-12")

    for kind, dist, check in (("independent", independent, check_independent),
                              ("copy", copy, check_copy)):

        def run(dist=dist):
            return infotheory.minimize_intrinsic(dist, restarts=CRITERION7_RESTARTS)

        tasks.append(Task(kind, run, check))

    warmups = [lambda: infotheory.minimize_intrinsic(copy, restarts=0)]
    return Workload(tasks, warmups)


# ------------------------------------------------------------------- locality

THRESHOLD_TASKS = 8  # per arrangement
SEGMENT_TASKS = 8
NS_TASKS = 40
NS_2X4_EVERY = 5  # every fifth NS weight is on the 2x4 arrangement, the rest on 2x3
SLICE_TASKS = 40
# Sorted by time, the 32 short 2x3 NS weights lie below the slice verdicts
# and the 8 slower 2x4 NS weights and 24 bisections above them, so the
# median task time falls in the middle of the 40 slice verdicts, whose
# times are close together, rather than at the edge of a group.


def bisect_threshold(make_correlation, lo=0.60, hi=1.0, tol=5e-7):
    """Visibility at which the LP membership verdict flips (criterion 4)."""
    from ccbound import localset

    if not localset.is_local_lp(make_correlation(lo)).is_local or localset.is_local_lp(
        make_correlation(hi)
    ).is_local:
        raise CheckFailed("membership verdict does not flip inside the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if localset.is_local_lp(make_correlation(mid)).is_local:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _threshold_check(theta):
    def check(flip, ref):
        expected = ref.local_visibility(theta)
        expect(abs(flip - expected) < 1e-6, f"threshold {flip!r} != 1/(cos+sin) {expected!r}")

    return check


def _slice_points(rng, count):
    """One zero-key slice point per polar-angle stratum of (0, pi/2).

    The radius is drawn between the locality threshold and the critical
    visibility of the drawn angle; near the axes that band is thinner than
    the facet margin, so angle and radius are drawn again until they fit.
    """
    import reference

    width = (math.pi / 2) / count
    points = []
    for i in range(count):
        while True:
            angle = (i + float(rng.uniform())) * width
            v_l, v_c = reference.local_visibility(angle), reference.critical_visibility(angle)
            radius = v_l + float(rng.uniform()) * (v_c - v_l)
            s, t = radius * math.cos(angle), radius * math.sin(angle)
            if reference.in_zero_key_region(s, t):
                points.append((s, t))
                break
    return points


def locality(seed, out_dir):
    from ccbound import correlations, localset

    import reference

    rng = np.random.default_rng([seed, 2])
    tasks = []

    for theta in strata(rng, THRESHOLD_TASKS):
        tasks.append(
            Task(
                "threshold_2x3",
                lambda theta=theta: bisect_threshold(
                    lambda v: correlations.chsh_protocol_correlation(theta, v)
                ),
                _threshold_check(theta),
            )
        )
    for theta in strata(rng, THRESHOLD_TASKS):
        four = correlations.chsh_arrangement(theta, fourth_bob_setting=True)
        tasks.append(
            Task(
                "threshold_2x4",
                lambda four=four: bisect_threshold(lambda v: correlations.werner_correlation(v, four)),
                _threshold_check(theta),
            )
        )

    for theta in strata(rng, SEGMENT_TASKS):
        v_l = reference.local_visibility(theta)
        v = v_l + float(rng.uniform(0.45, 0.65)) * (1.0 - v_l)

        def segment(theta=theta, v=v):
            corr = correlations.chsh_protocol_correlation(theta, v)
            target = correlations.chsh_protocol_correlation(theta, 1.0)
            return localset.max_local_weight_along(corr, target).q

        def check_segment(q, ref, theta=theta, v=v):
            expected = ref.segment_weight(theta, v)
            expect(abs(q - expected) < 1e-6, f"segment weight {q!r} != (1-v)/(1-v_l) {expected!r}")

        tasks.append(Task("segment_weight", segment, check_segment))

    for i, theta in enumerate(strata(rng, NS_TASKS)):
        v = float(rng.uniform(0.6, 1.0))
        arrangement = correlations.chsh_arrangement(theta, fourth_bob_setting=i % NS_2X4_EVERY == NS_2X4_EVERY - 1)

        def ns(arrangement=arrangement, v=v):
            return localset.max_local_weight_ns(correlations.werner_correlation(v, arrangement)).q

        def check_ns(q, ref, arrangement=arrangement, v=v):
            expected = ref.ns_local_weight_highs(_werner_table(arrangement, v))
            expect(abs(q - expected) < 1e-7, f"NS weight {q!r} != HiGHS {expected!r}")

        tasks.append(Task("ns_weight", ns, check_ns))

    for s, t in _slice_points(rng, SLICE_TASKS):

        def verdict(s=s, t=t):
            return localset.is_local_lp(correlations.slice_correlation(s, t)).is_local

        def check_verdict(is_local, ref, s=s, t=t):
            expect(not is_local, f"zero-key slice point ({s!r}, {t!r}) judged local")

        tasks.append(Task("slice_verdict", verdict, check_verdict))

    def protocol(v):
        return correlations.chsh_protocol_correlation(THETA_LO, v)

    four = correlations.chsh_arrangement(THETA_LO, fourth_bob_setting=True)
    warmups = [
        lambda: localset.is_local_lp(protocol(0.9)),
        lambda: localset.is_local_lp(correlations.werner_correlation(0.9, four)),
        lambda: localset.max_local_weight_along(protocol(0.95), protocol(1.0)),
        lambda: localset.max_local_weight_ns(correlations.werner_correlation(0.9, four)),
        lambda: localset.is_local_lp(correlations.slice_correlation(0.8, 0.5)),
    ]
    return Workload(tasks, warmups)


def _werner_table(arrangement, v):
    """p(a,b|x,y) of the noisy singlet from the Bloch vectors, written out again."""
    n_a, n_b = len(arrangement.alice), len(arrangement.bob)
    table = np.empty((2, 2, n_a, n_b))
    for x, alpha in enumerate(arrangement.alice):
        for y, beta in enumerate(arrangement.bob):
            s = 0.5 * (1.0 - v * float(np.dot(alpha, beta)))
            table[0, 0, x, y] = table[1, 1, x, y] = 0.5 * s
            table[0, 1, x, y] = table[1, 0, x, y] = 0.5 * (1.0 - s)
    return table


# ---------------------------------------------------------------------- sweep

CURVE_TASKS = 10
KEYRATE_THETAS = 10
KEYRATE_VISIBILITIES = 20


def file_digest(path):
    """(sha256 hex digest, size in bytes) of a file, read in 1 MiB blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest(), os.path.getsize(path)


def file_digest_of(path):
    """A capture for CLI tasks: the digest of the file the call wrote."""
    return lambda _out: file_digest(path)


def _parse_csv(path, header_lines):
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    expect(text.endswith("\n"), f"{path}: no final newline")
    lines = text[:-1].split("\n")
    return lines[:header_lines], lines[header_lines:]


def _check_region_file(path, resolution, ref):
    head, rows = _parse_csv(path, 2)
    expect(head == [REGION_COMMENT, "s,t,v,theta,label"], f"{path}: header {head!r}")
    expect(len(rows) == resolution * resolution, f"{path}: {len(rows)} rows")
    fields = [row.rsplit(",", 1) for row in rows]
    labels = np.array([f[1] for f in fields])
    values = np.array(",".join(f[0] for f in fields).split(","), dtype=float).reshape(-1, 4)
    step = 1.0 / (resolution - 1)
    grid = np.arange(resolution) * step
    s = np.tile(grid, resolution)
    t = np.repeat(grid, resolution)
    expected = np.column_stack([s, t, np.hypot(s, t), np.arctan2(t, s)])
    worst = float(np.abs(values - expected).max())
    expect(worst <= 5e-7 + 1e-12, f"{path}: numeric column off by {worst!r}")
    mismatched = int((labels != ref.region_labels(s, t)).sum())
    expect(mismatched == 0, f"{path}: {mismatched} labels disagree with the numpy classification")


def _check_curve_file(path, theta, ref):
    head, rows = _parse_csv(path, 1)
    expect(head == ["v,S,bound"], f"{path}: header {head!r}")
    expect(len(rows) == CURVE_POINTS, f"{path}: {len(rows)} rows")
    values = np.array(",".join(rows).split(","), dtype=float).reshape(-1, 3)
    step = float(CURVE_STEP)
    vs = [min(0.0 + i * step, 1.0) for i in range(CURVE_POINTS)]
    scale = 2.0 * (math.cos(theta) + math.sin(theta))
    expected = np.array([[v, scale * v, ref.keyrate_closed_form(theta, v)] for v in vs])
    worst = float(np.abs(values - expected).max())
    expect(worst <= 1e-6, f"{path}: column off the closed form by {worst!r}")


class FileCheck:
    """Checks a CLI output file once, then each captured digest against it.

    Every pass writes the same path; the CLI is deterministic, so each pass's
    digest must equal that of the file left on disk, which is checked in
    full against the reference.
    """

    def __init__(self, path, check_file):
        self.path = path
        self.check_file = check_file
        self.digest = None

    def __call__(self, captured, ref):
        if self.digest is None:
            self.check_file(self.path, ref)
            self.digest = file_digest(self.path)
        expect(captured == self.digest, f"{self.path}: output differs between passes")


def sweep(seed, out_dir):
    from ccbound import attack, cli, correlations

    import reference

    rng = np.random.default_rng([seed, 3])
    region_tasks, curve_tasks, keyrate_tasks = [], [], []

    def cli_call(argv):
        def call():
            if cli.main(argv) != 0:
                raise CheckFailed(f"ccbound {' '.join(argv)} exited nonzero")

        return call

    for resolution in REGION_RESOLUTIONS:
        path = os.path.join(out_dir, f"region-{resolution}.csv")
        argv = ["region", "--resolution", str(resolution), "--out", path]
        check = FileCheck(path, lambda p, r, res=resolution: _check_region_file(p, res, r))
        region_tasks.append(
            Task(f"region_{resolution}", cli_call(argv), check, file_digest_of(path))
        )

    for i, theta in enumerate(strata(rng, CURVE_TASKS)):
        path = os.path.join(out_dir, f"curve-{i}.csv")
        argv = ["curve", "--theta", repr(theta), "--v-min", "0", "--v-max", "1",
                "--step", CURVE_STEP, "--out", path]
        check = FileCheck(path, lambda p, r, theta=theta: _check_curve_file(p, theta, r))
        curve_tasks.append(Task("curve", cli_call(argv), check, file_digest_of(path)))

    # criterion 3: the tripartite -> relabelling pipeline over a theta x v grid
    for theta in strata(rng, KEYRATE_THETAS):
        v_c = reference.critical_visibility(theta)
        for v in np.linspace(v_c, 1.0, KEYRATE_VISIBILITIES):
            v = float(v)

            def pipeline(theta=theta, v=v):
                observed = correlations.chsh_protocol_correlation(theta, v)
                return attack.keyrate_bound(observed, attack.chsh_attack(theta, v, 1.0))

            def check_pipeline(value, ref, theta=theta, v=v):
                closed = ref.keyrate_closed_form(theta, v)
                expect(abs(value - closed) <= 1e-9, f"pipeline {value!r} != closed form {closed!r}")

            keyrate_tasks.append(Task("keyrate", pipeline, check_pipeline))

    # the short tasks are split around the two long region calls, so their
    # times sample two moments of a pass rather than one
    k, c = len(keyrate_tasks) // 2, len(curve_tasks) // 2
    tasks = (region_tasks[:1] + keyrate_tasks[:k] + curve_tasks[:c]
             + region_tasks[1:] + keyrate_tasks[k:] + curve_tasks[c:])

    warm_region = os.path.join(out_dir, "warmup-region.csv")
    warm_curve = os.path.join(out_dir, "warmup-curve.csv")
    warmups = [
        cli_call(["region", "--resolution", "21", "--out", warm_region]),
        cli_call(["curve", "--step", "0.1", "--out", warm_curve]),
        lambda: attack.keyrate_bound(
            correlations.chsh_protocol_correlation(THETA_LO, 0.9), attack.chsh_attack(THETA_LO, 0.9, 1.0)
        ),
    ]
    return Workload(tasks, warmups)


WORKLOADS = {"intrinsic": intrinsic, "locality": locality, "sweep": sweep}
