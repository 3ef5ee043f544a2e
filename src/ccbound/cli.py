"""Command-line interface.

Subcommands: constants, curve, region, bound, intrinsic, localweight.
All outputs use 6-decimal fixed formatting, '.' decimals, ',' separators
and LF line endings so repeated runs are byte-identical.  The environment
variable CCBOUND_SEED overrides the default seed 0 for the
intrinsic-information minimizer; --seed overrides both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import attack as atk
from . import regions
from .correlations import (
    CorrelationError,
    chsh_arrangement,
    chsh_protocol_correlation,
    dump_correlation,
    load_correlation,
    to_correlators,
)
from .infotheory import (
    DistributionError,
    apply_map,
    conditional_mutual_information,
    load_distribution,
    minimize_intrinsic,
)
from .localset import LPError, local_visibility, max_local_weight_along, max_local_weight_ns

USER_ERRORS = (CorrelationError, DistributionError, atk.AttackError, LPError, ValueError, OSError)


def _default_seed() -> int:
    raw = os.environ.get("CCBOUND_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CCBOUND_SEED must be an integer, got {raw!r}") from None


def _resolve_theta(parser: argparse.ArgumentParser, args) -> float:
    theta = args.theta
    if getattr(args, "theta_deg", None) is not None:
        theta = math.radians(args.theta_deg)
    if theta is None:
        theta = math.pi / 4
    if not 0.0 < theta < math.pi / 2:
        parser.error(f"theta must lie strictly between 0 and pi/2, got {theta}")
    return theta


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


# ---------------------------------------------------------------- constants


def cmd_constants(parser, args) -> int:
    theta = _resolve_theta(parser, args)
    values = {
        "werner_local_visibility": atk.WERNER_LOCAL_VISIBILITY,
        "werner_nonlocal_visibility": atk.WERNER_NONLOCAL_VISIBILITY,
        "werner_critical_visibility": atk.critical_visibility_werner(),
        "theta": theta,
        "protocol_local_visibility": local_visibility(theta),
        "protocol_critical_visibility": atk.critical_visibility(theta),
    }
    if args.json:
        print(json.dumps({k: round(v, 12) for k, v in values.items()}, indent=2, sort_keys=True))
    else:
        for key, value in values.items():
            print(f"{key} = {value:.6f}")
    return 0


# -------------------------------------------------------------------- curve


def _curve_rows(payload):
    theta, vs = payload
    scale = 2.0 * (math.cos(theta) + math.sin(theta))
    return [
        f"{v:.6f},{scale * v:.6f},{atk.chsh_keyrate_bound(theta, v):.6f}" for v in vs
    ]


def _chunks(items, n):
    size = max(1, (len(items) + n - 1) // n)
    return [items[i : i + size] for i in range(0, len(items), size)]


def cmd_curve(parser, args) -> int:
    theta = _resolve_theta(parser, args)
    if args.step <= 0:
        parser.error("--step must be positive")
    if args.v_max < args.v_min or not (0.0 <= args.v_min <= 1.0 and 0.0 <= args.v_max <= 1.0):
        parser.error("visibility range must satisfy 0 <= v-min <= v-max <= 1")
    vs = []
    v = args.v_min
    while v <= args.v_max + 1e-12:
        vs.append(min(v, 1.0))
        v = args.v_min + (len(vs)) * args.step
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            row_chunks = list(pool.map(_curve_rows, [(theta, c) for c in _chunks(vs, args.jobs)]))
        rows = [row for chunk in row_chunks for row in chunk]
    else:
        rows = _curve_rows((theta, vs))
    stream, owned = _open_out(args.out)
    try:
        stream.write("v,S,bound\n")
        for row in rows:
            stream.write(row + "\n")
    finally:
        if owned:
            stream.close()
    return 0


# ------------------------------------------------------------------- region


def _region_rows(payload):
    resolution, t_indices = payload
    step = 1.0 / (resolution - 1)
    rows = []
    for j in t_indices:
        t = j * step
        for i in range(resolution):
            rows.append(regions.format_point(regions.classify(i * step, t)))
    return rows


def cmd_region(parser, args) -> int:
    if args.resolution < 2:
        parser.error("--resolution must be at least 2")
    t_indices = list(range(args.resolution))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            chunks = _chunks(t_indices, args.jobs)
            row_chunks = list(pool.map(_region_rows, [(args.resolution, c) for c in chunks]))
        rows = [row for chunk in row_chunks for row in chunk]
    else:
        rows = _region_rows((args.resolution, t_indices))
    stream, owned = _open_out(args.out)
    try:
        stream.write("# grid ordering: row-major, t outer loop, s inner loop\n")
        stream.write(regions.CSV_HEADER + "\n")
        for row in rows:
            stream.write(row + "\n")
    finally:
        if owned:
            stream.close()
    return 0


# -------------------------------------------------------------------- bound


def _parse_setting(text: str):
    pair_text, _, weight_text = text.partition(":")
    parts = pair_text.split(",")
    if len(parts) != 2:
        raise ValueError(f"setting must look like 'x,y' or 'x,y:weight', got {text!r}")
    x, y = int(parts[0]), int(parts[1])
    weight = float(weight_text) if weight_text else None
    return (x, y), weight


def cmd_bound(parser, args) -> int:
    theta = _resolve_theta(parser, args)
    observed = load_correlation(args.correlation)
    arrangement = chsh_arrangement(theta)
    if observed.scenario != arrangement.scenario:
        raise CorrelationError(
            f"correlation scenario {observed.scenario} does not match the theta protocol"
        )
    form = to_correlators(observed)
    visibility = float(form.correlators[0, 2])
    if not 0.0 <= visibility <= 1.0:
        raise atk.AttackError(
            f"inferred visibility {visibility!r} outside [0, 1]; not a protocol correlation"
        )
    if not observed.allclose(chsh_protocol_correlation(theta, visibility), atol=1e-9):
        raise atk.AttackError(
            "correlation is not the theta protocol at any visibility (mismatch above 1e-9)"
        )

    settings = [_parse_setting(text) for text in args.setting] if args.setting else [((0, 2), None)]
    pairs = [pair for pair, _ in settings]
    explicit = [w for _, w in settings if w is not None]
    if explicit and len(explicit) != len(settings):
        parser.error("either give weights for all settings or for none")
    weights = explicit if explicit else [1.0 / len(settings)] * len(settings)

    decomposition = atk.cc_chsh(theta, visibility)
    v_local = local_visibility(theta)
    maps = {}
    fractions = {}
    for pair in pairs:
        agreement = atk.ideal_agreement(arrangement, *pair)
        if args.unknown_fraction == "auto":
            try:
                fraction = atk.solve_unknown_fraction(visibility, v_local, agreement)
            except atk.BalanceInfeasibleError:
                fraction = 1.0
        else:
            fraction = float(args.unknown_fraction)
        maps[pair] = atk.eve_map(agreement, fraction)
        fractions[pair] = fraction
    model = atk.AttackModel(decomposition, maps, dict(zip(pairs, weights)))
    total = atk.keyrate_bound(observed, model)

    per_setting = {}
    for pair in pairs:
        joint = atk.tripartite(decomposition, *pair)
        per_setting[pair] = conditional_mutual_information(apply_map(joint, maps[pair]))

    if args.json:
        print(
            json.dumps(
                {
                    "visibility": round(visibility, 12),
                    "local_weight": round(decomposition.local_weight, 12),
                    "settings": {
                        f"{x},{y}": {
                            "weight": weights[i],
                            "unknown_fraction": round(fractions[(x, y)], 12),
                            "conditional_information": round(per_setting[(x, y)], 12),
                        }
                        for i, (x, y) in enumerate(pairs)
                    },
                    "bound": round(total, 12),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"visibility = {visibility:.6f}")
        print(f"local_weight = {decomposition.local_weight:.6f}")
        for i, pair in enumerate(pairs):
            x, y = pair
            print(
                f"setting {x},{y}: weight = {weights[i]:.6f}, "
                f"unknown_fraction = {fractions[pair]:.6f}, "
                f"conditional_information = {per_setting[pair]:.6f}"
            )
        print(f"bound = {total:.6f}")
    return 0


# ---------------------------------------------------------------- intrinsic


def cmd_intrinsic(parser, args) -> int:
    dist = load_distribution(args.distribution)
    seed = args.seed if args.seed is not None else _default_seed()
    result = minimize_intrinsic(dist, restarts=args.restarts, seed=seed)
    if args.json:
        print(
            json.dumps(
                {
                    "bound": round(result.bound, 12),
                    "map": [[round(v, 12) for v in row] for row in result.map.rows.tolist()],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"bound = {result.bound:.6f}")
        print("map:")
        for row in result.map.rows:
            print("  " + " ".join(f"{v:.6f}" for v in row))
    return 0


# -------------------------------------------------------------- localweight


def cmd_localweight(parser, args) -> int:
    corr = load_correlation(args.correlation)
    if args.ns:
        result = max_local_weight_ns(corr)
        q, local = result.q, result.local
        note = None
    else:
        target = load_correlation(args.target)
        if target.scenario != corr.scenario:
            raise CorrelationError("correlation and target have mismatched scenarios")
        result = max_local_weight_along(corr, target)
        q, local = result.q, result.local
        note = None if result.on_segment else "no local decomposition along this target"
    print(f"q_max = {q:.6f}")
    if note:
        print(f"note: {note}")
    if args.out and local is not None:
        dump_correlation(local, args.out)
        print(f"local component written to {args.out}")
    return 0


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccbound",
        description="Key-rate upper bounds for setting-announcing device-independent QKD "
        "protocols from convex-combination attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_theta(p):
        p.add_argument("--theta", type=float, default=None, help="protocol angle in radians (default pi/4)")
        p.add_argument("--theta-deg", type=float, default=None, help="protocol angle in degrees")

    p_const = sub.add_parser("constants", help="print the locality and critical visibilities")
    add_theta(p_const)
    p_const.add_argument("--json", action="store_true")

    p_curve = sub.add_parser("curve", help="key-rate bound curve over a visibility range (CSV)")
    add_theta(p_curve)
    p_curve.add_argument("--v-min", type=float, default=0.65)
    p_curve.add_argument("--v-max", type=float, default=1.0)
    p_curve.add_argument("--step", type=float, default=0.005)
    p_curve.add_argument("--out", default="-", help="output path or '-' for stdout")
    p_curve.add_argument("--jobs", type=int, default=1)

    p_region = sub.add_parser("region", help="classify the two-parameter slice grid (CSV)")
    p_region.add_argument("--resolution", type=int, default=201, help="points per axis")
    p_region.add_argument("--out", default="-", help="output path or '-' for stdout")
    p_region.add_argument("--jobs", type=int, default=1)

    p_bound = sub.add_parser("bound", help="attack a protocol correlation from a JSON file")
    p_bound.add_argument("correlation", help="correlation JSON file")
    add_theta(p_bound)
    p_bound.add_argument(
        "--lambda",
        dest="unknown_fraction",
        default="auto",
        help="fraction of mismatched local symbols to hide: 'auto' or a value in [0,1]",
    )
    p_bound.add_argument(
        "--setting",
        action="append",
        help="key setting pair 'x,y' or 'x,y:weight'; repeatable (default 0,2)",
    )
    p_bound.add_argument("--json", action="store_true")

    p_intr = sub.add_parser("intrinsic", help="minimize I(A:B|F) for a joint distribution file")
    p_intr.add_argument("distribution", help="joint distribution JSON file")
    p_intr.add_argument("--restarts", type=int, default=32)
    p_intr.add_argument("--seed", type=int, default=None, help="overrides CCBOUND_SEED (default 0)")
    p_intr.add_argument("--json", action="store_true")

    p_lw = sub.add_parser("localweight", help="maximal local weight of a correlation")
    p_lw.add_argument("correlation", help="correlation JSON file")
    group = p_lw.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", help="nonlocal-part correlation JSON file")
    group.add_argument("--ns", action="store_true", help="generic nonsignaling remainder")
    p_lw.add_argument("--out", default=None, help="write the local component JSON here")

    return parser


COMMANDS = {
    "constants": cmd_constants,
    "curve": cmd_curve,
    "region": cmd_region,
    "bound": cmd_bound,
    "intrinsic": cmd_intrinsic,
    "localweight": cmd_localweight,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](parser, args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
