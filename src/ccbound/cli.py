"""Command-line interface.

Subcommands: constants, curve, region, bound, intrinsic, localweight.
All outputs use 6-decimal fixed formatting, '.' decimals, ',' separators
and LF line endings so repeated runs are byte-identical.  The environment
variable CCBOUND_SEED overrides the default seed 0 for the
intrinsic-information minimizer; --seed overrides both.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import attack as atk
from . import regions
from ._jsondoc import ATOL
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
    MinimizerError,
    load_distribution,
    minimize_intrinsic,
)
from .localset import LPError, local_visibility, max_local_weight_along, max_local_weight_ns

USER_ERRORS = (
    CorrelationError, DistributionError, atk.AttackError, LPError, MinimizerError, ValueError, OSError,
    MemoryError,
)


def _default_seed() -> int:
    raw = os.environ.get("CCBOUND_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CCBOUND_SEED must be an integer, got {raw!r}") from None


def _resolve_theta(parser: argparse.ArgumentParser, args) -> float:
    theta = args.theta if args.theta_deg is None else math.radians(args.theta_deg)
    if not 0.0 < theta < math.pi / 2:
        parser.error(f"theta must lie strictly between 0 and pi/2, got {theta}")
    return theta


def _output(path):
    """The output as a context manager: stdout for '-' (left open), else the file (closed on exit)."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


# rows a CSV command may write: a larger curve or region is a usage error
MAX_ROWS = 10**7


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

def cmd_curve(parser, args) -> int:
    theta = _resolve_theta(parser, args)
    if not args.step > 0:
        parser.error("--step must be positive")
    if math.isinf(args.step):
        parser.error("--step must be finite")
    if args.v_max < args.v_min or not (0.0 <= args.v_min <= 1.0 and 0.0 <= args.v_max <= 1.0):
        parser.error("visibility range must satisfy 0 <= v-min <= v-max <= 1")
    if (args.v_max - args.v_min + 1e-12) / args.step > MAX_ROWS:
        parser.error(f"--step is too small for the range: more than {MAX_ROWS} rows")
    scale = 2.0 * (math.cos(theta) + math.sin(theta))
    steps = (args.v_min + i * args.step for i in itertools.count())
    vs = (min(v, 1.0) for v in itertools.takewhile(lambda v: v <= args.v_max + 1e-12, steps))
    rows = (f"{v:.6f},{scale * v:.6f},{atk.chsh_keyrate_bound(theta, v):.6f}\n" for v in vs)
    with _output(args.out) as stream:
        stream.write("v,S,bound\n")
        # blocks of rows, so that no more than one block is held in memory
        while block := "".join(itertools.islice(rows, 4096)):
            stream.write(block)
    return 0


# ------------------------------------------------------------------- region


def cmd_region(parser, args) -> int:
    if args.resolution < 2:
        parser.error("--resolution must be at least 2")
    if args.resolution**2 > MAX_ROWS:
        parser.error(f"--resolution is too large: more than {MAX_ROWS} rows")
    grid = regions.region_grid(args.resolution)
    with _output(args.out) as stream:
        regions.write_region_csv(grid, stream)
    return 0


# -------------------------------------------------------------------- bound


def _parse_setting(text: str):
    pair_text, _, weight_text = text.partition(":")
    parts = pair_text.split(",")
    if len(parts) != 2:
        raise ValueError(f"setting must look like 'x,y' or 'x,y:weight', got {text!r}")
    return (int(parts[0]), int(parts[1])), (float(weight_text) if weight_text else None)


def cmd_bound(parser, args) -> int:
    theta = _resolve_theta(parser, args)
    observed = load_correlation(args.correlation)
    if observed.scenario != chsh_arrangement(theta).scenario:
        raise CorrelationError(
            f"correlation scenario {observed.scenario} does not match the theta protocol"
        )
    form = to_correlators(observed)
    visibility = float(form.correlators[0, 2])
    if not 0.0 <= visibility <= 1.0:
        raise atk.AttackError(
            f"inferred visibility {visibility!r} outside [0, 1]; not a protocol correlation"
        )
    if not observed.allclose(chsh_protocol_correlation(theta, visibility), atol=ATOL):
        raise atk.AttackError(
            f"correlation is not the theta protocol at any visibility (mismatch above {ATOL:g})"
        )

    weights = {}
    for text in args.setting or ["0,2"]:
        pair, weight = _parse_setting(text)
        if pair in weights:
            raise ValueError("setting %d,%d is given more than once" % pair)
        weights[pair] = weight
    given = [w for w in weights.values() if w is not None]
    if given and len(given) != len(weights):
        raise ValueError("either give weights for all settings or for none")
    if not given:
        weights = dict.fromkeys(weights, 1.0 / len(weights))

    model = atk.chsh_attack(theta, visibility, args.unknown_fraction, weights)
    total = atk.keyrate_bound(observed, model)
    information = atk.setting_information(model)
    fractions = model.unknown_fractions

    if args.json:
        print(
            json.dumps(
                {
                    "visibility": round(visibility, 12),
                    "local_weight": round(model.decomposition.local_weight, 12),
                    "settings": {
                        f"{x},{y}": {
                            "weight": weight,
                            "unknown_fraction": round(fractions[(x, y)], 12),
                            "conditional_information": round(information[(x, y)], 12),
                        }
                        for (x, y), weight in weights.items()
                    },
                    "bound": round(total, 12),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"visibility = {visibility:.6f}")
        print(f"local_weight = {model.decomposition.local_weight:.6f}")
        for (x, y), weight in weights.items():
            print(
                f"setting {x},{y}: weight = {weight:.6f}, "
                f"unknown_fraction = {fractions[(x, y)]:.6f}, "
                f"conditional_information = {information[(x, y)]:.6f}"
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
    else:
        result = max_local_weight_along(corr, load_correlation(args.target))
    print(f"q_max = {result.q:.6f}")
    if not (args.ns or result.on_segment):
        print("note: no local decomposition along this target")
    if args.out and result.local is None:
        print(f"note: no local component, so {args.out} was not written")
    elif args.out:
        dump_correlation(result.local, args.out)
        print(f"local component written to {args.out}")
    return 0


# --------------------------------------------------------------------- main


JOBS_HELP = "accepted for compatibility and ignored; the sweep runs in one process"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccbound",
        description="Key-rate upper bounds for setting-announcing device-independent QKD "
        "protocols from convex-combination attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_theta(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--theta", type=float, default=math.pi / 4, help="protocol angle in radians (default pi/4)")
        group.add_argument("--theta-deg", type=float, default=None, help="protocol angle in degrees")

    p_const = sub.add_parser("constants", help="print the locality and critical visibilities")
    add_theta(p_const)
    p_const.add_argument("--json", action="store_true")

    p_curve = sub.add_parser("curve", help="key-rate bound curve over a visibility range (CSV)")
    add_theta(p_curve)
    p_curve.add_argument("--v-min", type=float, default=0.65)
    p_curve.add_argument("--v-max", type=float, default=1.0)
    p_curve.add_argument("--step", type=float, default=0.005)
    p_curve.add_argument("--out", default="-", help="output path or '-' for stdout")
    p_curve.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)

    p_region = sub.add_parser("region", help="classify the two-parameter slice grid (CSV)")
    p_region.add_argument("--resolution", type=int, default=201, help="points per axis")
    p_region.add_argument("--out", default="-", help="output path or '-' for stdout")
    p_region.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)

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
        # an overflowing table sum is reported by its own check, in one line
        with np.errstate(over="ignore"):
            code = COMMANDS[args.command](parser, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed early (`ccbound region | head`): stop quietly with
        # the shell's SIGPIPE status, and send the unflushed rest of stdout to
        # devnull so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except USER_ERRORS as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
