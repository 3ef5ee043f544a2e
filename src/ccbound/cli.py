"""Command-line interface.

Subcommands: constants, curve, region, bound, intrinsic, localweight.
Run as ``ccbound`` or ``python -m ccbound.cli``; the angle ``--theta`` is in radians.
All outputs use 6-decimal fixed formatting, '.' decimals, ',' separators
and LF line endings so repeated runs are byte-identical: an output depends
only on the arguments and the input files.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import types

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
)
from .infotheory import MinimizerError, load_distribution, minimize_intrinsic
from .localset import LPError, local_visibility, max_local_weight_along, max_local_weight_ns

USER_ERRORS = (LPError, MinimizerError, ValueError, OSError, MemoryError)


def _checked_theta(parser: argparse.ArgumentParser, theta: float) -> float:
    if not 0.0 < theta < math.pi / 2:
        parser.error(f"theta must lie strictly between 0 and pi/2, got {theta}")
    if local_visibility(theta) >= 1.0:
        parser.error(f"theta is too close to 0: cos theta + sin theta rounds to 1, got {theta}")
    return theta


def _output(path):
    """The output as a context manager over a binary stream: the file opened "wb"
    (closed on exit), or for '-' the byte stream under stdout, flushed first (left
    open; a stdout with none, such as an ``io.StringIO``, is written the text)."""
    if path != "-":
        return open(path, "wb")
    text = sys.stdout
    text.flush()
    decoding = types.SimpleNamespace(write=lambda data: text.write(data.decode("ascii")))
    return contextlib.nullcontext(getattr(text, "buffer", decoding))


# rows a CSV command may write: a larger curve or region is a usage error
MAX_ROWS = 10**7
# rows per block of a curve, computed and written together
CURVE_BLOCK = 4096
# a curve row: three "d.dddddd" fields as regions.fixed6_words, joined by commas, then the newline
CURVE_ROW = np.dtype({"names": ["v", "S", "bound"], "formats": ["u8"] * 3, "offsets": [0, 9, 18], "itemsize": 27})


# ---------------------------------------------------------------- constants


def cmd_constants(parser, args) -> int:
    theta = _checked_theta(parser, args.theta)
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
    theta = _checked_theta(parser, args.theta)
    if not args.step > 0:
        parser.error("--step must be positive")
    if math.isinf(args.step):
        parser.error("--step must be finite")
    if args.v_max < args.v_min or not (0.0 <= args.v_min <= 1.0 and 0.0 <= args.v_max <= 1.0):
        parser.error("visibility range must satisfy 0 <= v-min <= v-max <= 1")
    if (args.v_max - args.v_min + 1e-12) / args.step > MAX_ROWS:
        parser.error(f"--step is too small for the range: more than {MAX_ROWS} rows")
    scale = 2.0 * (math.cos(theta) + math.sin(theta))
    rows = np.empty(CURVE_BLOCK, dtype=CURVE_ROW)
    text = rows.view(np.uint8).reshape(CURVE_BLOCK, CURVE_ROW.itemsize)
    text[:, 8:26:9] = ord(",")
    text[:, 26] = ord("\n")
    with _output(args.out) as stream:
        stream.write(b"v,S,bound\n")
        # blocks of rows, so that no more than one block is held in memory;
        # v_min + i * step is kept while <= v_max + 1e-12 and capped at 1
        for first in itertools.count(0, CURVE_BLOCK):
            steps = args.v_min + np.arange(first, first + CURVE_BLOCK) * args.step
            vs = np.minimum(steps[steps <= args.v_max + 1e-12], 1.0)
            out = rows[: len(vs)]
            out["v"] = regions.fixed6_words(vs)
            out["S"] = regions.fixed6_words(scale * vs)
            out["bound"] = regions.fixed6_words(atk.chsh_keyrate_bound(theta, vs))
            stream.write(out.tobytes())
            if len(vs) < CURVE_BLOCK:
                break
    return 0


# ------------------------------------------------------------------- region


def cmd_region(parser, args) -> int:
    if args.resolution < 2:
        parser.error("--resolution must be at least 2")
    if args.resolution**2 > MAX_ROWS:
        parser.error(f"--resolution is too large: more than {MAX_ROWS} rows")
    with _output(args.out) as stream:
        regions.stream_region_csv(args.resolution, stream)
    return 0


# -------------------------------------------------------------------- bound


# weights and fractions are read as float(text) + 0.0, so '-0' gives 0.0, not -0.0
def _parse_setting(text: str):
    pair_text, colon, weight_text = text.partition(":")
    try:
        x, y = map(int, pair_text.split(","))
        return (x, y), (float(weight_text) + 0.0 if colon else None)
    except ValueError:
        raise ValueError(f"setting must look like 'x,y' or 'x,y:weight', got {text!r}") from None


def _parse_fraction(text: str):
    if text == "auto":
        return text
    with contextlib.suppress(ValueError):
        fraction = float(text)
        if 0.0 <= fraction <= 1.0:
            return fraction
    raise ValueError(f"--lambda must be 'auto' or a number in [0, 1], got {text!r}")


def cmd_bound(parser, args) -> int:
    theta = _checked_theta(parser, args.theta)
    observed = load_correlation(args.correlation)
    if observed.scenario != chsh_arrangement(theta).scenario:
        raise CorrelationError(
            f"correlation scenario {observed.scenario} does not match the theta protocol"
        )
    # the key pair's correlator <A_0 B_2> is the protocol's visibility; it
    # sums four entries, so a table within ATOL of the protocol at v = 0 or
    # v = 1 can give it up to 4 ATOL outside [0, 1]
    key = observed.block(0, 2)
    visibility = float(key[0, 0] + key[1, 1] - key[0, 1] - key[1, 0])
    if not -4.0 * ATOL <= visibility <= 1.0 + 4.0 * ATOL:
        raise atk.AttackError(
            f"inferred visibility {visibility!r} outside [0, 1]; not a protocol correlation"
        )
    visibility = min(max(visibility, 0.0), 1.0)
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

    model = atk.chsh_attack(theta, visibility, _parse_fraction(args.unknown_fraction), weights)
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
    result = minimize_intrinsic(dist, restarts=args.restarts, seed=args.seed)
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
    # the file is written before any line is printed, so a failed write prints none
    lines = [f"q_max = {result.q:.6f}"]
    if not (args.ns or result.on_segment):
        lines.append("note: no local decomposition along this target")
    if args.out and result.local is None:
        lines.append(f"note: no local component, so {args.out} was not written")
    elif args.out:
        dump_correlation(result.local, args.out)
        lines.append(f"local component written to {args.out}")
    print("\n".join(lines))
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
        p.add_argument("--theta", type=float, default=math.pi / 4, help="protocol angle in radians (default pi/4)")

    p_const = sub.add_parser("constants", help="print the locality and critical visibilities")
    p_const.set_defaults(run=cmd_constants)
    add_theta(p_const)
    p_const.add_argument("--json", action="store_true")

    p_curve = sub.add_parser("curve", help="key-rate bound curve over a visibility range (CSV)")
    p_curve.set_defaults(run=cmd_curve)
    add_theta(p_curve)
    p_curve.add_argument("--v-min", type=float, default=0.65)
    p_curve.add_argument("--v-max", type=float, default=1.0)
    p_curve.add_argument("--step", type=float, default=0.005)
    p_curve.add_argument("--out", default="-", help="output path or '-' for stdout")

    p_region = sub.add_parser("region", help="classify the two-parameter slice grid (CSV)")
    p_region.set_defaults(run=cmd_region)
    p_region.add_argument("--resolution", type=int, default=201, help="points per axis")
    p_region.add_argument("--out", default="-", help="output path or '-' for stdout")

    p_bound = sub.add_parser("bound", help="attack a protocol correlation from a JSON file")
    p_bound.set_defaults(run=cmd_bound)
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
    p_intr.set_defaults(run=cmd_intrinsic)
    p_intr.add_argument("distribution", help="joint distribution JSON file")
    p_intr.add_argument("--restarts", type=int, default=32)
    p_intr.add_argument("--seed", type=int, default=0)
    p_intr.add_argument("--json", action="store_true")

    p_lw = sub.add_parser("localweight", help="maximal local weight of a correlation")
    p_lw.set_defaults(run=cmd_localweight)
    p_lw.add_argument("correlation", help="correlation JSON file")
    group = p_lw.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", help="nonlocal-part correlation JSON file")
    group.add_argument("--ns", action="store_true", help="generic nonsignaling remainder")
    p_lw.add_argument("--out", default=None, help="write the local component JSON here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflowing table sum is reported by its own check, in one line
        with np.errstate(over="ignore"):
            code = args.run(parser, args)
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


if __name__ == "__main__":
    sys.exit(main())
