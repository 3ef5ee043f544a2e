"""One workload in one fresh process: set up, run passes, check, report.

Run by ``run.py``; not meant to be started by hand.  The process imports
ccbound from ``src/`` of the checkout, builds the workload's inputs from the
seed, makes one warm-up call per task kind and prints ``READY``.  It then
runs passes over the fixed task list for ``--seconds`` (at least one
pass), checks every result outside the timed region and prints
one JSON line with its measurements.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

from calibrate import REFERENCE_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# functions whose calls and self time are reported on every workload
TRACED_FUNCTIONS = (
    "kernels.cmi_after_map_bits",
    "kernels.sweep_deterministic_maps",
    "kernels.conditional_mutual_information_bits",
    "kernels.simplex_maximize",
    "infotheory.minimize_intrinsic",
    "infotheory.apply_map",
    "infotheory.conditional_mutual_information",
    "localset.is_local_lp",
    "localset.max_local_weight_ns",
    "localset.max_local_weight_along",
    "correlations.Correlation",
    "attack.critical_visibility",
    "attack.chsh_keyrate_bound",
    "attack.keyrate_bound",
    "attack.tripartite",
    "regions.classify",
    "cli.main",
)
CLI_SUBCOMMANDS = ("region", "curve")

GROUP_S = 0.025  # task time between two calibrations
# after a group this long, calibrate with the median of three rounds: the
# cost is negligible there, and the first round after a long task can be slow
LONG_GROUP_S = 0.25

# per-layer metrics that count work; they must repeat exactly for a seed
COUNT_SUFFIXES = (".calls", ".maps", ".tableau_bytes", ".bytes_out", "_per_minimize",
                  "_per_segment_weight", ".wrapped_calls", ".bound_mean_bits")


UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us", "ms_per_call": "ms",
         "maps": "count", "tableau_bytes": "B", "bytes_out": "B", "hit_ratio": "ratio",
         "cmi_evals_per_minimize": "count", "lps_per_segment_weight": "count",
         "bound_mean_bits": "bits", "wrapped_calls": "count", "spans": "count"}


TIME_UNITS = ("s", "ms", "us")


def is_count(name):
    return name.endswith(COUNT_SUFFIXES)


def layer_unit(name):
    return UNITS[name.rsplit(".", 1)[-1]]


def layer_metrics(tracer, pass_seconds, scale, vertex_lookups, bytes_out, bound_mean):
    """Per-layer metrics of one traced pass over the task list.

    ``pass_seconds`` is the pass's raw task time; ``scale`` turns the pass's
    raw seconds into reference seconds, and every time is reported in those.
    """
    from tracer import LAYERS

    stats = tracer.stats

    def get(name, field):
        # cli.main is recorded per subcommand, as cli.main.<subcommand>
        return sum(getattr(s, field) for key, s in stats.items() if key == name or key.startswith(name + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in TRACED_FUNCTIONS:
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_time")
    for name in ("kernels.cmi_after_map_bits", "kernels.simplex_maximize"):
        m[f"{name}.us_per_call"] = 1e6 * ratio(get(name, "total"), get(name, "calls"))
    sweep = "kernels.sweep_deterministic_maps"
    m[f"{sweep}.ms_per_call"] = 1e3 * ratio(get(sweep, "total"), get(sweep, "calls"))
    m[f"{sweep}.maps"] = get(sweep, "work")
    m["kernels.simplex_maximize.tableau_bytes"] = get("kernels.simplex_maximize", "work")

    m["infotheory.cmi_evals_per_minimize"] = ratio(
        tracer.calls_beneath("infotheory.minimize_intrinsic", "kernels.cmi_after_map_bits"),
        get("infotheory.minimize_intrinsic", "calls"),
    )
    m["infotheory.minimize_intrinsic.bound_mean_bits"] = bound_mean
    m["localset.lps_per_segment_weight"] = ratio(
        tracer.calls_beneath("localset.max_local_weight_along", "kernels.simplex_maximize"),
        get("localset.max_local_weight_along", "calls"),
    )
    hits, misses = vertex_lookups
    m["localset.vertex_matrix.hit_ratio"] = ratio(hits, hits + misses)

    for sub in CLI_SUBCOMMANDS:
        key = f"cli.main.{sub}"
        m[f"{key}.self_s"] = stats[key].self_time if key in stats else 0.0
    m["cli.bytes_out"] = bytes_out
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s.self_time for key, s in stats.items() if key.startswith(layer + "."))
    m["bench.self_s"] = pass_seconds - tracer.top_level
    for name in m:
        if layer_unit(name) in TIME_UNITS:
            m[name] *= scale
    m["trace.wrapped_calls"] = sum(s.calls for s in stats.values())
    m["trace.spans"] = len(tracer.spans)
    return m


def stamp(seed):
    import numpy

    from ccbound import _jit

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "have_numba": _jit.HAVE_NUMBA,
        "jit_enabled": _jit.JIT_ENABLED,
        "CCBOUND_NO_JIT": os.environ.get("CCBOUND_NO_JIT"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def fingerprint(result):
    """A hashable stand-in for a task result, so equal results are checked once."""
    if hasattr(result, "map") and hasattr(result, "bound"):
        return ("intrinsic", result.bound, result.map.rows.tobytes())
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spans", default=None, help="write the first traced pass's spans here")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        run(args)
    finally:
        shutil.rmtree(args.out_dir, ignore_errors=True)


def run(args):
    from ccbound import localset

    import reference
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    for warmup in workload.warmups:
        warmup()
    vertex_matrix = localset.vertex_matrix  # the cached original, before any wrapping
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    print("READY", flush=True)
    if args.setup_only:
        return

    tasks = workload.tasks
    clock = time.perf_counter
    passes = []
    attempts = []  # (task index, fingerprint or None when it raised, result or exception)
    begin = clock()
    round_s = calibrate(3)  # the loop's time right before the open group of tasks
    while True:
        if tracer is not None:
            tracer.reset()
            info = vertex_matrix.cache_info()
        times = []
        scaled = []  # task times in reference seconds
        group, group_s = [], 0.0
        bytes_out = 0
        bounds = []
        for index, task in enumerate(tasks):
            start = clock()
            try:
                out = task.call()
                error = None
            except Exception as exc:  # a failing task is counted, never fatal
                error = exc
            times.append(clock() - start)
            # a group closes after GROUP_S of task time or at the end of the
            # pass; its tasks are scaled by the loop's mean time around it
            group.append(times[-1])
            group_s += times[-1]
            if group_s >= GROUP_S or index == len(tasks) - 1:
                after = calibrate(3 if group_s >= LONG_GROUP_S else 1)
                factor = REFERENCE_S / (0.5 * (round_s + after))
                scaled += [t * factor for t in group]
                round_s, group, group_s = after, [], 0.0
            if error is None:
                try:
                    captured = task.capture(out)
                except Exception as exc:
                    error = exc
            if error is not None:
                attempts.append((index, None, error))
                continue
            if isinstance(task.check, workloads.FileCheck):
                bytes_out += captured[1]
            if hasattr(captured, "bound"):
                bounds.append(captured.bound)
            attempts.append((index, fingerprint(captured), captured))
        record = {"seconds": sum(scaled), "task_seconds": scaled,
                  "raw_seconds": sum(times), "raw_task_seconds": times}
        bound_mean = statistics.fmean(bounds) if bounds else 0.0
        if bounds:
            record["bound_mean_bits"] = bound_mean
        if tracer is not None:
            cached = vertex_matrix.cache_info()
            lookups = (cached.hits - info.hits, cached.misses - info.misses)
            record["layers"] = layer_metrics(tracer, sum(times), sum(scaled) / sum(times),
                                             lookups, bytes_out, bound_mean)
            if args.spans and len(passes) == 0:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump({"workload": args.workload, "seed": args.seed,
                               "spans": tracer.export_spans()}, fh)
        passes.append(record)
        # stop before a pass that would end after --seconds (one pass always runs)
        elapsed = clock() - begin
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    start = clock()
    failed, errors = check_all(tasks, attempts, reference)
    check_s = clock() - start
    result = {
        "stamp": stamp(args.seed),
        "attempted": len(attempts),
        "failed": failed,
        "errors": errors,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "check_s": check_s,
    }
    print(json.dumps(result), flush=True)


def check_all(tasks, attempts, reference):
    """Count attempts whose result fails its check; each distinct result is checked once."""
    verdicts = {}
    failed = 0
    errors = []
    for index, key, captured in attempts:
        if key is None:
            verdict = f"{tasks[index].kind}: {type(captured).__name__}: {captured}"
        else:
            cache_key = (index, key)
            if cache_key not in verdicts:
                try:
                    tasks[index].check(captured, reference)
                    verdicts[cache_key] = None
                except Exception as exc:
                    verdicts[cache_key] = f"{tasks[index].kind}: {type(exc).__name__}: {exc}"
            verdict = verdicts[cache_key]
        if verdict is not None:
            failed += 1
            if len(errors) < 20:
                errors.append(verdict)
    return failed, errors


if __name__ == "__main__":
    main()
