#!/usr/bin/env python3
"""Layered benchmark of ccbound: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 layerbench/run.py --workload intrinsic --seed 1 --seconds 30 --trace 0
    python3 layerbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in fresh, single-threaded worker processes (worker.py).
With --trace 0 the set-up is measured in several processes and one
process measures passes over the fixed task list for --seconds.  With
--trace 1 the seconds are split over one untraced and two traced processes
with the same seed: the per-layer metrics come from the first traced one,
the work counts of the two must be identical, and the traced against the
untraced pass time gives the tracing overhead.

Times are in reference seconds: each raw time is divided by how long a
fixed calibration loop (calibrate.py) took around it, so the slow and
fast phases of a shared machine cancel out.  The raw times are printed too.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is
nonzero, with no JSON line, when the program under test is missing or a
worker crashes.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S, calibrate
from worker import is_count, layer_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".layerbench")

WORKLOADS = ("intrinsic", "locality", "sweep")
SETUP_SAMPLES = 7  # set-up-only processes, apart from the measuring one
CALIBRATION_ROUNDS = 5  # around each set-up sample
DEADLINE_S = 170.0  # every process of one workload run ends by then

# JIT state the reference numbers were taken with (numba absent here)
REFERENCE_JIT = {"have_numba": False, "jit_enabled": False}

SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
    # every process compiles ccbound from source, so set-up time does not
    # depend on whether an earlier run left bytecode behind
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def start_worker(workload, seed, seconds, trace, setup_only=False, spans=None):
    out_dir = os.path.join(SCRATCH, f"out-{workload}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def run_worker(deadline, *args, **kwargs):
    """(set-up seconds from process start to READY, the worker's result or None when set-up only)."""
    start = time.perf_counter()
    proc = start_worker(*args, **kwargs)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise WorkerError(f"worker did not get ready (said {ready!r})")
        remaining = max(deadline - time.monotonic(), 1.0)
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError("worker passed the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    if kwargs.get("setup_only"):
        return setup_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def setup_sample(deadline, workload, seed):
    """Set-up time of one set-up-only process, in reference seconds.

    The calibration loop runs in this process right before the worker starts
    and right after it has ended, never beside it.
    """
    before = calibrate(CALIBRATION_ROUNDS)
    setup_s, _ = run_worker(deadline, workload, seed, 0, 0, setup_only=True)
    after = calibrate(CALIBRATION_ROUNDS)
    return setup_s, setup_s * REFERENCE_S / (0.5 * (before + after))


def per_task_sum(passes, key):
    """Each task's median over the passes, summed: a slow moment of the
    machine that hits one task in one pass does not count."""
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def end_to_end(workload, seed, seconds, deadline):
    raw_setups, setups = zip(*(setup_sample(deadline, workload, seed) for _ in range(SETUP_SAMPLES)))
    _, result = run_worker(deadline, workload, seed, seconds, 0)
    passes = result["passes"]
    tasks = [t for p in passes for t in p["task_seconds"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (per_task_sum(passes, "task_seconds"), "s"),
        "task_p50_ms": (1e3 * statistics.median(tasks), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    raw_wall = per_task_sum(passes, "raw_task_seconds")
    extra = {"passes": (len(passes), "count"), "tasks": (len(tasks), "count"),
             "raw_setup_s": (statistics.median(raw_setups), "s"),
             "raw_wall_s": (raw_wall, "s"),
             "slowdown": (raw_wall / metrics["wall_s"][0], "ratio"),
             "median_pass_s": (statistics.median(p["seconds"] for p in passes), "s"),
             "check_s": (result["check_s"], "s")}
    if len(tasks) >= 100:
        extra["task_p90_ms"] = (1e3 * statistics.quantiles(tasks, n=10, method="inclusive")[8], "ms")
    if "bound_mean_bits" in passes[0]:
        extra["bound_mean_bits"] = (passes[0]["bound_mean_bits"], "bits")
    return metrics, extra, [result], []


def per_layer(workload, seed, seconds, deadline):
    share = seconds / 3.0
    _, plain = run_worker(deadline, workload, seed, share, 0)
    spans = os.path.join(SCRATCH, f"spans-{workload}-{seed}.json")
    _, traced = run_worker(deadline, workload, seed, share, 1, spans=spans)
    _, again = run_worker(deadline, workload, seed, share, 1)

    problems = []
    first = traced["passes"][0]["layers"]
    for label, result in (("first traced process", traced), ("second traced process", again)):
        for p in result["passes"]:
            for name, value in p["layers"].items():
                if is_count(name) and value != first[name]:
                    problems.append(f"{name}: {value!r} in {label} != {first[name]!r}")
    metrics = {}
    for name in first:
        values = [p["layers"][name] for p in traced["passes"]]
        value = values[0] if is_count(name) else statistics.median(values)
        metrics[name] = (value, layer_unit(name))
    traced_wall = statistics.median(p["seconds"] for p in traced["passes"])
    plain_wall = statistics.median(p["seconds"] for p in plain["passes"])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    extra = {"untraced_wall_s": (plain_wall, "s"), "spans_file": (os.path.relpath(spans, ROOT), "path")}
    return metrics, extra, [plain, traced, again], problems


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest():
    """sha256 over ccbound's sources, which identifies the code where git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "ccbound")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if trace else end_to_end
    metrics, extra, results, problems = measure(workload, seed, seconds, deadline)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    extra["failed_ratio"] = (failed / attempted, "ratio")
    return {
        "workload": workload,
        "stamp": results[0]["stamp"],
        "metrics": metrics,
        "extra": extra,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "problems": problems,
    }


def report(out, trace):
    stamp = dict(out["stamp"], git_sha=git_sha(), src_sha256=src_digest()[:16])
    print(f"== {out['workload']} ({'traced' if trace else 'untraced'})  stamp {json.dumps(stamp)}")
    jit = {k: stamp[k] for k in REFERENCE_JIT}
    if jit != REFERENCE_JIT:
        print(f"!! NOT COMPARABLE with the reference numbers: JIT state {jit}, reference {REFERENCE_JIT}")
    for name, (value, unit) in list(out["metrics"].items()) + list(out["extra"].items()):
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"   {name:<48} {shown} {unit}")
    for line in (out["errors"] + out["problems"])[:20]:
        print(f"   FAILED {line}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ccbound", "__init__.py")):
        print("error: src/ccbound not found; run from the root of a ccbound checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(SCRATCH, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outs = []
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(out, args.trace)
        outs.append(out)

    if len(outs) == 1:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in outs[0]["metrics"].items()}
    else:
        metrics = {f"{o['workload']}.{k}": {"value": v, "unit": u}
                   for o in outs for k, (v, u) in o["metrics"].items()}
    failed = sum(o["failed"] for o in outs)
    print(json.dumps({
        "correct": failed == 0 and not any(o["problems"] for o in outs),
        "attempted": sum(o["attempted"] for o in outs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
