#!/usr/bin/env python3
"""Re-measure the baseline table of ROADMAP item 1 with the benchmark's tracer.

    python3 layerbench/baseline.py

Each row runs the configuration the ROADMAP names, prints the value the
ROADMAP recorded and the value measured here.  Counts come from the tracer
and do not depend on the machine; times do.  The region row is timed
without tracing, because per-point wrappers would dominate it.  About 40 s
on one core.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".layerbench")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from ccbound import attack, correlations, infotheory, localset, regions  # noqa: E402

import tracer as tracing  # noqa: E402


def row(what, roadmap, measured):
    print(f"| {what} | {roadmap} | {measured} |", flush=True)


def stats(tracer, name):
    s = tracer.stats.get(name)
    return (s.calls, s.total) if s else (0, 0.0)


def main():
    print("| what | ROADMAP | measured |\n| --- | --- | --- |")
    # untraced rows first: install() below replaces functions for the rest of the process
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        start = time.perf_counter()
        points = regions.region_grid(801)
        classify_s = time.perf_counter() - start
        start = time.perf_counter()
        with open(os.path.join(tmp, "region.csv"), "w", encoding="utf-8", newline="\n") as fh:
            regions.write_region_csv(points, fh)
        write_s = time.perf_counter() - start
        row("`region_grid(801)`", "2.1 s to classify, 1.8 s to write the CSV",
            f"{classify_s:.1f} s to classify, {write_s:.1f} s to write (untraced)")
        del points

        corr = os.path.join(tmp, "corr.json")
        target = os.path.join(tmp, "ideal.json")
        correlations.dump_correlation(correlations.chsh_protocol_correlation(math.pi / 4, 0.8), corr)
        correlations.dump_correlation(correlations.chsh_protocol_correlation(math.pi / 4, 1.0), target)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OMP_NUM_THREADS="1")
        times = {}
        for argv in (["constants"], ["curve", "--out", os.path.join(tmp, "curve.csv")], ["bound", corr],
                     ["localweight", corr, "--target", target], ["region", "--resolution", "801",
                                                                 "--out", os.path.join(tmp, "r.csv")]):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "ccbound.cli"] + argv, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            times[argv[0]] = time.perf_counter() - start
        row("CLI: `constants`, `curve`, `bound`, `localweight` (subprocess)", "0.2-0.3 s each",
            ", ".join(f"{k} {v:.2f} s" for k, v in times.items() if k != "region"))
        row("CLI: `region --resolution 801` (subprocess)", "4.1 s", f"{times['region']:.1f} s")
    p = np.ascontiguousarray(attack.tripartite(attack.cc_chsh(math.pi / 4, 0.72), 0, 2).p)
    infotheory.minimize_intrinsic(infotheory.JointDistribution(p), restarts=0)  # warm-up
    tracer = tracing.Tracer()
    tracing.install(tracer)

    tracer.reset()
    start = time.perf_counter()
    infotheory.minimize_intrinsic(infotheory.JointDistribution(p), restarts=32, seed=0)
    wall = time.perf_counter() - start
    calls, total = stats(tracer, "kernels.cmi_after_map_bits")
    sweeps, sweep_total = stats(tracer, "kernels.sweep_deterministic_maps")
    row("CMI after a map (Python loop)", "97 us", f"{1e6 * total / calls:.0f} us (traced, {calls} calls)")
    row("5^5 deterministic sweep", "152 ms", f"{1e3 * sweep_total / sweeps:.0f} ms")
    row("`minimize_intrinsic` on the criterion-7 input, restarts 32",
        "13.9 s over 86,059 CMI evaluations", f"{wall:.1f} s traced over {calls:,} CMI evaluations")

    rng = np.random.default_rng(42)  # the criterion-5 draws
    draws = []
    for _ in range(20):
        theta = float(rng.uniform(0.15, math.pi / 2 - 0.15))
        v_l = localset.local_visibility(theta)
        draws.append((theta, float(rng.uniform(v_l, 1.0))))
    tracer.reset()
    start = time.perf_counter()
    for theta, v in draws:
        localset.max_local_weight_along(
            correlations.chsh_protocol_correlation(theta, v), correlations.chsh_protocol_correlation(theta, 1.0)
        )
    wall = time.perf_counter() - start
    lps, lp_total = stats(tracer, "kernels.simplex_maximize")
    row("24x56 membership simplex", "0.46-0.79 ms", f"{1e3 * lp_total / lps:.2f} ms mean over {lps} calls")
    row("20 segment-weight solves (criterion-5 draws)", "0.88 s, about 100 LPs each",
        f"{wall:.2f} s traced, {lps / 20:.1f} LPs each")

    print(json.dumps({"python": sys.version.split()[0], "numpy": np.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
