#!/usr/bin/env python3
"""Self-test of the benchmark's checks: a wrong reference must show as failures.

    python3 layerbench/selftest.py

Runs the first task of each kind of every workload once, then checks the
results twice: against the real references, where nothing may fail, and
against deliberately wrong ones, where failed_ratio must be above zero on
every workload.  A task that raises must be counted as failed without
stopping the checks.  Exits nonzero when any of this does not hold.
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".layerbench")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from worker import check_all, fingerprint  # noqa: E402


class WrongReference:
    """The real references, each off by a small amount."""

    def __getattr__(self, name):
        return getattr(reference, name)

    @staticmethod
    def cmi_after_map_bits(p_abe, rows):
        return reference.cmi_after_map_bits(p_abe, rows) + 1e-6

    @staticmethod
    def local_visibility(theta):
        return reference.local_visibility(theta) + 1e-3

    @staticmethod
    def segment_weight(theta, v):
        return reference.segment_weight(theta, v) + 1e-3

    @staticmethod
    def ns_local_weight_highs(table):
        return reference.ns_local_weight_highs(table) + 1e-3

    @staticmethod
    def keyrate_closed_form(theta, v):
        return reference.keyrate_closed_form(theta, v) + 1e-3

    @staticmethod
    def region_labels(s, t):
        return np.roll(reference.region_labels(s, t), 1)

    @staticmethod
    def in_zero_key_region(s, t):
        return True


def attempt(tasks):
    attempts = []
    for index, task in enumerate(tasks):
        try:
            captured = task.capture(task.call())
        except Exception as exc:
            attempts.append((index, None, exc))
            continue
        attempts.append((index, fingerprint(captured), captured))
    return attempts


def main():
    ok = True
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as out_dir:
        for name, build in workloads.WORKLOADS.items():
            workload = build(1, out_dir)
            seen = set()
            tasks = []
            for task in workload.tasks:
                if task.kind not in seen:
                    seen.add(task.kind)
                    tasks.append(task)

            def broken():
                raise RuntimeError("deliberate failure")

            tasks.append(workloads.Task("broken", broken, lambda result, ref: None))
            attempts = attempt(tasks)
            real, real_errors = check_all(tasks, attempts, reference)
            for task in tasks:  # make each FileCheck read its file again
                if isinstance(task.check, workloads.FileCheck):
                    task.check.digest = None
            wrong, _ = check_all(tasks, attempts, WrongReference())
            n = len(attempts)
            print(f"{name}: {n} tasks; real reference failed {real} (the deliberate one), "
                  f"wrong reference failed_ratio {wrong / n:.3f}")
            if real != 1 or real_errors[0] != "broken: RuntimeError: deliberate failure":
                print(f"  FAIL: real reference should fail only the broken task: {real_errors}")
                ok = False
            if not wrong > 1:
                print("  FAIL: the wrong reference went unnoticed")
                ok = False
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
