#!/usr/bin/env python3
"""Smoke test of the repository benchmark at minimum size.

Runs every workload of BENCHMARK.json for one second, untraced and traced,
and fails when a run aborts, reports incorrect output, or prints a result
line that does not match BENCHMARK.json (metric names, units, finite
values). Also checks that a traced run's layers close: other_ms >= 0 and
other_ms <= wall_ms.

Usage, from the repository root:  python3 perfbench/smoke_test.py [WORKLOAD...]
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0 or not lines:
        return ["%s: exit %d, no result; stderr ends:\n%s"
                % (where, proc.returncode, proc.stderr[-2000:])]
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True:
        errors.append("%s: correct is %r" % (where, result.get("correct")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted %r" % (where, result.get("attempted")))
    want = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in want]:
        errors.append("%s: metric names differ from BENCHMARK.json" % where)
    for m in want:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append("%s: %s unit %r" % (where, m["name"], got.get("unit")))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (where, m["name"], value))
        elif not trace and value <= 0:
            errors.append("%s: end-to-end %s is %r" % (where, m["name"], value))
    if trace and not errors:
        wall = metrics["wall_ms"]["value"]
        other = metrics["other_ms"]["value"]
        if not 0 <= other <= wall:
            errors.append("%s: other_ms %r outside [0, wall_ms %r]"
                          % (where, other, wall))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    errors = []
    for workload in workloads:
        for trace in (0, 1):
            errs = check_run(spec, workload, trace)
            print("%-12s trace %d: %s" % (workload, trace,
                                          "ok" if not errs else "FAILED"))
            errors += errs
    for e in errors:
        print("  " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
