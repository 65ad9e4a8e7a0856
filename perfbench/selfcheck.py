#!/usr/bin/env python3
"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py [--workload <name>] [--seed <n>]

Runs each workload's traced repetition twice with the same seed, each in
a fresh process, and requires every virtual end-to-end result and every
deterministic per-layer count (run.DETERMINISTIC_LAYER) to repeat
exactly. A performance change proves "virtual results unchanged" by
passing this check and by matching the parent commit's values. Exits 0
when everything repeats, 1 otherwise.
"""

import argparse
import os
import shutil
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def traced_values(workload, seed, rep_dir):
    child = bench.spawn(["run", workload, str(seed), rep_dir, "--trace"],
                        bench.fresh_dir(rep_dir), trace=True)
    errors = bench.child_errors(child)
    if errors:
        raise bench.BenchError("%s seed %d: %s" % (workload, seed, errors))
    layer = bench.layer_values(child, rep_dir)
    return child.result["virtual"], {k: layer[k] for k in bench.DETERMINISTIC_LAYER}


def diff(a, b):
    keys = sorted(set(a) | set(b))
    return ["%s: %r != %r" % (k, a.get(k), b.get(k))
            for k in keys if a.get(k) != b.get(k)]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=bench.WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    try:
        bench.build()
    except (bench.BenchError, OSError) as e:
        print("selfcheck: %s" % e, file=sys.stderr)
        return 1
    work = os.path.join(bench.BUILD_ROOT, "selfcheck-%d" % os.getpid())
    failures = 0
    try:
        for workload in [args.workload] if args.workload else bench.WORKLOADS:
            first = traced_values(workload, args.seed, work + "/a")
            second = traced_values(workload, args.seed, work + "/b")
            problems = diff(first[0], second[0]) + diff(first[1], second[1])
            status = "ok" if not problems else "MISMATCH"
            print("%-20s seed %d: %d virtual results, %d layer counts: %s" %
                  (workload, args.seed, len(first[0]), len(first[1]), status))
            for p in problems:
                print("  " + p)
            failures += bool(problems)
    except bench.BenchError as e:
        print("selfcheck: %s" % e)
        failures += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
