#!/usr/bin/env python3
"""Repository benchmark: three fibers-engine workloads, one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
rcc_perfbench child binary from source under .bench_build/perfbench;
later calls rebuild incrementally. Every repetition of a workload runs
in a fresh child process (peak RSS from wait4, no process-global state
carried over). The run repeats until --seconds is spent (at least
MIN_REPS repetitions) and reports medians.

--trace 0 prints the end-to-end metrics; --trace 1 runs the layer probes
and a traced repetition next to untraced ones and prints the per-layer
metrics. Human-readable lines come first; the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads, metric definitions and the layer -> metric -> workload map
are in perfbench/README.md.
"""

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "rcc_perfbench")

WORKLOADS = ("upscale_1024", "recovery_matrix_96", "serve_64")
MIN_REPS = 3          # repetitions per measured run, at least
CHILD_TIMEOUT_S = 140
RUN_CAP_S = 150       # stop starting repetitions after this much time
RUN_LIMIT_S = 170     # kill a child still running this long after the build

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virtual_completion_s": "virtual_s",
    "ulfm_recovery_s": "virtual_s",
}

# Per-layer metric -> unit. Values that come straight from the metrics
# registry are listed in REGISTRY_SUMS below.
PER_LAYER_UNITS = {
    "sim.fabric.send_recv_ns": "ns",
    "sim.engine.park_wake_ns": "ns",
    "sim.cluster_setup_s": "s",
    "coll.ops": "count",
    "coll.bytes": "bytes",
    "coll.ops_failed": "count",
    "coll.service_vs": "virtual_s",
    "coll.queue_wait_vs": "virtual_s",
    "coll.allreduce_host_us.p50": "us",
    "coll.allreduce_host_us.p99": "us",
    "ulfm.repairs": "count",
    "ulfm.replayed_ops": "count",
    "ulfm.revoke_vs": "virtual_s",
    "ulfm.agree_vs": "virtual_s",
    "ulfm.shrink_vs": "virtual_s",
    "ulfm.expand_vs": "virtual_s",
    "ulfm.repair_host_ms.process": "ms",
    "ulfm.repair_host_ms.node": "ms",
    "kvstore.ops": "count",
    "kvstore.rendezvous_vs": "virtual_s",
    "horovod.reinit_vs": "virtual_s",
    "horovod.rendezvous_vs": "virtual_s",
    "horovod.recompute_vs": "virtual_s",
    "nccl.reinit_vs": "virtual_s",
    "checkpoint.state_sync_vs": "virtual_s",
    "core.driver_host_s": "s",
    "core.driver_host_s.max": "s",
    "core.step_compute_vs": "virtual_s",
    "core.step_comm_exposed_vs": "virtual_s",
    "core.admission_vs": "virtual_s",
    "serve.decode_steps": "count",
    "serve.decode_replays": "count",
    "serve.host_us_per_step": "us",
    "serve.rss_kb_per_step": "KB",
    "serve.recovery_vs": "virtual_s",
    "serve.capacity_rps": "1/virtual_s",
    "serve.utilisation": "ratio",
    "obs.flight_events": "count",
    "trace.events": "count",
    "obs.flight_overhead_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
}

# metric -> list of (registry family, label filter, column). Counters use
# the "value" column, histograms the "sum" (or "count") column; every
# matching label set is summed.
REGISTRY_SUMS = {
    "coll.ops": [("rcc_coll_ops_total", None, "value"),
                 ("rcc_collective_ops_total", None, "value")],
    "coll.bytes": [("rcc_collective_bytes_total", None, "value")],
    "coll.ops_failed": [("rcc_coll_ops_failed_total", None, "value")],
    "coll.service_vs": [("rcc_coll_service_seconds", None, "sum")],
    "coll.queue_wait_vs": [("rcc_coll_queue_wait_seconds", None, "sum")],
    "ulfm.repairs": [("rcc_recovery_repairs_total", None, "value")],
    "ulfm.replayed_ops": [("rcc_recovery_replayed_ops_total", None, "value")],
    "ulfm.revoke_vs": [("rcc_recovery_phase_seconds", 'phase="revoke"', "sum")],
    "ulfm.agree_vs": [("rcc_recovery_phase_seconds", 'phase="agree"', "sum")],
    "ulfm.shrink_vs": [("rcc_recovery_phase_seconds", 'phase="shrink"', "sum")],
    "kvstore.ops": [("rcc_kv_ops_total", None, "value")],
    "kvstore.rendezvous_vs": [("rcc_rendezvous_seconds", None, "sum")],
    "horovod.reinit_vs": [
        ("rcc_phase_seconds", 'phase="recovery/catch_exception"', "sum"),
        ("rcc_phase_seconds", 'phase="recovery/shutdown"', "sum"),
        ("rcc_phase_seconds", 'phase="recovery/elastic_reinit"', "sum"),
        ("rcc_phase_seconds", 'phase="recovery/gloo_reinit"', "sum")],
    "horovod.rendezvous_vs": [
        ("rcc_phase_seconds", 'phase="recovery/rendezvous_local"', "sum"),
        ("rcc_phase_seconds", 'phase="recovery/rendezvous_global"', "sum")],
    "horovod.recompute_vs": [
        ("rcc_phase_seconds", 'phase="recovery/recompute"', "sum")],
    "nccl.reinit_vs": [
        ("rcc_phase_seconds", 'phase="recovery/nccl_reinit"', "sum")],
    "checkpoint.state_sync_vs": [
        ("rcc_phase_seconds", 'phase="recovery/state_sync"', "sum")],
    "core.step_compute_vs": [("rcc_step_compute_seconds_total", None, "value")],
    "core.step_comm_exposed_vs": [
        ("rcc_step_comm_exposed_seconds_total", None, "value")],
    "core.admission_vs": [("rcc_admission_latency_seconds", None, "sum")],
    "serve.decode_replays": [("rcc_serve_decode_replays_total", None, "value")],
    "serve.recovery_vs": [("rcc_serve_recovery_seconds_total", None, "value")],
}

# Per-layer values that are deterministic for a given (workload, seed):
# the determinism self-check compares these exactly.
DETERMINISTIC_LAYER = sorted(
    list(REGISTRY_SUMS) +
    ["ulfm.expand_vs", "serve.decode_steps", "obs.flight_events",
     "trace.events"])


class BenchError(Exception):
    pass


# Set once the build is done: no child outlives it.
_deadline = None


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# Build.

def build():
    """Configures (once) and builds rcc_perfbench; raises on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    logf = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rcc_perfbench",
                  "-j", jobs])
    with open(logf, "w") as out:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                                 cwd=ROOT)
            if rc != 0:
                if cmd[1] == "-S":
                    # A failed configure leaves a cache behind; start
                    # clean next time.
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                with open(logf) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build failed (%s):\n%s" % (" ".join(cmd), tail))
    if not os.access(BINARY, os.X_OK):
        raise BenchError("build produced no %s" % BINARY)


# ---------------------------------------------------------------------------
# Child processes.

def child_env(run_dir, trace):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RCC_")}
    env["RCC_SIM_ENGINE"] = "fibers"
    env["RCC_FLIGHT_DIR"] = run_dir
    if trace:
        env["RCC_TRACE_JSON"] = os.path.join(run_dir, "trace.json")
    return env


class Child:
    """One finished child: host wall time, peak RSS and its RESULT."""

    def __init__(self, wall_s, maxrss_kb, status, result, spawn_mono, log):
        self.wall_s = wall_s
        self.maxrss_kb = maxrss_kb
        self.status = status
        self.result = result
        self.spawn_mono = spawn_mono
        self.log = log

    @property
    def ok(self):
        return self.status == 0 and self.result is not None

    @property
    def setup_s(self):
        return self.result["setup_end_mono"] - self.spawn_mono


def spawn(args, run_dir, trace=False):
    """Runs the child binary to completion; peak RSS comes from wait4."""
    out_path = os.path.join(run_dir, "child.out")
    err_path = os.path.join(run_dir, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([BINARY] + args, stdout=out, stderr=err,
                                cwd=run_dir, env=child_env(run_dir, trace))
        box = {}

        def reap():
            box["wait"] = os.wait4(proc.pid, 0)
            box["t1"] = time.monotonic()

        waiter = threading.Thread(target=reap)
        waiter.start()
        timeout = CHILD_TIMEOUT_S
        if _deadline is not None:
            timeout = max(1.0, min(timeout, _deadline - time.monotonic()))
        waiter.join(timeout)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
        _, status, rusage = box["wait"]
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    with open(err_path) as f:
        err_text = f.read()
    result = None
    for line in text.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return Child(box["t1"] - t0, rusage.ru_maxrss, proc.returncode, result,
                 t0, (text + err_text)[-2000:])


# ---------------------------------------------------------------------------
# Aggregation helpers.

def median(values):
    return statistics.median(values) if values else 0.0


def registry_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def registry_sum(rows, family, label_filter, column):
    total = 0.0
    for row in rows:
        if row["metric"] != family:
            continue
        if label_filter is not None and label_filter not in row["labels"]:
            continue
        cell = row.get(column) or ""
        if cell:
            total += float(cell)
    return total


def trace_stats(run_dir):
    """Event count and summed ulfm_expand duration over kept traces."""
    events = 0
    expand_us = 0.0
    for name in sorted(os.listdir(run_dir)):
        if not (name.startswith("trace_") and name.endswith(".json")):
            continue
        with open(os.path.join(run_dir, name)) as f:
            doc = json.load(f)
        for ev in doc.get("traceEvents", []):
            events += 1
            if ev.get("name") == "recovery/ulfm_expand":
                expand_us += float(ev.get("dur", 0.0))
    return events, expand_us * 1e-6


def layer_values(child, run_dir):
    """Deterministic per-layer values of one traced repetition."""
    rows = registry_rows(os.path.join(run_dir, "registry.csv"))
    values = {}
    for metric, parts in REGISTRY_SUMS.items():
        values[metric] = sum(registry_sum(rows, *p) for p in parts)
    events, expand_vs = trace_stats(run_dir)
    values["trace.events"] = float(events)
    values["ulfm.expand_vs"] = expand_vs
    layer = child.result["layer"]
    values["serve.decode_steps"] = float(layer.get("serve.decode_steps", 0.0))
    values["obs.flight_events"] = float(layer["obs.flight_events"])
    return values


def child_errors(child):
    if not child.ok:
        return ["child exited with status %s: %s" % (child.status, child.log)]
    errs = list(child.result.get("errors", []))
    if child.result.get("failed", 0):
        errs.append("%d of %d units failed" % (child.result["failed"],
                                               child.result["attempted"]))
    return errs


class Tally:
    """Correctness over every repetition of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None  # virtual outputs every repetition must repeat

    def add(self, child, label):
        errs = child_errors(child)
        if child.ok:
            self.attempted += int(child.result["attempted"])
            self.failed += int(child.result["failed"])
            virt = child.result["virtual"]
            if self.reference is None:
                self.reference = virt
            elif virt != self.reference:
                errs.append("virtual results differ between repetitions of "
                            "the same seed")
        else:
            self.attempted += 1
            self.failed += 1
        self.errors += ["%s: %s" % (label, e) for e in errs]

    @property
    def correct(self):
        return not self.errors and self.attempted > 0


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def repetitions(budget_s, started, durations, done):
    """True while another repetition fits the time budget."""
    elapsed = time.monotonic() - started
    if elapsed > RUN_CAP_S:
        return False
    if done < MIN_REPS:
        return True
    return elapsed + median(durations) <= budget_s


# ---------------------------------------------------------------------------
# Runs.

def measured_run(workload, seed, seconds, run_dir):
    tally = Tally()
    setups, walls, rss = [], [], []
    started = time.monotonic()
    while repetitions(seconds, started, walls, len(walls)):
        rep_dir = fresh_dir(run_dir + "/rep")
        c = spawn(["run", workload, str(seed), rep_dir], rep_dir)
        tally.add(c, "rep %d" % len(walls))
        if not c.ok:
            break
        walls.append(c.wall_s)
        rss.append(c.maxrss_kb / 1024.0)
        setups.append(c.setup_s)
    virt = tally.reference or {}
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "peak_rss_mb": median(rss),
        "virtual_completion_s": virt.get("virtual_completion_s", 0.0),
        "ulfm_recovery_s": virt.get("ulfm_recovery_s", 0.0),
    }
    report_end_to_end(workload, seed, walls, setups, rss, virt, tally)
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced_run(workload, seed, seconds, run_dir):
    tally = Tally()
    probe = spawn(["probe", workload, str(seed)], fresh_dir(run_dir + "/p"))
    if not probe.ok:
        tally.add(probe, "probe")
    probe_values = probe.result if probe.ok else {}
    if probe.ok and probe_values.get("ulfm.repair_probe_ok") != 1:
        tally.errors.append("probe: ULFM repair probe did not shrink cleanly")

    kinds = [("traced", ["--trace"]), ("plain", []), ("noflight", ["--no-flight"])]
    walls = {k: [] for k, _ in kinds}
    layers, spans, all_walls = None, None, []
    started = time.monotonic()
    i = 0
    while repetitions(seconds, started, all_walls, i):
        kind, flags = kinds[i % len(kinds)]
        rep_dir = fresh_dir(run_dir + "/rep")
        c = spawn(["run", workload, str(seed), rep_dir] + flags, rep_dir,
                  trace=kind == "traced")
        tally.add(c, "%s rep" % kind)
        if not c.ok:
            break
        walls[kind].append(c.wall_s)
        all_walls.append(c.wall_s)
        if kind == "traced" and layers is None:
            layers = dict(c.result["layer"])
            layers.update(layer_values(c, rep_dir))
            with open(os.path.join(rep_dir, "spans.json")) as f:
                spans = json.load(f)
        i += 1
    if layers is None:
        layers = {}
        tally.errors.append("no traced repetition completed")

    def overhead(kind, base):
        if not walls[kind] or not walls[base]:
            return 0.0
        return median(walls[kind]) / median(walls[base]) - 1.0

    values = {}
    for name in PER_LAYER_UNITS:
        values[name] = float(layers.get(name, probe_values.get(name, 0.0)))
    values["obs.flight_overhead_frac"] = overhead("plain", "noflight")
    values["bench.trace_overhead_frac"] = overhead("traced", "plain")
    if spans is not None:
        keep = os.path.join(BUILD_ROOT, "trace")
        os.makedirs(keep, exist_ok=True)
        with open(os.path.join(keep, "%s-s%d.spans.json" % (workload, seed)),
                  "w") as f:
            json.dump(spans, f, indent=1)
    report_layers(workload, seed, values, layers, walls, tally)
    return tally, {k: (v, PER_LAYER_UNITS[k]) for k, v in values.items()}


# ---------------------------------------------------------------------------
# Human-readable report (everything before the final JSON line).

def report_end_to_end(workload, seed, walls, setups, rss, virt, tally):
    log("perfbench %s seed=%d: %d repetitions" % (workload, seed, len(walls)))
    log("  %-28s %12.4f s   (median of %d; min %.4f max %.4f)" %
        ("wall_s", median(walls), len(walls), min(walls or [0]),
         max(walls or [0])))
    log("  %-28s %12.4f s   (median of %d)" % ("setup_s", median(setups),
                                               len(setups)))
    log("  %-28s %12.1f MB" % ("peak_rss_mb", median(rss)))
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    log("  %-28s %12.4f     (%d failed of %d attempted)" %
        ("failed_frac", frac, tally.failed, tally.attempted))
    units = {"ttft_p50_ms": "virtual_ms", "ttft_p99_ms": "virtual_ms",
             "recovery_goodput_tok_per_s": "tok/virtual_s",
             "ttft_samples": "count", "decode_steps": "count",
             "victim": "pid"}
    for key in sorted(virt):
        log("  %-28s %12.6f %s" % (key, virt[key], units.get(key, "virtual_s")))
    for e in tally.errors:
        log("  ERROR %s" % e)


def report_layers(workload, seed, values, layers, walls, tally):
    log("perfbench %s seed=%d traced: repetitions %s" %
        (workload, seed, {k: len(v) for k, v in walls.items()}))
    for name in PER_LAYER_UNITS:
        log("  %-30s %16.6f %s" % (name, values[name], PER_LAYER_UNITS[name]))
    for name in sorted(layers):
        if name.startswith("core.cell_host_s."):
            log("  %-30s %16.6f s" % (name, layers[name]))
    for e in tally.errors:
        log("  ERROR %s" % e)


# ---------------------------------------------------------------------------

def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        build()
    except (BenchError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    global _deadline
    _deadline = time.monotonic() + RUN_LIMIT_S

    run_dir = os.path.join(BUILD_ROOT, "runs",
                           "%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    fresh_dir(run_dir)
    try:
        run = traced_run if args.trace else measured_run
        tally, metrics = run(args.workload, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
