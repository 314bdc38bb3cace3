#!/usr/bin/env python3
"""Repository benchmark: simulator speed and modelled Cowbird metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hash-spot --seed 1 --seconds 25 \
        --trace 0

Builds perfbench_driver from the checkout's sources (perfbench/CMakeLists.txt),
then runs the named workload twice: one traced repetition (telemetry hub
attached) and untraced repetitions of the same seed until --seconds of host
time are spent. It checks both against each other and prints every metric by
name with its unit; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics and
writes the host spans and the virtual-time Chrome trace under
<build root>/perfbench-out/<workload>/. The build root is $CARGO_TARGET_DIR,
or .bench_build when unset. See perfbench/README.md for the metric definitions.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hash-spot", "hash-p4", "rack-incast", "chaos-faults")
DRIVER_TIMEOUT_S = 170

END_TO_END = {
    "sim_ops_per_host_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_mops": "Mops",
    "sim_p50_us": "sim_us",
    "sim_p99_us": "sim_us",
    "sim_p999_us": "sim_us",
}

PER_LAYER = {
    "sim.events_per_op": "count",
    "sim.host_ns_per_event": "ns",
    "sim.event_pool_high_water": "count",
    "common.allocs_per_op": "count",
    "common.alloc_bytes_per_op": "bytes",
    "core.issue_refusals_per_kop": "count",
    "core.comm_cpu_share": "ratio",
    "phase.probe_pickup_p50_us": "sim_us",
    "phase.probe_pickup_p99_us": "sim_us",
    "phase.engine_queue_p50_us": "sim_us",
    "phase.engine_queue_p99_us": "sim_us",
    "phase.fabric_pool_p50_us": "sim_us",
    "phase.fabric_pool_p99_us": "sim_us",
    "phase.publish_deliver_p50_us": "sim_us",
    "phase.publish_deliver_p99_us": "sim_us",
    "offload.probe_useful_share": "ratio",
    "offload.hazard_blocked_share": "ratio",
    "spot.ops_per_batch": "count",
    "spot.probes_per_op": "count",
    "spot.core_busy_share": "ratio",
    "p4.packets_recycled_per_op": "count",
    "p4.paused_read_share": "ratio",
    "p4.probes_per_op": "count",
    "p4.gbn_recoveries": "count",
    "rdma.packets_per_op": "count",
    "rdma.retransmissions_per_kop": "count",
    "rdma.cnps_per_kop": "count",
    "rdma.rate_decreases": "count",
    "net.link_bytes_per_op": "bytes",
    "net.switch_ecn_marked_per_kop": "count",
    "net.switch_pfc_pauses_sent": "count",
    "net.switch_egress_drops": "count",
    "net.link_paused_share": "ratio",
    "chaos.faults_injected_per_kop": "count",
    "chaos.crashes_executed": "count",
    "chaos.counters_exact": "bool",
    "chaos.history_check_host_s": "s",
    "telemetry.trace_overhead_share": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds the driver; returns its path. Output to stderr."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(driver, args):
    proc = subprocess.run([driver] + args, stdout=subprocess.PIPE,
                          timeout=DRIVER_TIMEOUT_S, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_spans(path):
    """Prints each host span's self time from the exported span trace."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError):
        return  # the driver's trace-file check already failed the run
    print("host spans (self time):")
    for event in events:
        print("  %-45s %12.6f s" % (event["name"],
                                    event["args"]["self_us"] / 1e6))


def evaluate(traced, untraced):
    """Returns (checks, end-to-end metrics, per-layer metrics)."""
    reps = untraced["reps"]
    t_rep = traced["reps"][0]
    checks = [(c["name"] + (" [" + c["detail"] + "]" if c["detail"] else ""),
               c["ok"], c["ops"]) for c in traced["checks"]]
    for i, rep in enumerate(reps):
        checks.append((
            "untraced rep %d retires the traced run's ops and events" % i,
            rep["fingerprint"] == t_rep["fingerprint"], rep["ops"]))
    checks.append(("deterministic figures identical in every untraced rep",
                   len({(r["allocs"], r["alloc_bytes"]) for r in reps}) == 1,
                   reps[0]["ops"]))

    sim = traced["sim"]
    e2e = {
        "sim_ops_per_host_s": median([r["ops"] / r["window_s"] for r in reps]),
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mib": untraced["peak_rss_kib"] / 1024.0,
        "sim_mops": sim["mops"],
        "sim_p50_us": sim["p50_us"],
        "sim_p99_us": sim["p99_us"],
        "sim_p999_us": sim["p999_us"],
    }

    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(traced["layers"])
    rep = reps[0]
    if rep["events"]:
        layers["sim.events_per_op"] = rep["events"] / rep["ops"]
        layers["sim.host_ns_per_event"] = median(
            [1e9 * r["window_s"] / r["events"] for r in reps])
    layers["common.allocs_per_op"] = rep["allocs"] / rep["ops"]
    layers["common.alloc_bytes_per_op"] = rep["alloc_bytes"] / rep["ops"]
    layers["telemetry.trace_overhead_share"] = (
        t_rep["window_s"] / median([r["window_s"] for r in reps]) - 1.0)
    return checks, e2e, layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    try:
        driver = build(build_root)
    except (OSError, subprocess.CalledProcessError) as err:
        log("perfbench: build failed: %s" % err)
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    export = []
    if args.trace:
        out_dir = os.path.join(build_root, "perfbench-out", args.workload)
        os.makedirs(out_dir, exist_ok=True)
        export = ["--export", out_dir]
    start = time.monotonic()
    try:
        traced = run_driver(driver, common + ["--traced", "1"] + export)
        budget = max(0.0, args.seconds - (time.monotonic() - start))
        untraced = run_driver(driver, common + [
            "--traced", "0", "--budget-s", "%.3f" % budget])
    except (subprocess.SubprocessError, ValueError, IndexError) as err:
        log("perfbench: driver failed: %s" % err)
        return 1

    checks, e2e, layers = evaluate(traced, untraced)
    attempted = t_ops = traced["reps"][0]["ops"]
    attempted += sum(r["ops"] for r in untraced["reps"])
    failed = min(attempted, sum(ops or t_ops for _, ok, ops in checks
                                if not ok))
    correct = all(ok for _, ok, _ in checks)

    if args.trace:
        metrics, units = layers, PER_LAYER
        print_spans(os.path.join(out_dir, "host_spans.json"))
    else:
        metrics, units = e2e, END_TO_END
    print("workload %s seed %d: %d untraced reps, %d ops attempted, %d failed"
          % (args.workload, args.seed, len(untraced["reps"]), attempted,
             failed))
    for name, ok, _ in checks:
        print("  [%s] %s" % ("ok" if ok else "FAIL", name))
    for name, unit in units.items():
        print("  %-34s %16.6f %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
