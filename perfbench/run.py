#!/usr/bin/env python3
"""Benchmark entry point: builds the charter library, tools and the
benchmark harness from this checkout, runs one workload, checks every
analysis against the stored references, and prints one JSON result line.

    python3 perfbench/run.py --workload dm-sweep --seed 3 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Run it from the root of the checkout.  See perfbench/README.md.

    python3 perfbench/run.py --make-reference service-repeat

regenerates a stored reference (only after a deliberate change of the
numbers the library computes)."""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("dm-sweep", "trajectory-sweep", "service-repeat")
HARNESS_TIMEOUT_S = 170
THREADS = 2  # exec threads every analysis runs on (harness/main.cpp)
# The OpenMP kernels (the coordinator's base sweep) run THREADS wide too.
# A team as wide as the host's 4 vCPUs waits at every barrier for a
# descheduled vCPU: dm-sweep then spread 0.16 across runs, against 0.03
# with 2 threads.
HARNESS_ENV = dict(os.environ, OMP_NUM_THREADS=str(THREADS))

END_TO_END = {"setup_s": "s", "gates_per_s": "gates/s", "peak_rss_mb": "MiB"}

# Per-layer metrics -> unit.  A layer a workload never reaches reads 0.
PER_LAYER = {
    "transpile.compile_s": "s",
    "api.overhead_s": "s",
    "session.prepare_s": "s",
    "backend.lower_s": "s",
    "backend.finalize_s": "s",
    "core.reversal_s": "s",
    "noise.splice_s": "s",
    "noise.tape_ops": "count",
    "exec.base_sweep_s": "s",
    "exec.replay_s": "s",
    "exec.replayed_ops": "count",
    "exec.resume_ratio": "ratio",
    "exec.batch_s": "s",
    "exec.parallel_eff": "ratio",
    "exec.snapshot_mb": "MiB",
    "sim.dm_diag2q_s": "s",
    "sim.dm_diag2q_calls": "count",
    "sim.dm_cx_s": "s",
    "sim.dm_cx_calls": "count",
    "sim.dm_thermal_s": "s",
    "sim.dm_thermal_calls": "count",
    "sim.dm_depol2q_s": "s",
    "sim.dm_depol2q_calls": "count",
    "sim.dm_unitary1q_s": "s",
    "sim.dm_unitary1q_calls": "count",
    "sim.dm_diag1q_s": "s",
    "sim.dm_diag1q_calls": "count",
    "sim.dm_bytes_per_s": "B/s",
    "noise.fused_wide_s": "s",
    "noise.fused_wide_ratio": "ratio",
    "sim.traj_group_s": "s",
    "sim.traj_groups": "count",
    "exec.cache_lookup_us": "us",
    "exec.cache_store_us": "us",
    "exec.disk_load_us": "us",
    "exec.disk_store_us": "us",
    "exec.cache_hit_ratio": "ratio",
    "service.job_p50_s": "s",
    "service.job_p90_s": "s",
    "service.hit_p50_s": "s",
    "service.queue_wait_s": "s",
    "service.rtt_us": "us",
    "service.fetch_s": "s",
    "service.fetch_bytes": "B",
    "service.handle_fetch_us": "us",
    "exec.worker_spawn_s": "s",
    "exec.worker_unit_us": "us",
    "noise.tape_serialize_us": "us",
    "noise.tape_deserialize_us": "us",
    "noise.tape_bytes": "B",
    "sim.snapshot_serialize_us": "us",
    "sim.snapshot_deserialize_us": "us",
    "sim.snapshot_bytes": "B",
    "trace.overhead_pct": "%",
}

# Span name -> metric, reduced over the run's spans of that name.
SPAN_SUM_S = {  # total self time
    "transpile.compile": "transpile.compile_s",
    "backend.lower": "backend.lower_s",
    "backend.finalize": "backend.finalize_s",
    "core.reversal": "core.reversal_s",
    "noise.splice": "noise.splice_s",
    "exec.base_sweep": "exec.base_sweep_s",
    "exec.replay": "exec.replay_s",
    "exec.batch": "exec.batch_s",
    "noise.fused_wide": "noise.fused_wide_s",
    "sim.traj_group": "sim.traj_group_s",
}
SPAN_MEDIAN = {  # median self time, scaled to the metric's unit
    "session.prepare": ("session.prepare_s", 1.0),
    "exec.worker_spawn": ("exec.worker_spawn_s", 1.0),
    "service.fetch": ("service.fetch_s", 1.0),
    "exec.worker_unit": ("exec.worker_unit_us", 1e6),
    "noise.tape_serialize": ("noise.tape_serialize_us", 1e6),
    "noise.tape_deserialize": ("noise.tape_deserialize_us", 1e6),
    "sim.snapshot_serialize": ("sim.snapshot_serialize_us", 1e6),
    "sim.snapshot_deserialize": ("sim.snapshot_deserialize_us", 1e6),
    "exec.cache_lookup": ("exec.cache_lookup_us", 1e6),
    "exec.cache_store": ("exec.cache_store_us", 1e6),
    "exec.disk_load": ("exec.disk_load_us", 1e6),
    "exec.disk_store": ("exec.disk_store_us", 1e6),
    "service.ping": ("service.rtt_us", 1e6),
    "service.handle_fetch": ("service.handle_fetch_us", 1e6),
}
# The serial phases of the decomposed DM analysis (exec.parallel_eff).
SERIAL_PHASES = ("core.reversal", "backend.lower", "exec.base_sweep",
                 "noise.splice", "exec.replay", "backend.finalize")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures (once) and builds the harness and charterd; returns the
    build directory.  Output goes to <build>/build.log."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logpath = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "build.ninja")):
        steps.append(["cmake", "-S", os.path.relpath(HERE), "-B", out,
                      "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target",
                  "perfbench_harness", "charterd"])
    with open(logpath, "a") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(logpath) as f:
                    log(f.read()[-4000:])
                raise SystemExit("perfbench: build failed (%s)" % logpath)
    return out


def stop_group(pgid):
    """Kills whatever is left in the harness's process group and waits (up
    to 5 s) until the group is empty."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_harness(out, argv, timeout=HARNESS_TIMEOUT_S):
    """Runs the harness in its own process group, so that nothing it started
    (charterd, worker children) can outlive the run; returns its records."""
    proc = subprocess.Popen(
        [os.path.join(out, "perfbench_harness")] + argv, cwd=ROOT,
        stdout=subprocess.PIPE, start_new_session=True, text=True,
        env=HARNESS_ENV)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        raise SystemExit("perfbench: harness timed out")
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        raise SystemExit("perfbench: harness failed (exit %d)"
                         % proc.returncode)
    return [json.loads(line) for line in stdout.splitlines() if line]


def reference_path(workload):
    return os.path.join(HERE, "reference", workload + ".json")


def make_reference(workload):
    out = build()
    recs = run_harness(out, ["--workload", workload, "--reference", "1"],
                       timeout=3600)
    entries = {}
    for r in recs:
        if r["type"] == "reference":
            e = {"op": r["op"], "sj": r["sj"]}
            e.update(stats.encode_tvds(r["tvd"]))
            entries["%s/%d" % (r["circuit"], r["seed"])] = e
    # Gates and strategy counts depend on the circuit only: store them once
    # per circuit when every seed agrees.
    circuits = {}
    for key, e in entries.items():
        circuits.setdefault(key.split("/")[0], []).append(e)
    shared = {}
    for c, es in circuits.items():
        if all(e["op"] == es[0]["op"] and e["sj"] == es[0]["sj"] for e in es):
            shared[c] = {"op": es[0]["op"], "sj": es[0]["sj"]}
            for e in es:
                del e["op"], e["sj"]
    with open(reference_path(workload), "w") as f:
        json.dump({"workload": workload, "shots": 8192,
                   "tolerance": stats.TVD_TOLERANCE, "circuits": shared,
                   "entries": entries},
                  f, separators=(",", ":"), sort_keys=True)
        f.write("\n")
    log("wrote %d reference entries to %s"
        % (len(entries), reference_path(workload)))


def check_correctness(recs, workload):
    """(attempted, failed, problems).  Every analysis is one attempted
    operation, and so is every self-check of the traced probes; errors,
    refusals and mismatches count as failed."""
    with open(reference_path(workload)) as f:
        doc = json.load(f)
    ref = {key: dict(doc["circuits"].get(key.split("/")[0], {}), **e)
           for key, e in doc["entries"].items()}
    attempted = failed = 0
    problems = []
    first = {}
    for r in recs:
        kind = r["type"]
        if kind == "error":
            attempted += 1
            failed += 1
            problems.append("%s: %s" % (r["where"], r["what"]))
        elif kind == "check":
            attempted += 1
            if not r["ok"]:
                failed += 1
                problems.append("check failed: " + r["what"])
        elif kind == "analysis":
            attempted += 1
            key = "%s/%d" % (r["circuit"], r["seed"])
            if r["hit"]:
                bad = (stats.compare_hit(r, first[key]) if key in first
                       else ["cache hit before any computation of " + key])
            elif key not in ref:
                bad = ["no reference for " + key]
            else:
                bad = stats.compare_report(r, ref[key])
                first.setdefault(key, r)
            if workload == "service-repeat" and r["repeat"] != r["hit"]:
                bad.append("repeat=%s but hit=%s" % (r["repeat"], r["hit"]))
            if bad:
                failed += 1
                problems.append("%s: %s" % (key, "; ".join(bad)))
    return attempted, failed, problems


def end_to_end(recs, workload):
    analyses = [r for r in recs if r["type"] == "analysis"]
    setups = [r["seconds"] for r in recs if r["type"] == "setup"]
    (rss,) = [r["peak_mb"] for r in recs if r["type"] == "rss"]
    if workload == "service-repeat":
        # Every request served in the window, cache hits included.
        (win,) = [r for r in recs if r["type"] == "window"]
        gates_per_s = (sum(r["gates"] for r in analyses)
                       / (win["end"] - win["start"]))
    else:
        # One pass over the workload's circuits at each circuit's median
        # analysis time: a run that stops mid-pass does not tilt the mix.
        by_circuit = {}
        for r in analyses:
            by_circuit.setdefault(r["circuit"], []).append(r)
        gates = sum(rs[0]["gates"] for rs in by_circuit.values())
        seconds = sum(stats.median([r["latency_s"] for r in rs])
                      for rs in by_circuit.values())
        gates_per_s = gates / seconds
    return {"setup_s": stats.median(setups), "gates_per_s": gates_per_s,
            "peak_rss_mb": rss}


def per_layer(recs, workload):
    m = {name: 0.0 for name in PER_LAYER}
    spans = [r for r in recs if r["type"] == "span"]
    self_t = stats.self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(self_t[s["id"]])
    for name, metric in SPAN_SUM_S.items():
        m[metric] = sum(by_name.get(name, []))
    for name, (metric, scale) in SPAN_MEDIAN.items():
        if by_name.get(name):
            m[metric] = stats.median(by_name[name]) * scale
    m["sim.traj_groups"] = float(len(by_name.get("sim.traj_group", [])))

    layers = {}
    for r in recs:
        if r["type"] == "layer":
            layers[r["name"]] = layers.get(r["name"], 0.0) + r["value"]
        elif r["type"] == "layer_max":
            layers[r["name"]] = max(layers.get(r["name"], 0.0), r["value"])
    for name in ("noise.tape_ops", "exec.replayed_ops", "exec.snapshot_mb",
                 "api.overhead_s"):
        m[name] = layers.get(name, 0.0)
    for kind in ("diag2q", "cx", "thermal", "depol2q", "unitary1q", "diag1q"):
        for suffix in ("_s", "_calls"):
            key = "sim.dm_" + kind + suffix
            m[key] = layers.get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m["exec.resume_ratio"] = ratio(layers.get("exec.resumed", 0.0),
                                   layers.get("exec.resume_jobs", 0.0))
    # Computed, not measured: bytes each kernel must stream over its time.
    m["sim.dm_bytes_per_s"] = ratio(layers.get("sim.dm_bytes", 0.0),
                                    layers.get("sim.dm_all_s", 0.0))
    m["noise.fused_wide_ratio"] = ratio(
        layers.get("noise.fused_wide_ops_out", 0.0),
        layers.get("noise.fused_wide_ops_in", 0.0))
    hits = layers.get("exec.cache_hits", 0.0)
    misses = layers.get("exec.cache_misses", 0.0)
    m["exec.cache_hit_ratio"] = ratio(hits, hits + misses)
    units = len(by_name.get("exec.worker_unit", []))
    m["noise.tape_bytes"] = ratio(layers.get("noise.tape_bytes", 0.0), units)
    m["sim.snapshot_bytes"] = ratio(layers.get("sim.snapshot_bytes", 0.0),
                                    units)
    # The decomposed phases of a circuit ran on one pool worker, kernels
    # serial; exec.batch ran the same jobs of the same circuit (same job id)
    # as Session does, on THREADS workers.  Speedup over one thread, per
    # thread (above 1 where BatchRunner's own OpenMP helps).
    batched = {s["job"] for s in spans if s["name"] == "exec.batch"}
    serial = sum(self_t[s["id"]] for s in spans
                 if s["name"] in SERIAL_PHASES and s["job"] in batched)
    m["exec.parallel_eff"] = ratio(serial, THREADS * m["exec.batch_s"])

    analyses = [r for r in recs if r["type"] == "analysis"]
    if workload == "service-repeat":
        misses, hits_l = stats.split_latencies(analyses)
        m["service.job_p50_s"] = stats.percentile(misses, 0.5)
        m["service.job_p90_s"] = stats.percentile(misses, 0.9)
        m["service.hit_p50_s"] = stats.percentile(hits_l, 0.5)
        m["service.queue_wait_s"] = stats.median(
            [r["latency_s"] - r["actual_ns"] * 1e-9
             for r in analyses if not r["hit"]])
        m["service.fetch_bytes"] = stats.median(
            [r["fetch_bytes"] for r in analyses])
    m["trace.overhead_pct"] = tracing_overhead_pct(analyses)
    return m


def tracing_overhead_pct(analyses):
    """Median latency of traced analyses over untraced ones, per circuit
    (simulated analyses only), averaged over the circuits that have both,
    minus 1, in %."""
    ratios = []
    for c in sorted({r["circuit"] for r in analyses}):
        rs = [r for r in analyses if r["circuit"] == c and not r["hit"]]
        on = [r["latency_s"] for r in rs if r["traced"]]
        off = [r["latency_s"] for r in rs if not r["traced"]]
        if on and off:
            ratios.append(stats.median(on) / stats.median(off))
    return 100.0 * (sum(ratios) / len(ratios) - 1.0) if ratios else 0.0


def summarize_host(recs):
    host = {r["phase"]: r for r in recs if r["type"] == "host"}
    details = [r for r in recs if r["type"] == "detail"]
    return {"host": host, "details": details}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", choices=WORKLOADS)
    args = ap.parse_args()
    os.chdir(ROOT)  # every relative path below is relative to the checkout
    if args.make_reference:
        make_reference(args.make_reference)
        return
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    out = build()
    # Relative to the checkout: charterd's socket lives here, and AF_UNIX
    # paths are limited to 107 bytes.
    work = os.path.relpath(os.path.join(out, "w", str(os.getpid())), ROOT)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        recs = run_harness(out, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--charterd", os.path.join(out, "charter", "charterd"),
            "--work-dir", work])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, problems = check_correctness(recs, args.workload)
    for p in problems[:20]:
        log("perfbench: FAILED " + p)
    if args.trace:
        values, units = per_layer(recs, args.workload), PER_LAYER
    else:
        values, units = end_to_end(recs, args.workload), END_TO_END
    # Run metadata (not metrics), then the result as the last line.
    print(json.dumps(summarize_host(recs), separators=(",", ":")))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
