#!/usr/bin/env python3
"""Validate the bench JSON artifacts the CI smoke runs record.

CI uploads BENCH_exec.json / BENCH_kernels.json / BENCH_trajectory.json /
BENCH_multiprocess.json / BENCH_strategy.json / BENCH_characterize.json
(via actions/upload-artifact)
so the perf trajectory accumulates run over run; this gate fails the job
when an artifact is missing, malformed, or has lost a metric key — a silent
schema drift would otherwise leave holes in the trend right when a
regression needs investigating.  Correctness invariants the benches assert
internally (bit-identity, <= 1e-12 agreements) are re-checked here from the
recorded values so the artifact itself proves they held.

Runnable locally against any bench output:

    ./bench_sim_kernels --smoke --out kernels.json
    python3 tools/check_bench_trend.py kernels.json

Exit status 0 = every file valid; 1 = any check failed.
"""

import json
import math
import sys

AGREEMENT_BOUND = 1e-12


def fail(path, message):
    print(f"check_bench_trend: {path}: {message}", file=sys.stderr)
    return False


def require_number(path, data, key, *, minimum=None, maximum=None):
    value = data.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return fail(path, f"metric '{key}' missing or non-numeric: {value!r}")
    if not math.isfinite(value):
        return fail(path, f"metric '{key}' is not finite: {value!r}")
    if minimum is not None and value < minimum:
        return fail(path, f"metric '{key}' = {value} below {minimum}")
    if maximum is not None and value > maximum:
        return fail(path, f"metric '{key}' = {value} above {maximum}")
    return True


def check_exec(path, data):
    ok = True
    for key in (
        "naive_ms",
        "checkpointed_ms",
        "warm_cache_ms",
    ):
        ok &= require_number(path, data, key, minimum=0.0)
    for key in (
        "cold_speedup",
        "session_speedup",
        "reanalysis_speedup",
    ):
        ok &= require_number(path, data, key, minimum=0.0)
    ok &= require_number(path, data, "analyzed_gates", minimum=1)
    if data.get("bit_identical") is not True:
        ok = fail(path, "checkpointed run was not bit-identical to naive")
    rows = data.get("threads")
    if not isinstance(rows, list) or not rows:
        ok = fail(path, "metric 'threads' missing or empty")
    else:
        for row in rows:
            ok &= require_number(path, row, "threads", minimum=1)
            ok &= require_number(path, row, "ms", minimum=0.0)
            if row.get("bit_identical_to_1_thread") is not True:
                ok = fail(
                    path,
                    f"threads={row.get('threads')} row not bit-identical "
                    "to the 1-worker report",
                )
    if not isinstance(data.get("simd_active"), str):
        ok = fail(path, "metric 'simd_active' missing")
    return ok


def check_kernels(path, data):
    ok = True
    ok &= require_number(path, data, "qubits", minimum=1)
    for key in ("simd_active", "simd_available"):
        if not isinstance(data.get(key), str) or not data[key]:
            ok = fail(path, f"metric '{key}' missing")
    rows = data.get("simd")
    expected = {
        "unitary_1q",
        "unitary_1q_pair",
        "cx_pair",
        "diag_1q_pair",
        "diag_2q_pair",
        "thermal_block",
        "depol2q_block",
    }
    if not isinstance(rows, list) or not rows:
        ok = fail(path, "per-ISA 'simd' rows missing")
        rows = []
    seen = set()
    for row in rows:
        name = row.get("kernel")
        seen.add(name)
        ok &= require_number(path, row, "scalar_ms", minimum=0.0)
        ok &= require_number(path, row, "best_ms", minimum=0.0)
        ok &= require_number(path, row, "speedup", minimum=0.0)
        ok &= require_number(
            path, row, "max_abs_diff", minimum=0.0, maximum=AGREEMENT_BOUND
        )
    if expected - seen:
        ok = fail(path, f"per-ISA rows missing kernels: {expected - seen}")
    # Diagonal runs: one apply_diag_run sweep against k per-op calls on the
    # active path, k = 1..8, which must agree byte for byte.
    runs = data.get("diag_run")
    if not isinstance(runs, list):
        ok = fail(path, "'diag_run' rows missing")
        runs = []
    ks = set()
    for row in runs:
        ks.add(row.get("k"))
        for key in ("per_op_ms", "run_ms", "speedup"):
            ok &= require_number(path, row, key, minimum=0.0)
        if row.get("identical") is not True:
            ok = fail(path, f"diag_run k={row.get('k')} not byte-identical")
    if set(range(1, 9)) - ks:
        ok = fail(path, f"diag_run rows missing k: {set(range(1, 9)) - ks}")
    # Lane-batch thermal: the historical three passes against the two
    # KernelTable passes on every available path, which must agree byte
    # for byte; the scalar and the active path must both have a row.
    lanes = data.get("lane_thermal")
    if not isinstance(lanes, list):
        ok = fail(path, "'lane_thermal' rows missing")
        lanes = []
    lane_paths = set()
    for row in lanes:
        lane_paths.add(row.get("path"))
        for key in ("three_pass_ms", "two_pass_ms", "speedup"):
            ok &= require_number(path, row, key, minimum=0.0)
        if row.get("identical") is not True:
            ok = fail(
                path, f"lane_thermal on {row.get('path')} not byte-identical"
            )
    missing = {"scalar", data.get("simd_active")} - lane_paths
    if missing:
        ok = fail(path, f"lane_thermal rows missing paths: {missing}")
    # Lane sweep: the lane batch's deferred ops as one lane_sweep pass
    # against the separate passes it replaces, per shape and path, which
    # must agree byte for byte; the scalar and the active path must both
    # have every shape.
    sweeps = data.get("lane_sweep")
    if not isinstance(sweeps, list):
        ok = fail(path, "'lane_sweep' rows missing")
        sweeps = []
    covered = set()
    for row in sweeps:
        covered.add((row.get("path"), row.get("shape")))
        for key in ("separate_ms", "sweep_ms", "speedup"):
            ok &= require_number(path, row, key, minimum=0.0)
        if row.get("identical") is not True:
            ok = fail(
                path,
                f"lane_sweep {row.get('shape')} on {row.get('path')} not "
                "byte-identical",
            )
    shapes = {"damp_sums", "diag_sums", "damp_diag3"}
    for lane_path in {"scalar", data.get("simd_active")}:
        absent = {s for s in shapes if (lane_path, s) not in covered}
        if absent:
            ok = fail(path, f"lane_sweep rows on {lane_path} missing: {absent}")
    # DM alignment: each density-matrix kernel at n = 7..9 on a line-aligned
    # and on a 16-mod-64 vec(rho), which must agree byte for byte; the
    # scalar and the active path must both have every (kernel, n) row.
    # The timings are recorded, not gated.
    aligns = data.get("dm_align")
    if not isinstance(aligns, list):
        ok = fail(path, "'dm_align' rows missing")
        aligns = []
    covered = set()
    for row in aligns:
        covered.add((row.get("path"), row.get("kernel"), row.get("n")))
        for key in ("aligned_ms", "offset16_ms", "speedup"):
            ok &= require_number(path, row, key, minimum=0.0)
        if row.get("identical") is not True:
            ok = fail(
                path,
                f"dm_align {row.get('kernel')} n={row.get('n')} on "
                f"{row.get('path')} not byte-identical",
            )
    kernels = {
        "diag_rowcol",
        "cx_pair",
        "unitary_1q_pair",
        "thermal_block",
        "depol2q_block",
    }
    for align_path in {"scalar", data.get("simd_active")}:
        absent = {
            (k, n)
            for k in kernels
            for n in (7, 8, 9)
            if (align_path, k, n) not in covered
        }
        if absent:
            ok = fail(
                path, f"dm_align rows on {align_path} missing: {sorted(absent)}"
            )
    # Shot sampling: sample_counts against the historical upper_bound
    # loop, which must agree on the counts and the next draw, at every
    # outcome count.
    samples = data.get("sampling")
    if not isinstance(samples, list):
        ok = fail(path, "'sampling' rows missing")
        samples = []
    outcomes = set()
    for row in samples:
        outcomes.add(row.get("outcomes"))
        for key in ("upper_bound_us", "sample_us", "speedup"):
            ok &= require_number(path, row, key, minimum=0.0)
        if row.get("identical") is not True:
            ok = fail(
                path,
                f"sampling at {row.get('outcomes')} outcomes not identical "
                "to the upper_bound loop",
            )
    absent = {8, 32, 128, 512, 16384} - outcomes
    if absent:
        ok = fail(path, f"sampling rows missing outcomes: {absent}")
    ok &= require_number(path, data, "kernel_pair_speedup", minimum=0.0)
    ok &= require_number(path, data, "tape_ops_exact", minimum=1)
    return ok


def check_trajectory(path, data):
    ok = True
    ok &= require_number(path, data, "qubits", minimum=1)
    ok &= require_number(path, data, "trajectories", minimum=1)
    ok &= require_number(path, data, "fusion_width", minimum=2, maximum=3)
    for key in ("simd_active", "simd_available"):
        if not isinstance(data.get(key), str) or not data[key]:
            ok = fail(path, f"metric '{key}' missing")
    for name in ("coherent", "full_noise"):
        row = data.get(name)
        if not isinstance(row, dict):
            ok = fail(path, f"sweep row '{name}' missing")
            continue
        ok &= require_number(path, row, "exact_ms", minimum=0.0)
        ok &= require_number(path, row, "fused_wide_ms", minimum=0.0)
        # The coherent-dominated row is the headline gate: a fused-wide
        # sweep that fails to at least match the exact tape is a
        # regression in the wide-fusion pipeline itself.
        ok &= require_number(
            path, row, "speedup", minimum=1.0 if name == "coherent" else 0.0
        )
        ok &= require_number(
            path, row, "max_abs_diff", minimum=0.0, maximum=AGREEMENT_BOUND
        )
        ok &= require_number(path, row, "tape_ops_exact", minimum=1)
        ok &= require_number(path, row, "tape_ops_fused_wide", minimum=1)
        if (
            ok
            and row["tape_ops_fused_wide"] >= row["tape_ops_exact"]
        ):
            ok = fail(path, f"'{name}': wide fusion did not shrink the tape")
    lanes = data.get("lanes")
    if not isinstance(lanes, dict):
        ok = fail(path, "row 'lanes' missing")
    else:
        ok &= require_number(path, lanes, "qubits", minimum=1)
        ok &= require_number(path, lanes, "loop_ms", minimum=0.0)
        ok &= require_number(path, lanes, "ms", minimum=0.0)
        ok &= require_number(path, lanes, "speedup", minimum=0.0)
        if lanes.get("identical") is not True:
            ok = fail(
                path,
                "'lanes': the lane-batched fold group was not byte-identical "
                "to the one-at-a-time loop",
            )
    rows = data.get("threads")
    if not isinstance(rows, list) or not rows:
        ok = fail(path, "metric 'threads' missing or empty")
    else:
        for row in rows:
            ok &= require_number(path, row, "threads", minimum=1)
            ok &= require_number(path, row, "ms", minimum=0.0)
            if row.get("bit_identical_to_1_thread") is not True:
                ok = fail(
                    path,
                    f"threads={row.get('threads')} sweep not bit-identical "
                    "to the 1-thread fold",
                )
    return ok


def check_multiprocess(path, data):
    ok = True
    ok &= require_number(path, data, "qubits", minimum=1)
    ok &= require_number(path, data, "analyzed_gates", minimum=1)
    ok &= require_number(path, data, "inprocess_ms", minimum=0.0)
    rows = data.get("workers")
    if not isinstance(rows, list) or not rows:
        ok = fail(path, "metric 'workers' missing or empty")
    else:
        for row in rows:
            ok &= require_number(path, row, "workers", minimum=1)
            ok &= require_number(path, row, "ms", minimum=0.0)
            if row.get("bit_identical_to_inprocess") is not True:
                ok = fail(
                    path,
                    f"workers={row.get('workers')} report not bit-identical "
                    "to the in-process sweep",
                )
    kill = data.get("kill_retry")
    if not isinstance(kill, dict):
        ok = fail(path, "fault-injection row 'kill_retry' missing")
    else:
        ok &= require_number(path, kill, "worker_failures", minimum=1)
        ok &= require_number(path, kill, "retried_jobs", minimum=1)
        if kill.get("report_unchanged") is not True:
            ok = fail(
                path, "report changed after a worker was killed mid-shard"
            )
    return ok


def check_strategy(path, data):
    ok = True
    if not isinstance(data.get("simd_active"), str):
        ok = fail(path, "metric 'simd_active' missing")
    families = data.get("families")
    expected = {"qft", "vqe", "random_basis"}
    if not isinstance(families, list) or not families:
        ok = fail(path, "metric 'families' missing or empty")
        families = []
    seen = set()
    for row in families:
        name = row.get("name")
        seen.add(name)
        ok &= require_number(path, row, "qubits", minimum=1)
        ok &= require_number(path, row, "analyzed_gates", minimum=1)
        fixed = row.get("fixed")
        if not isinstance(fixed, dict):
            ok = fail(path, f"family '{name}': 'fixed' timings missing")
        else:
            ok &= require_number(path, fixed, "dm_exact_ms", minimum=0.0)
        ok &= require_number(path, row, "auto_ms", minimum=0.0)
        ok &= require_number(path, row, "best_fixed_ms", minimum=0.0)
        ok &= require_number(path, row, "auto_vs_best", minimum=0.0)
        # The bench applies the 1.1x bound itself (with an absolute floor
        # for sub-millisecond sweeps) and records the verdict; the
        # artifact must prove it held.
        if row.get("auto_within_bound") is not True:
            ok = fail(
                path,
                f"family '{name}': auto exceeded 1.1x of the best fixed "
                f"strategy ({row.get('auto_vs_best')}x)",
            )
        if row.get("auto_cold_bit_identical") is not True:
            ok = fail(
                path,
                f"family '{name}': auto sweep was not bit-identical to "
                "the strategy it picked",
            )
        if row.get("rankings_match") is not True:
            ok = fail(
                path,
                f"family '{name}': strategies disagree on the gate ranking",
            )
        if not isinstance(row.get("auto_pick"), str):
            ok = fail(path, f"family '{name}': 'auto_pick' missing")
    if expected - seen:
        ok = fail(path, f"family rows missing: {expected - seen}")
    adaptive = data.get("adaptive")
    if not isinstance(adaptive, dict):
        ok = fail(path, "metric 'adaptive' missing")
        return ok
    ok &= require_number(path, adaptive, "trajectories_budgeted", minimum=1)
    ok &= require_number(path, adaptive, "trajectories_executed", minimum=1)
    ok &= require_number(path, adaptive, "gates_settled_early", minimum=1)
    ok &= require_number(path, adaptive, "savings_pct", minimum=0.0)
    if ok and adaptive["trajectories_executed"] >= adaptive[
        "trajectories_budgeted"
    ]:
        ok = fail(path, "adaptive budget saved no trajectories")
    if adaptive.get("topk_match") is not True:
        ok = fail(path, "adaptive budget changed the top-k gate ranking")
    return ok


def check_characterize(path, data):
    ok = True
    ok &= require_number(path, data, "qubits", minimum=1)
    ok &= require_number(path, data, "gates", minimum=1)
    ok &= require_number(path, data, "depths", minimum=4)
    ok &= require_number(path, data, "sequences", minimum=1)
    ok &= require_number(path, data, "jobs", minimum=1)
    ok &= require_number(path, data, "checkpointed", minimum=1)
    ok &= require_number(path, data, "checkpoint_fallbacks", minimum=0)
    for key in ("naive_ms", "spliced_ms"):
        ok &= require_number(path, data, key, minimum=0.0)
    for key in ("splice_speedup", "sequences_per_s"):
        ok &= require_number(path, data, key, minimum=0.0)
    # Every germ ladder feeds on the base sweep's snapshots: a reuse ratio
    # near zero means the splice machinery silently stopped engaging.
    ok &= require_number(
        path, data, "checkpoint_reuse_ratio", minimum=0.1, maximum=1.0
    )
    ok &= require_number(
        path, data, "rank_agreement", minimum=-1.0, maximum=1.0
    )
    if data.get("bit_identical") is not True:
        ok = fail(path, "spliced characterization not bit-identical to naive")
    if not isinstance(data.get("simd_active"), str):
        ok = fail(path, "metric 'simd_active' missing")
    return ok


CHECKERS = {
    "exec_batching": check_exec,
    "sim_kernels": check_kernels,
    "trajectory": check_trajectory,
    "exec_multiprocess": check_multiprocess,
    "strategy": check_strategy,
    "characterize": check_characterize,
}


def summarize(path, data):
    bench = data.get("bench")
    if bench == "exec_batching":
        print(
            f"{path}: exec_batching simd={data['simd_active']} "
            f"cold={data['cold_speedup']:.2f}x "
            f"session={data['session_speedup']:.2f}x"
        )
    elif bench == "exec_multiprocess":
        rows = {r["workers"]: r["ms"] for r in data["workers"]}
        speed = ", ".join(
            f"w{w}={data['inprocess_ms'] / ms:.2f}x" if ms > 0 else f"w{w}=inf"
            for w, ms in sorted(rows.items())
        )
        print(
            f"{path}: exec_multiprocess n={data['qubits']} "
            f"inprocess={data['inprocess_ms']:.1f}ms {speed} "
            f"kill_retry_failures={data['kill_retry']['worker_failures']}"
        )
    elif bench == "strategy":
        picks = ", ".join(
            f"{r['name']}={r['auto_pick']}@{r['auto_vs_best']:.2f}x"
            for r in data["families"]
        )
        adaptive = data["adaptive"]
        print(
            f"{path}: strategy simd={data['simd_active']} {picks} "
            f"adaptive_saved={adaptive['savings_pct']:.1f}%"
        )
    elif bench == "characterize":
        print(
            f"{path}: characterize {data['benchmark']} "
            f"gates={data['gates']} seq={data['sequences']} "
            f"splice={data['splice_speedup']:.2f}x "
            f"reuse={data['checkpoint_reuse_ratio']:.2f} "
            f"rank_agreement={data['rank_agreement']:.2f}"
        )
    elif bench == "trajectory":
        print(
            f"{path}: trajectory n={data['qubits']} "
            f"simd={data['simd_active']} "
            f"width={data['fusion_width']} "
            f"coherent={data['coherent']['speedup']:.2f}x "
            f"full_noise={data['full_noise']['speedup']:.2f}x "
            f"lanes={data['lanes']['speedup']:.2f}x"
        )
    else:
        rows = {r["kernel"]: r["speedup"] for r in data["simd"]}
        runs = {r["k"]: r["speedup"] for r in data["diag_run"]}
        lanes = {r["path"]: r["speedup"] for r in data["lane_thermal"]}
        sweeps = {
            r["shape"]: r["speedup"]
            for r in data["lane_sweep"]
            if r["path"] == data["simd_active"]
        }
        samples = {r["outcomes"]: r["speedup"] for r in data["sampling"]}
        aligns = {
            r["kernel"]: r["speedup"]
            for r in data["dm_align"]
            if r["path"] == data["simd_active"] and r["n"] == 8
        }
        print(
            f"{path}: sim_kernels simd={data['simd_active']} "
            f"1q={rows.get('unitary_1q', 0):.2f}x "
            f"1q_pair={rows.get('unitary_1q_pair', 0):.2f}x "
            f"cx_pair={rows.get('cx_pair', 0):.2f}x "
            f"diag_2q_pair={rows.get('diag_2q_pair', 0):.2f}x "
            f"thermal_block={rows.get('thermal_block', 0):.2f}x "
            f"depol2q_block={rows.get('depol2q_block', 0):.2f}x "
            f"pair={data['kernel_pair_speedup']:.2f}x "
            f"diag_run_k4={runs.get(4, 0):.2f}x "
            f"lane_thermal={lanes.get(data['simd_active'], 0):.2f}x "
            f"lane_sweep={sweeps.get('damp_sums', 0):.2f}x/"
            f"{sweeps.get('diag_sums', 0):.2f}x/"
            f"{sweeps.get('damp_diag3', 0):.2f}x "
            f"sampling_8={samples.get(8, 0):.2f}x "
            f"dm_align_diag_8={aligns.get('diag_rowcol', 0):.2f}x"
        )


def check_file(path):
    # A missing or empty artifact is the first run of a fresh trend (no
    # prior history uploaded yet) — seed the baseline instead of failing,
    # so enabling a new bench leg doesn't gate the very run that would
    # produce its first data point.  Malformed *content* stays a failure.
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError:
        print(f"check_bench_trend: {path}: no prior history; seeding baseline")
        return True
    if not text.strip():
        print(f"check_bench_trend: {path}: no prior history; seeding baseline")
        return True
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        return fail(path, f"malformed JSON: {err}")
    if not isinstance(data, dict):
        return fail(path, "top-level JSON value is not an object")
    bench = data.get("bench")
    checker = CHECKERS.get(bench)
    if checker is None:
        return fail(
            path, f"unknown bench id {bench!r} (expected {sorted(CHECKERS)})"
        )
    if not checker(path, data):
        return False
    summarize(path, data)
    return True


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        print("usage: check_bench_trend.py BENCH_FILE...", file=sys.stderr)
        return 2
    ok = True
    for path in argv[1:]:
        ok &= check_file(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
