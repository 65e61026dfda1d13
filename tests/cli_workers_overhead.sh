#!/usr/bin/env bash
# Multi-process overhead check, run by CTest as `cli_workers_overhead`.
#
# `charter analyze --workers 2` must not be dramatically slower than the
# same analysis in-process.  Worker children and the parent's driver threads
# run their kernels serially; when they ran OpenMP-wide, every child's team
# fought the others for the cores and this run took tens to hundreds of
# times as long.  Spawning
# and IPC legitimately cost ~2x on this small input, so the gate is 10x: far
# above the overhead, far below the cliff.  Each side takes the best of
# three runs, and the two reports must agree apart from their timings.
#
# Required environment: CHARTER_BIN points at the charter CLI binary.

set -u

: "${CHARTER_BIN:?set CHARTER_BIN to the charter CLI binary}"

WORK="$(mktemp -d "/tmp/charter_workers.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# best_ns <report file> <args...>: fastest of three runs, in nanoseconds.
best_ns() {
  local out="$1" best=0 t0 t1
  shift
  for _ in 1 2 3; do
    t0=$(date +%s%N)
    "$CHARTER_BIN" analyze --algo qft7 --max-gates 16 --json "$@" > "$out" ||
      { echo "cli_workers_overhead: FAIL: charter analyze $* exited nonzero" >&2; exit 1; }
    t1=$(date +%s%N)
    if [ "$best" -eq 0 ] || [ $((t1 - t0)) -lt "$best" ]; then
      best=$((t1 - t0))
    fi
  done
  echo "$best"
}

inproc=$(best_ns "$WORK/w0.json") || exit 1
multi=$(best_ns "$WORK/w2.json" --workers 2) || exit 1
echo "in-process ${inproc} ns, --workers 2 ${multi} ns"

# The reports differ only in the route wall-clock (actual_ns).
strip() { sed -E 's/"actual_ns": *[0-9.eE+-]+//g' "$1"; }
if ! cmp -s <(strip "$WORK/w0.json") <(strip "$WORK/w2.json"); then
  echo "cli_workers_overhead: FAIL: --workers 2 changed the report" >&2
  exit 1
fi
if [ "$multi" -ge $((10 * inproc)) ]; then
  echo "cli_workers_overhead: FAIL: --workers 2 is >= 10x slower" >&2
  exit 1
fi
echo "cli_workers_overhead: OK"
