#!/usr/bin/env bash
# Fleet determinism under injected faults: run `jaaru fleet` with the chaos
# harness killing, hanging and tearing its own workers, and assert the merged
# report stays byte-identical to the single-process `jaaru check` baseline —
# for every worker count, chaos on or off. Every shard requeued under chaos
# must be requeued for a chaos-induced reason: a fault planned for one
# assignment must never fail another. This is the end-to-end half of the
# fleet story (the real CLI worker, real signals, real pipes); test_fleet.ml
# covers the coordinator with an in-library fake worker and in-process.
#
# Runs the built binary directly (not `dune exec`) so workers are spawned
# from the real executable path rather than a build-tool wrapper.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/jaaru_cli.exe
JAARU=_build/default/bin/jaaru_cli.exe

CHAOS="kill:0.3,hang:0.1,torn:0.2"
WORKER_MATRIX=(2 4)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# case_id -> extra per-case flags (a deepened PMDK tree, a paper RECIPE
# structure, and a buffered-eviction case whose shards carry store-buffer
# drain decisions, so every workload family rides the fleet).
run_case() {
  local case_id=$1; shift
  local extra=("$@")

  echo "== $case_id: single-process baseline =="
  "$JAARU" check "$case_id" --exhaustive "${extra[@]}" \
    --report-out "$work/$case_id.baseline.txt"

  for workers in "${WORKER_MATRIX[@]}"; do
    echo "== $case_id: fleet --fleet-workers $workers (no chaos) =="
    "$JAARU" fleet "$case_id" --fleet-workers "$workers" "${extra[@]}" \
      --report-out "$work/$case_id.fleet$workers.txt"
    diff -u "$work/$case_id.baseline.txt" "$work/$case_id.fleet$workers.txt"

    echo "== $case_id: fleet --fleet-workers $workers --fleet-chaos $CHAOS =="
    "$JAARU" fleet "$case_id" --fleet-workers "$workers" "${extra[@]}" \
      --fleet-chaos "$CHAOS" --fleet-chaos-seed 7 --heartbeat-timeout 1 --verbose \
      --report-out "$work/$case_id.chaos$workers.txt" 2> "$work/$case_id.chaos$workers.log"
    diff -u "$work/$case_id.baseline.txt" "$work/$case_id.chaos$workers.txt"
    if grep 'requeued' "$work/$case_id.chaos$workers.log" | grep -v 'chaos-induced'; then
      echo "FAIL: $case_id --fleet-workers $workers requeued a shard for a non-chaos reason" >&2
      exit 1
    fi
  done
}

run_case pmdk-1 --max-failures 2
run_case P-CLHT-1
run_case P-CLHT-concurrent --max-failures 1

echo "OK: fleet reports are byte-identical to single-process baselines" \
     "(workers: ${WORKER_MATRIX[*]}; chaos on and off)"
