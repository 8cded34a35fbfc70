#!/usr/bin/env bash
# Fleet determinism, also under faults staged from outside: run `jaaru
# fleet` and assert the merged report is byte-identical to the
# single-process `jaaru check` baseline for every worker count; then run it
# again while this script SIGSTOPs one of its workers and SIGKILLs another
# mid-shard, and assert the report is still byte-identical and every
# requeue names the staged fault. A one-execution tree must run in a
# worker too (the coordinator runs no program code), and a fleet run
# interrupted by SIGINT must leave a checkpoint that `jaaru check --resume`
# completes to the baseline: fleet and check checkpoints are
# interchangeable. This is the end-to-end half of the fleet story (the real
# CLI worker, real signals, real pipes); test_fleet.ml covers the
# coordinator with an in-library fake worker.
#
# A worker that is running (state R) and has used a clock tick of CPU time
# is exploring a shard (it starts in a few ms, and sleeps in `select' when
# idle), so a signal sent then lands: a stopped worker stops beating and its shard must be requeued on the
# heartbeat timeout, a killed one's on its signal. The three cases' runs
# last milliseconds, so there a signal may miss (the shard was answered,
# or the run ended) and their fault legs check only the report and that
# every requeue names a staged fault; the last leg's shards take tens of
# milliseconds, so both signals must land and be requeued.
#
# Runs the built binary directly (not `dune exec`) so workers are spawned
# from the real executable path rather than a build-tool wrapper.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/jaaru_cli.exe
JAARU=_build/default/bin/jaaru_cli.exe

WORKER_MATRIX=(2 4)
landed=0

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The state letter of process $1 (R running, S sleeping, Z zombie, ...)
# and its user and system CPU time in clock ticks, or nothing once it is
# gone.
proc_stat() {
  local s="" ut="" st=""
  { read -r _ _ s _ _ _ _ _ _ _ _ _ _ ut st _ < "/proc/$1/stat"; } 2>/dev/null || true
  echo "$s $((ut + st))"
}

# fault_leg OUT MUST_LAND -- FLEET ARGS...: runs `jaaru fleet ARGS` in the
# background, stops the first worker caught exploring and kills the second,
# then checks the log. With MUST_LAND set, both signals must land and be
# requeued.
fault_leg() {
  local out=$1 must_land=$2; shift 3
  "$JAARU" fleet "$@" --heartbeat-timeout 1 --verbose \
    --report-out "$out.txt" 2> "$out.log" &
  local coord=$! stopped="" killed=""
  local deadline=$((SECONDS + 60))
  while [ -z "$killed" ] && [ "$SECONDS" -lt "$deadline" ]; do
    case "$(proc_stat "$coord")" in " "* | Z*) break ;; esac
    for pid in $(pgrep -P "$coord" -f ' fleet-worker ' || true); do
      case "$(proc_stat "$pid")" in
        "R 0" | " "*) ;;
        R*)
          if [ -z "$stopped" ]; then
            kill -STOP "$pid" 2>/dev/null && stopped=$pid
          elif [ "$pid" != "$stopped" ] && [ -z "$killed" ]; then
            kill -KILL "$pid" 2>/dev/null && killed=$pid
          fi
          ;;
      esac
    done
  done
  wait "$coord"
  if [ -n "$must_land" ]; then
    if [ -z "$killed" ]; then
      echo "FAIL: $out: no two workers were caught exploring" >&2
      exit 1
    fi
    for reason in "heartbeat timeout" "worker killed by signal 9"; do
      if ! grep -q "requeued ($reason" "$out.log"; then
        echo "FAIL: $out: a signal landed but no shard was requeued for \"$reason\"" >&2
        cat "$out.log" >&2
        exit 1
      fi
    done
  fi
  local requeued
  requeued=$(grep -c 'requeued' "$out.log" || true)
  echo "stopped ${stopped:-none}, killed ${killed:-none}: $requeued shards requeued"
  landed=$((landed + requeued))
  if grep 'requeued' "$out.log" \
      | grep -v -e 'requeued (heartbeat timeout' -e 'requeued (worker killed by signal 9'; then
    echo "FAIL: $out: a shard was requeued for a reason this script did not stage" >&2
    exit 1
  fi
}

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
    echo "== $case_id: fleet --fleet-workers $workers =="
    "$JAARU" fleet "$case_id" --fleet-workers "$workers" "${extra[@]}" \
      --report-out "$work/$case_id.fleet$workers.txt"
    diff -u "$work/$case_id.baseline.txt" "$work/$case_id.fleet$workers.txt"

    echo "== $case_id: fleet --fleet-workers $workers, one worker stopped, one killed =="
    fault_leg "$work/$case_id.faults$workers" "" -- \
      "$case_id" --fleet-workers "$workers" "${extra[@]}"
    diff -u "$work/$case_id.baseline.txt" "$work/$case_id.faults$workers.txt"
  done
}

run_case pmdk-1 --max-failures 2
run_case P-CLHT-1
run_case P-CLHT-concurrent --max-failures 1

echo "== P-CLHT-concurrent --max-failures 2: fleet --fleet-workers 2, both signals must land =="
"$JAARU" check P-CLHT-concurrent --exhaustive --max-failures 2 \
  --report-out "$work/long.baseline.txt"
fault_leg "$work/long.faults" yes -- P-CLHT-concurrent --fleet-workers 2 --max-failures 2
diff -u "$work/long.baseline.txt" "$work/long.faults.txt"

echo "== pmdk-1 --max-failures 0: a one-execution tree, run in a worker =="
# No failure point, so the seeded bug is not found: both runs exit 124.
status=0
"$JAARU" check pmdk-1 --exhaustive --max-failures 0 \
  --report-out "$work/one.baseline.txt" > /dev/null || status=$?
fleet_status=0
"$JAARU" fleet pmdk-1 --max-failures 0 \
  --report-out "$work/one.fleet.txt" > /dev/null || fleet_status=$?
if [ "$status" -ne "$fleet_status" ]; then
  echo "FAIL: check exited $status, fleet $fleet_status" >&2
  exit 1
fi
diff -u "$work/one.baseline.txt" "$work/one.fleet.txt"

echo "== P-CLHT-concurrent --max-failures 2: fleet interrupted, finished by check --resume =="
"$JAARU" fleet P-CLHT-concurrent --fleet-workers 2 --max-failures 2 \
  --checkpoint "$work/fleet.ckpt" > "$work/interrupted.out" &
coord=$!
# SIGINT once a worker is caught exploring (see proc_stat above).
deadline=$((SECONDS + 60))
caught=""
while [ -z "$caught" ] && [ "$SECONDS" -lt "$deadline" ]; do
  case "$(proc_stat "$coord")" in " "* | Z*) break ;; esac
  for pid in $(pgrep -P "$coord" -f ' fleet-worker ' || true); do
    case "$(proc_stat "$pid")" in "R 0" | " "*) ;; R*) caught=$pid ;; esac
  done
done
if [ -z "$caught" ] || ! kill -INT "$coord" 2>/dev/null; then
  wait "$coord" || true
  echo "FAIL: no worker was caught exploring; the resume leg did not run" >&2
  exit 1
fi
status=0
wait "$coord" || status=$?
if [ "$status" -eq 0 ] || [ ! -e "$work/fleet.ckpt" ]; then
  echo "FAIL: the interrupted fleet exited $status and left no checkpoint" >&2
  exit 1
fi
grep -q 'continue with: jaaru check P-CLHT-concurrent --resume' "$work/interrupted.out"
"$JAARU" check P-CLHT-concurrent --exhaustive --max-failures 2 --resume "$work/fleet.ckpt" \
  --report-out "$work/resumed.txt" > /dev/null
diff -u "$work/long.baseline.txt" "$work/resumed.txt"

echo "OK: fleet reports are byte-identical to single-process baselines" \
     "(workers: ${WORKER_MATRIX[*]}; $landed shards requeued for staged faults)"
