#!/usr/bin/env bash
# Out-of-process survivability smoke: SIGTERM a real `jaaru check` run
# mid-flight, resume it from its on-disk checkpoint, and assert the resumed
# report is byte-identical to an uninterrupted baseline.
#
# Runs the built binary directly (not `dune exec`) so the signal is
# delivered to the checker itself rather than to a build-tool wrapper.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/jaaru_cli.exe
JAARU=_build/default/bin/jaaru_cli.exe

# The acceptance combination: parallel exploration with the snapshot replay
# accelerator off, over a deep two-failure tree.
ARGS=(check pmdk-1 --exhaustive --max-failures 2 --jobs 4 --snapshot off)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== baseline (uninterrupted) =="
"$JAARU" "${ARGS[@]}" --report-out "$work/baseline.txt"

echo "== interrupted run (SIGTERM after 2s) =="
"$JAARU" "${ARGS[@]}" --checkpoint "$work/run.ckpt" --checkpoint-every 1 \
  --report-out "$work/resumed.txt" &
pid=$!
sleep 2
kill -TERM "$pid" 2>/dev/null || true
status=0
wait "$pid" || status=$?

if [ "$status" -eq 0 ]; then
  # The exploration beat the signal; its completion checkpoint and report
  # are already those of a finished run. Still valid, just less interesting.
  echo "run completed before the signal landed (ok on fast hosts)"
else
  echo "interrupted with status $status; resuming"
  for i in $(seq 1 20); do
    status=0
    "$JAARU" "${ARGS[@]}" --resume "$work/run.ckpt" \
      --report-out "$work/resumed.txt" || status=$?
    [ "$status" -eq 0 ] && break
    echo "-- session $i interrupted again; continuing"
  done
  if [ "$status" -ne 0 ]; then
    echo "FAIL: run never completed after 20 resume sessions" >&2
    exit 1
  fi
fi

echo "== diff: resumed report vs baseline =="
diff -u "$work/baseline.txt" "$work/resumed.txt"
echo "OK: resumed report is byte-identical to the uninterrupted baseline"
