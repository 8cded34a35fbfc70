#!/usr/bin/env bash
# PBT determinism smoke: `jaaru pbt --seed S` must print a byte-identical
# report for every worker count and with the snapshot replay layer on or
# off — generation is seeded per (seed, structure) and each exploration's
# outcome is jobs/layer-invariant by the explorer's contract, so stdout
# (which never mentions wall clock; rates go to stderr) can be diffed.
#
# The worker-count axis comes from JAARU_TEST_JOBS (the CI matrix variable);
# jobs=1 is always the reference. A seeded-bug structure is included so the
# shrunk witness and its repro line are covered by the diff, not just clean
# "ok" lines.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/jaaru_cli.exe
JAARU=_build/default/bin/jaaru_cli.exe

SEED=${JAARU_PBT_SEED:-9}
JOBS=${JAARU_TEST_JOBS:-4}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

run() { # run <outfile> <extra args...>
  local out=$1
  shift
  "$JAARU" pbt --seed "$SEED" "$@" >"$work/$out" 2>/dev/null
  # The seeded structure is expected to fail (nonzero exit); only its
  # stdout participates in the diff.
  "$JAARU" pbt --structure 'pmdk-hashmap-atomic!missing-entry-flush' \
    --seed "$SEED" --count 50 "$@" >>"$work/$out" 2>/dev/null || true
}

echo "== reference: jobs=1, snapshot on =="
run reference.txt --jobs 1

for combo in "--jobs $JOBS" \
  "--jobs 1 --snapshot off" \
  "--jobs $JOBS --snapshot off"; do
  echo "== diff vs: $combo =="
  # shellcheck disable=SC2086
  run candidate.txt $combo
  diff -u "$work/reference.txt" "$work/candidate.txt"
done

grep -q 'FAIL' "$work/reference.txt" || {
  echo "FAIL: seeded structure did not produce a witness" >&2
  exit 1
}
echo "OK: pbt report is byte-identical across jobs {1,$JOBS} x snapshot {on,off}"
