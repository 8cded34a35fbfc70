# Development entry points. `make check` is the tier-1 verify: full build,
# the whole test suite (which includes the jobs>1 determinism tests in
# test_parallel.ml), and a CLI smoke run of the parallel explorer.

.PHONY: all build test check parallel-smoke lint bench bench-smoke interrupt-smoke pbt-smoke pbt-nightly fleet-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# Exercise parallel mode end-to-end on every verify: the comparable report
# of an exhaustive seeded-bug run must be byte-identical at --jobs 1 and 3,
# and so must the bug traces (the stdout after the second blank line), which
# the report omits; the traces must also match with snapshots off. A clean
# workload must then explore cleanly with several domains.
parallel-smoke: build
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	for j in 1 3; do \
	  dune exec bin/jaaru_cli.exe -- check pmdk-1 --exhaustive --jobs $$j \
	    --report-out "$$d/jobs$$j.txt" || exit 1; \
	done && \
	diff -u "$$d/jobs1.txt" "$$d/jobs3.txt" && \
	for run in "1 on" "3 on" "1 off"; do \
	  set -- $$run; \
	  dune exec bin/jaaru_cli.exe -- check pmdk-1 --exhaustive --trace --jobs $$1 \
	    --snapshot $$2 > "$$d/out.txt" || exit 1; \
	  awk 'n>=2; /^$$/{n++}' "$$d/out.txt" > "$$d/traces-$$1-$$2.txt"; \
	done && \
	test -s "$$d/traces-1-on.txt" && \
	diff -u "$$d/traces-1-on.txt" "$$d/traces-3-on.txt" && \
	diff -u "$$d/traces-1-on.txt" "$$d/traces-1-off.txt"
	dune exec bin/jaaru_cli.exe -- perf --benchmark P-CLHT -n 3 --jobs 3

# Static persistency lint over every bundled case: fails on any
# high-severity finding on a clean case and on any seeded missing-flush bug
# the passes fail to root-cause. The example binary then asserts the
# happens-before race leg end-to-end: race found on the seeded racy
# workload, locked variant clean, seeded labels suppressible.
lint: build
	dune exec bin/jaaru_cli.exe -- lint --fail-on high
	dune exec examples/persistency_race.exe

check: build test parallel-smoke lint

bench: build
	dune exec bench/main.exe

# Seconds-long subsets of the snapshot and checkpoint bench sections: assert
# that outcomes stay byte-identical with the failure-point snapshot layer on
# and off, and that a chain of wall-budget-interrupted sessions resumed from
# checkpoints reports identically to one uninterrupted run. The perf gate is
# the macro suite in bench/suite (see its README).
bench-smoke: build
	dune exec bench/main.exe -- snapshot-smoke checkpoint-smoke

# Stateful-PBT determinism smoke: `jaaru pbt --seed S` (a clean sweep plus
# one seeded-bug structure, so the shrunk witness is covered) must print
# byte-identical reports for jobs {1, JAARU_TEST_JOBS} and with the
# snapshot layer on and off.
pbt-smoke: build
	scripts/pbt_determinism_smoke.sh

# Long-running variant for nightly jobs: as many sequences as fit in the
# wall budget (seconds; default 10 minutes), deeper command sequences.
# Deterministic coverage is forfeited; failure soundness is not. Publishes
# the schema-versioned coverage/witness summary CI archives and trends.
pbt-nightly: build
	dune exec bin/jaaru_cli.exe -- pbt --count 1000000 --max-cmds 10 \
	  --time-budget $${JAARU_PBT_BUDGET:-600} \
	  --json-out $${JAARU_PBT_JSON:-pbt-coverage.json}

# Fleet determinism under self-injected faults: `jaaru fleet` with workers
# being killed, hung and fed torn checkpoints must still report
# byte-identically to single-process `jaaru check`, across a worker-count
# matrix, chaos on and off.
fleet-smoke: build
	scripts/fleet_chaos_smoke.sh

# Out-of-process half of the survivability story: SIGTERM a real CLI run
# mid-flight, resume it from its checkpoint, and diff the resumed report
# against an uninterrupted baseline.
interrupt-smoke: build
	scripts/interrupt_resume_smoke.sh

clean:
	dune clean
