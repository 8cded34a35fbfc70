# Development entry points. `make check` is the tier-1 verify: full build,
# the whole test suite (which includes the jobs>1 determinism tests in
# test_parallel.ml), and a CLI smoke run of the parallel explorer.

.PHONY: all build test check parallel-smoke lint bench bench-smoke interrupt-smoke pbt-smoke pbt-nightly fleet-smoke loc clean

all: build

build:
	dune build

test:
	dune runtest

# Exercise parallel mode end-to-end on every verify: the comparable report
# of an exhaustive seeded-bug run must be byte-identical at --jobs 1 and 3,
# and so must the bug traces (the stdout after the second blank line), which
# the report omits; the traces must also match with snapshots off. The
# buffered-eviction leg runs the two-thread P-CLHT case, whose loads forward
# from deep store buffers: its report must match across --jobs 1, --jobs 3
# and --snapshot off, and at two failures the committed golden report, both
# at --jobs 1 and at --jobs 2, where each worker restarts its one searcher
# on dozens of subtree tasks and keeps its snapshots across them. The
# golden leg then runs every other case with a committed report in
# bench/suite/golden (the 13 clean sequential cases, eager eviction) at two
# failures, with snapshots on and off, and diffs each run against it: the
# recovery loads then read through bounded snapshot views and through the
# unbounded records of full replays. The golden files are only read. A
# clean workload must then explore cleanly with several domains.
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
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	for run in "1 on" "3 on" "1 off"; do \
	  set -- $$run; \
	  dune exec bin/jaaru_cli.exe -- check P-CLHT-concurrent --max-failures 1 \
	    --jobs $$1 --snapshot $$2 --report-out "$$d/clht-$$1-$$2.txt" > /dev/null || exit 1; \
	done && \
	diff -u "$$d/clht-1-on.txt" "$$d/clht-3-on.txt" && \
	diff -u "$$d/clht-1-on.txt" "$$d/clht-1-off.txt" && \
	for j in 1 2; do \
	  dune exec bin/jaaru_cli.exe -- check P-CLHT-concurrent --max-failures 2 --jobs $$j \
	    --report-out "$$d/clht-golden-$$j.txt" > /dev/null || exit 1; \
	  diff -u bench/suite/golden/P-CLHT-concurrent.report "$$d/clht-golden-$$j.txt" || exit 1; \
	done
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	for g in bench/suite/golden/*.report; do \
	  c=$$(basename "$$g" .report); \
	  [ "$$c" = P-CLHT-concurrent ] && continue; \
	  for s in on off; do \
	    dune exec bin/jaaru_cli.exe -- check "$$c" --max-failures 2 --jobs 1 --snapshot $$s \
	      --report-out "$$d/$$c-$$s.report" > /dev/null || exit 1; \
	    diff -u "$$g" "$$d/$$c-$$s.report" || exit 1; \
	  done; \
	done
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
# checkpoints reports identically to one uninterrupted run, a small
# hot-byte run (recovery loads from a line with a long store log) and a small
# ops run (ns per store/load/flush/fence through Ctx), neither with a timing
# check. Then the paper tables that run in about two seconds: Table 1,
# Fig. 14 (Jaaru executions against the Yat state count) and the ablations.
# The perf gate is the macro suite in bench/suite (see its README).
bench-smoke: build
	dune exec bench/main.exe -- snapshot-smoke checkpoint-smoke hot-byte-smoke ops-smoke
	dune exec bench/main.exe -- table1 fig14 ablation

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

# Fleet determinism, also under faults staged from outside: `jaaru fleet`
# must report byte-identically to single-process `jaaru check` across a
# worker-count matrix for a PMDK, a RECIPE and a buffered-eviction case,
# also while the script SIGSTOPs one worker and SIGKILLs another; every
# requeue in the --verbose log must name the staged fault. A one-execution
# tree must match too, and a SIGINTed fleet's checkpoint must finish to the
# baseline under `jaaru check --resume`.
fleet-smoke: build
	scripts/fleet_smoke.sh

# Out-of-process half of the survivability story: SIGTERM a real CLI run
# mid-flight, resume it from its checkpoint, and diff the resumed report
# against an uninterrupted baseline.
interrupt-smoke: build
	scripts/interrupt_resume_smoke.sh

# Line counts (.ml + .mli) as CHANGES.md reports them: the library and CLI;
# the tests; everything, with the examples and bench/main.ml.
loc:
	@count() { find "$$@" \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l; }; \
	echo "lib+bin: $$(count lib bin)"; \
	echo "test: $$(count test)"; \
	echo "lib+bin+test+examples+bench/main.ml: $$(count lib bin test examples bench/main.ml)"

clean:
	dune clean
