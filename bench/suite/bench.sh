#!/bin/sh
# One benchmark run, from the root of a source checkout:
#   sh bench/suite/bench.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds the CLI under test and the suite from source (a no-op when they are
# up to date), then runs the suite; its last stdout line is the JSON result.
# The dune cache is off so that the build writes nothing outside the
# checkout.
set -e
DUNE_CACHE=disabled dune build --root . bin/jaaru_cli.exe bench/suite/suite.exe 1>&2
exec ./_build/default/bench/suite/suite.exe bench "$@"
