#!/usr/bin/env bash
# Build the suite from this checkout's sources, then run it with the given
# arguments, e.g.
#   bash bench/suite/run.sh --workload bank --seed 3 --seconds 20 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled --display=quiet ./bench/suite/bench.exe 1>&2
exec ./_build/default/bench/suite/bench.exe "$@"
