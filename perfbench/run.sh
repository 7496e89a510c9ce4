#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
