#!/usr/bin/env bash
# Builds glcv and the benchmark from source in this checkout, then runs
# one workload. From the root of the checkout:
#
#   bash perfbench/run.sh --workload atlas-sweep --seed 42 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
build=.bench_build
# the dune cache lives outside the checkout; the benchmark stays inside
export DUNE_CACHE=disabled
dune build --root . --build-dir "$build" ./perfbench/bench.exe ./bin/glcv.exe 1>&2
exec "$build/default/perfbench/bench.exe" --glcv "$build/default/bin/glcv.exe" "$@"
