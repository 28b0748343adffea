#!/usr/bin/env bash
# Runs one benchmark invocation from the root of a source checkout:
#
#   bash benchmark/run.sh --workload many_small --seed 1 --seconds 12 --trace 0
#
# Builds lbe_benchmark (and the lbectl it drives) from this checkout's
# sources into $CARGO_TARGET_DIR (default .bench_build) first; only the first
# call compiles, later calls find the build up to date. Build output goes to
# stderr so the last line of stdout stays the run's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target lbe_benchmark -j 4 >&2

exec "$build/lbe_benchmark" run "$@"
