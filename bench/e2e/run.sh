#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Build output goes to stderr, so the last line on stdout is
# lifting_bench's JSON result.
#
#   bash bench/e2e/run.sh --workload paper-300 --seed 1202 --seconds 20 --trace 0
#
# The build directory is $CARGO_TARGET_DIR when set (relative paths are
# taken from the repository root), else .bench_build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac

cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j4 >&2
exec "$build/lifting_bench" "$@"
