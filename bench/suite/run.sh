#!/usr/bin/env bash
# Builds tmkbench (Release) from this checkout and runs it.
#
#   bench/suite/run.sh [--workload NAME] [--seed N] [--seconds S]
#                      [--trace 0|1|PATH] [--reps N]
#
# Flags take "--flag value" or "--flag=value". Without --workload all
# four workloads run. The build lives in .bench_build/tmkbench under the
# checkout root; its output goes to stderr, so stdout ends with
# tmkbench's JSON result line.
set -euo pipefail

suite="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$suite/../.." && pwd)"
build="$root/.bench_build/tmkbench"

if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$suite" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target tmkbench -j 4 >&2
exec "$build/tmkbench" "$@"
