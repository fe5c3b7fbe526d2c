#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ in the checkout (build cache
# included, so nothing is written outside it) and runs it with the caller's
# arguments; the benchmark builds the server under test itself.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
(cd bench && go build -o ../.bench_build/kjoin-perf .)
exec .bench_build/kjoin-perf "$@"
