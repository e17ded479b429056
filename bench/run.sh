#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build leaves
# behind (binary, Go build cache) stays in .bench_build under the checkout,
# so a run reads and writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
