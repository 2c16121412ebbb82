#!/bin/sh
# Driver entry point (BENCHMARK.json "command"), run from the checkout
# root: builds the harness from source and runs it. Go's build cache and
# temp files are kept inside the checkout, under .bench_build, so the
# benchmark reads and writes nothing outside it; nothing is downloaded.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" "$@"
