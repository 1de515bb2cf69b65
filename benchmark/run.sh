#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it.
# Everything the build and the run write stays under .bench_build/ and
# benchmark/out/ in the checkout: the Go build cache, the compiler's
# scratch space, the binary, every server's data directory, the traces.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/kexbenchmark" .)
cd "$root"
exec "$build/kexbenchmark" "$@"
