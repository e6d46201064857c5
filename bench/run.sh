#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and runs
# it with the given arguments. Everything the build leaves behind (binary, Go
# build cache, temporary files, the spans of a traced run unless -trace-out
# says otherwise) stays under that one ignored directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/mcastbench" .)
exec "$build/mcastbench" -trace-out "$build/spans.json" "$@"
