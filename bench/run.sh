#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root; every file the build and the run write
# stays under .bench_build/ there (Go build cache and Go's own config
# directory included).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$root/bench" build -buildvcs=false -o "$build/funcybench" .
exec "$build/funcybench" "$@"
