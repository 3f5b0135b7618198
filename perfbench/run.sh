#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload explore-scan --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the benchmark's own files all stay under .bench_build in that directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	XDG_CACHE_HOME="$build/home/.cache" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go build -C perfbench -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
