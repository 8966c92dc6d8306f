#!/usr/bin/env bash
# Builds and runs the targad benchmark from the root of a checkout:
#
#   bash bench/run.sh --workload online-json --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind stays in .bench_build:
# the Go build cache, temporary files, the binaries, and the results.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
