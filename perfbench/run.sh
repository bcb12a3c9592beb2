#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload fig4-dense --seed 2012 --seconds 30 --trace 0
#
# Every file the build writes (Go build cache, module cache, temporary
# files, the go command's telemetry counters, the binary) stays under
# .bench_build in the checkout. Build output goes to standard error, so the
# last line of standard output is always the benchmark's JSON result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
