#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload tvla_rpc --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (compiler cache, scratch files, the binary)
# stays under .bench_build/ in the repository root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
