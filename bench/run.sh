#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload paper-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the go command's telemetry, the
# binary and the temporary stores. The build never contacts the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps telemetry
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -buildvcs=false -o "$out/vgen-bench" .)
exec "$out/vgen-bench" "$@"
