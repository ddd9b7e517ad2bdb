#!/usr/bin/env bash
# Builds whperf from source and runs it with the arguments given, from
# the repository root:
#
#   bash cmd/whperf/run.sh --workload search --seed 1 --seconds 12 --trace 0
#   bash cmd/whperf/run.sh -seed 1 -out set.json     # all five workloads
#
# whperf is a module of its own that builds against the simulator in
# the two directories above it. Everything the build writes (the Go
# build cache, temporary files, the binary) stays under .bench_build/
# at the repository root, and no module is ever downloaded.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=readonly \
	GOPROXY=off GOWORK=off GOTOOLCHAIN=local

go -C "$here" build -o "$out/whperf" .
cd "$root"
exec "$out/whperf" "$@"
