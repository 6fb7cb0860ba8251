#!/usr/bin/env bash
# Builds the benchmark and espice-serve from the sources of the checkout
# it is started in, then runs one workload:
#
#   bash perfbench/run.sh --workload wire-q1 --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes, the Go build cache and temporary files
# included, stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/espice-serve" ./cmd/espice-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -serve "$out/espice-serve" "$@"
