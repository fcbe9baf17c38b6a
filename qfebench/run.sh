#!/usr/bin/env bash
# Builds the benchmark and the qfe-server/qfe-router binaries from this
# checkout's source, then runs the benchmark with the arguments given:
#
#   bash qfebench/run.sh --workload interactive --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, WAL and
# snapshot directories) stays under .bench_build/ at the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd qfebench && go build -o "$out/bin/qfebench" .)
go build -o "$out/bin/" ./cmd/qfe-server ./cmd/qfe-router
exec "$out/bin/qfebench" -bin "$out/bin" -work "$out" "$@"
