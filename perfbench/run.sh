#!/usr/bin/env bash
# Builds cmd/parchmint-serve and the benchmark from the tree under test,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload pnr_cold --seed 1 --seconds 30 --trace 0
#
# Build outputs, Go's build cache and its temporary files stay inside
# .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go build -o "$out/parchmint-serve" ./cmd/parchmint-serve
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/parchmint-serve" -workdir "$out/runs" "$@"
