#!/usr/bin/env bash
# Builds decorrd and the benchmark from this checkout, then runs one
# workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload served-mix --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache and the traced runs' Chrome
# traces stay under .bench_build/ in the checkout. A failed build exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
# The toolchain's own config and telemetry files go there too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/decorrd" ./cmd/decorrd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --decorrd "$out/decorrd" "$@"
