#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, from the checkout's root:
#
#   bash pvabench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
#
# The build output, Go's caches and the traced run's span files stay under
# .bench_build at the checkout's root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/go-build" "$out/tmp" "$out/config"
export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C pvabench build -o "$out/pvabench" .
exec "$out/pvabench" "$@"
