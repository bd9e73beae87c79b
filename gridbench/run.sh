#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run it from the root of a checkout:
#
#   bash gridbench/run.sh --workload stencil-tcp --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the span files of traced runs stay
# under .bench_build/ in the checkout. The build needs the repository's
# own module one directory up, so outside a checkout it fails.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd gridbench && go build -o "$out/gridbench" .)
exec "$out/gridbench" "$@"
