#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash electbench/run.sh --workload dense-gsu19-n32k --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Everything the build writes (binary,
# Go build cache, Go's config and telemetry) goes under $CARGO_TARGET_DIR
# when set, else .bench_build, inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go -C "$here" build -o "$build/bin/electbench" .
exec "$build/bin/electbench" "$@"
