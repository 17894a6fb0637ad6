#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload dense-cold --seed 1 --seconds 30 --trace 0
#
# Build output, the Go build cache, the serve-mix disk store and the span
# dumps all stay under .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

# Keep every file the toolchain writes inside the checkout, and never reach
# for the network: the benchmark needs nothing but the repository.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
