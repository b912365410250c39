#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload avf --seed 1 --seconds 15 --trace 0
#
# Build cache, binary, traces and temporary journals all stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
export GOTELEMETRY=off GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
