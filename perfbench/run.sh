#!/usr/bin/env bash
# Builds the benchmark and pdbd from this checkout's sources and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload oneshot|serve-read|serve-write \
#       --seed N --seconds S --trace 0|1
#
# Every build output, the Go build cache and the run's scratch files stay in
# the checkout under .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
# The Go tool's cache, module cache, temp files and its config directory
# (telemetry counters) all live under $out too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
go build -o "$out/pdbd" ./cmd/pdbd >&2
exec "$out/perfbench" -root "$root" -bin "$out" "$@"
