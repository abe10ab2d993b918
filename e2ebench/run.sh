#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root; every argument is passed to the benchmark:
#
#   bash e2ebench/run.sh --workload cold-quick --seed 42 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's result stores all
# live under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOENV=off
go -C e2ebench build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" --workdir "$out/e2ebench-work" "$@"
