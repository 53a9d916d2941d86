#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload compile_cold --seed 1 --seconds 25 --trace 0
#
# Run from the root of the repository. Build outputs, the Go build cache
# and the benchmark's temporary plan stores all live under .bench_build
# (or $CARGO_TARGET_DIR when set), so nothing is written outside the
# checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# The go command keeps its build cache, module cache and telemetry
# counters under these; point them all into the build directory.
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
	export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" --scratch "$out/scratch" "$@"
