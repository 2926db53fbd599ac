#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.:
#
#   bash perfbench/run.sh --workload alerts --seed 1 --seconds 15 --trace 0
#
# Run from the repository root.  Build outputs and the Go build cache stay
# under .bench_build/ (or $CARGO_TARGET_DIR when set); data directories and
# span files go to .bench_out/.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
