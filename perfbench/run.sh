#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload local-scan --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and generated datasets go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
# The go command keeps its config and telemetry under the user config
# directory; point that inside the checkout too.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-data" "$@"
