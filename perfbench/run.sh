#!/usr/bin/env bash
# Builds the benchmark and the snnserve binary its fleet workload spawns,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload mlp-http --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory (CARGO_TARGET_DIR, when set, names that directory instead).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/snnserve" burstsnn/cmd/snnserve) >&2

exec "$out/bin/perfbench" -snnserve "$out/bin/snnserve" -work "$out/work" "$@"
