#!/usr/bin/env bash
# Builds dqwebre and the benchmark harness from the checkout it is run in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build product, generated input,
# result and trace stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/dqwebre" ./cmd/dqwebre
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/dqwebre" -work "$out" "$@"
