#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache and temporary files,
# Go's own config and telemetry files) stays under .bench_build/ in the
# checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOFLAGS=
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
