#!/usr/bin/env bash
# Builds the benchmark and the nvbench and nvperf commands it drives from
# source into .bench_build/ at the repository root, and runs the benchmark
# there with the given arguments, e.g.
#
#   bash bench/run.sh --workload cell-sweep --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and temporary files also live under
# .bench_build/, so a run reads and writes only inside the checkout. The
# first run compiles the standard library into that cache; later runs only
# relink when a source changed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/bench" && go build -buildvcs=false -o "$out/" . repro/cmd/nvbench repro/cmd/nvperf) >&2

cd "$root"
exec "$out/bench" "$@"
