#!/usr/bin/env bash
# Builds the benchmark from source in the checkout it is run from and runs
# it with the given arguments (see README.md):
#
#   bash perfbench/run.sh --workload seq-stream --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and temporary files all stay under
# .bench_build in the current directory, which must be the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export PPROF_TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-buildvcs=false"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
