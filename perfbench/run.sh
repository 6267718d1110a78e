#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload dblp-smp|hepth-mmp|people-stream|all \
#       [--seed 42] [--seconds 25] [--trace 0|1]
#
# The Go build cache, the binary, span files and per-stream state
# directories all live under .bench_build/perfbench in the checkout, so
# nothing outside it is written. The first run in a fresh checkout
# compiles the standard library into that cache and takes a minute or two.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out .bench_build/perfbench "$@"
