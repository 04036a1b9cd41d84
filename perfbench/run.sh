#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh compare <result-a.json> <result-b.json>
#
# Run it from the root of the checkout. Everything the build and the
# runs write (Go build cache, binary, scratch directories, result and
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

# VCS stamping gives the result files their revision tag; where git
# cannot report on the checkout, build without it rather than fail.
(cd "$here" && { go build -o "$out/perfbench" . 2>/dev/null ||
	go build -buildvcs=false -o "$out/perfbench" .; })
exec "$out/perfbench" "$@"
