#!/usr/bin/env bash
# Builds the benchmark and csrserve from this checkout's source, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-mixed --seed 3 --seconds 25 --trace 0
#
# The Go build cache, binaries and span files stay under .bench_build/ at
# the checkout root. The build fails, and so does the run, when the
# repository's source is not beside this directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
cd "$here"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/csrserve" repro/cmd/csrserve
cd "$root"
exec "$out/bin/perfbench" -csrserve "$out/bin/csrserve" -out "$out" "$@"
