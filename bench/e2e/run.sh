#!/usr/bin/env bash
# Builds the end-to-end benchmark of ftpm-serve and runs it; run it from the
# root of an ftpm checkout, e.g.
#
#   bash bench/e2e/run.sh --workload sweep-exact --seed 1
#
# Go's build, module and temporary files go under .bench_build/e2e in the
# checkout, so a run writes nothing outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/e2e"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOENV=off GOTOOLCHAIN=local GOPROXY=off
go build -C bench/e2e -o "$out/e2e" .
exec "$out/e2e" -root "$root" -build "$out" "$@"
