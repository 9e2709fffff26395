#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds bench from source inside the
# checkout (go's build cache, module cache and temporary files included,
# so nothing is written outside it) and runs it with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOMODCACHE="$PWD/.bench_build/gomod" \
	GOTMPDIR="$PWD/.bench_build/tmp" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
