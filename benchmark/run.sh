#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (inside the
# checkout, like everything else a run writes) and runs it from the
# checkout root. Usage: bash benchmark/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>; see benchmark/README.md.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The toolchain's caches and work directory stay inside the checkout, and
# nothing is fetched: the benchmark imports only this repository.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/gcbench" .)
cd "$root"
exec "$build/gcbench" "$@"
