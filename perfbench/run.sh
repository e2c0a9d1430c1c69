#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it
# with the given arguments, e.g.
#   bash perfbench/run.sh --workload fig6a --seed 1 --seconds 20 --trace 0
# The build output, the Go build cache and temporary files stay under
# .bench_build/, and the build never touches the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
cd "$root"
exec "$build/perfbench-bin" "$@"
