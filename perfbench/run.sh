#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# its arguments through, e.g.
#
#   bash perfbench/run.sh --workload fio-hwdp --seed 1 --seconds 40 --trace 0
#
# Every file the build writes (Go build cache, temporary files, binary)
# stays under .bench_build/ in the checkout. See perfbench/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
