#!/usr/bin/env bash
# Builds lserved and the layerbench binary from the checkout this is
# run from, then runs layerbench with the given arguments:
#
#   bash layerbench/run.sh --workload serve-open --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, the Go build cache included. Build output goes to stderr, so
# layerbench's result stays the last line of stdout.
set -euo pipefail

out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" TMPDIR="$PWD/$out/tmp"
export GOPATH="$PWD/$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go build -o "$out/lserved" ./cmd/lserved >&2
(cd layerbench && go build -o "../$out/layerbench" .) >&2
exec "$out/layerbench" -lserved "$out/lserved" -out "$out" "$@"
