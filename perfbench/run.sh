#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it. Run it
# from the root of the repository:
#
#   bash perfbench/run.sh --workload paper-algorithms --seed 1 --seconds 20 --trace 0
#
# The binary and every Go cache go to $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOTMPDIR=$out/tmp

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
