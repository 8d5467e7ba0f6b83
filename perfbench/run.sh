#!/usr/bin/env bash
# Builds patty and the benchmark from this checkout, then runs one
# benchmark workload. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload corpus-dynamic --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, server state and trace files all
# stay under .bench_build/ (or $CARGO_TARGET_DIR when set), so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/patty" ./cmd/patty
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -patty "$out/patty" -out "$out" "$@"
