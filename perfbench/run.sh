#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload nbd-qd1-mixed --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR if set, else .bench_build): the Go build
# cache, the binary and the traced run's span files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go-cache" "$out/go-path" "$out/go-tmp" "$out/config"

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTMPDIR=$out/go-tmp
export XDG_CONFIG_HOME=$out/config GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export PERFBENCH_DIR=$out

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
