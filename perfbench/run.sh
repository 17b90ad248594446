#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload capture-mix13 --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare <parent-results-dir> <change-results-dir>
#
# The build and everything the run writes stay under $CARGO_TARGET_DIR
# (default .bench_build), including the Go build cache and the Go
# toolchain's own config and telemetry files. The toolchain runs offline:
# the module has no dependencies outside the checkout.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" . >&2

export PERFBENCH_COMMAND="bash perfbench/run.sh $*" CARGO_TARGET_DIR=$build
exec "$build/perfbench" "$@"
