#!/usr/bin/env bash
# Builds the benchmark and the hetexp binary it drives from the source in
# the current directory (the repository root), then runs the benchmark:
#
#   bash perfbench/run.sh --workload offload --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Every build product, Go cache and scratch file stays under .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/bin/hetexp" ./cmd/hetexp >&2
go build -C perfbench -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
