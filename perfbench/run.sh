#!/usr/bin/env bash
# Builds the session benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-reject --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, the go
# command's own configuration and telemetry, and temporary files all stay
# under .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
