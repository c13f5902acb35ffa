#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
#   bash e2ebench/run.sh --workload tpcc|kv_read|kv_write --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes (Go
# build cache, binary, the engine's data files) stays under .bench_build/
# in the current directory, and the data files are removed when the run
# ends. The last line of output is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

sha="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -o "$build/e2ebench" .)
exec "$build/e2ebench" --data "$build/e2ebench-data" --git-sha "$sha" "$@"
