#!/usr/bin/env bash
# Builds the perfbench driver from source and runs it. Run from the root of
# a charmgo checkout:
#
#   bash perfbench/run.sh --workload phold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (the binary, the Go build cache,
# temporary files, span and flight-recorder files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a charmgo checkout (go.mod and perfbench/go.mod are needed)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out .bench_build/perfbench-out "$@"
