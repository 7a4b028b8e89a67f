#!/usr/bin/env bash
# Builds rcbench from source into .bench_build/ at the root of the checkout
# and runs it with the arguments given. Everything the go tool writes —
# build cache, temporary files, telemetry — stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/benchmark" build -o "$build/rcbench" ./cmd/rcbench
exec "$build/rcbench" "$@"
