#!/usr/bin/env bash
# Builds tartbench from source into .bench_build/ at the checkout root and
# runs it. Everything the Go toolchain writes (build cache included) stays
# inside the checkout; nothing is fetched from the network.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$build/tartbench" .
exec "$build/tartbench" "$@"
