#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the arguments given. Everything the Go toolchain writes (build cache,
# module cache, its own config) is kept under .bench_build/ in the
# checkout; nothing is fetched from the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
	export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
	go build -o "$build/hatbench" .
)
cd "$root"
exec "$build/hatbench" "$@"
