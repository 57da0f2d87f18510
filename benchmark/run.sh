#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and runs
# it from the checkout's root. Everything the build and the run write (build
# and module caches, binary, unix sockets) stays under .bench_build/; the
# module needs nothing from the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$here"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$out/hotline-benchmark" .
)
# A relative TMPDIR keeps the fabric's unix socket paths short whatever the
# checkout's own path is.
TMPDIR=.bench_build/tmp exec "$out/hotline-benchmark" "$@"
