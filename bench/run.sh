#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build writes (binary, Go build cache, temp
# files, the go command's own config and telemetry) stays under .bench_build/
# at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
bin="$out/snooze-bench"
# Rebuild only when a source file is newer than the binary: go build's own
# up-to-date check costs most of a second on every one of the driver's runs.
if [ ! -x "$bin" ] || [ -n "$(find go.mod api internal bench -newer "$bin" \( -name '*.go' -o -name go.mod \) -print -quit)" ]; then
	mkdir -p "$out/tmp" "$out/home"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath" \
		GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
		go build -o "$bin" ./bench
fi
exec "$bin" "$@"
