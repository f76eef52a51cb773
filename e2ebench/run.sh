#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload scale --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/cache" "$out/tmp" "$out/home"

export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
