#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it with the
# given arguments. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload fig4-search --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache, telemetry and config directories and
# the binary all live under .bench_build/ in the current directory, so
# nothing is read from or written to the user's home.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$src" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
