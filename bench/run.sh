#!/usr/bin/env bash
# Builds the benchmark driver and xqserver from source into .bench_build/
# at the checkout root, then runs the driver with the given arguments.
# Everything the toolchain writes (build cache, temp files, its telemetry
# counters) stays inside .bench_build/ so a run touches nothing outside its
# checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp"
(
  cd "$here"
  export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
  export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
  go build -o "$out/bin/" . xqdb/cmd/xqserver
) >&2
exec "$out/bin/bench" -server "$out/bin/xqserver" -root "$root" "$@"
