#!/usr/bin/env bash
# Builds the benchmark harness and the tuned daemon from this checkout, then
# runs the harness with the given arguments. Run it from the repository
# root:
#
#   bash bench/run.sh --workload tpch-mcts-stop --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binaries)
# stays under .bench_build/ in the current directory; nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"

cd "$root/bench"
go build -o "$out/bench" .
go build -o "$out/tuned" indextune/cmd/tuned
cd "$root"
exec "$out/bench" -tuned "$out/tuned" "$@"
