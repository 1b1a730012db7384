#!/usr/bin/env bash
# Builds the FedClust benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload lenet-f64 --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Every build artefact, the Go build
# cache and the traced-run span files stay under .bench_build/ in that
# checkout. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOENV=off
GOMAXPROCS=$(nproc)
export GOMAXPROCS

# The benchmark module imports the simulator from the checkout root; a
# directory holding only the benchmark has nothing to build and fails here.
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" -out "$out" "$@"
