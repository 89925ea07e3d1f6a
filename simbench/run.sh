#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Every file the
# build and the run produce stays under .bench_build/ at the repository
# root. Usage, from anywhere in the checkout:
#
#   bash simbench/run.sh -workload serve -seed 1 -seconds 20 -trace 0
#
# See simbench/README.md for the workloads and metrics.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOPATH="$out/gopath" GOENV=off GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go -C simbench build -buildvcs=false -o "$out/bin/simbench" . >&2
exec "$out/bin/simbench" "$@"
