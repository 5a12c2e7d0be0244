#!/usr/bin/env bash
# Builds the e2ebench driver and the durserve binary from this checkout's
# sources, then runs the driver with the given arguments. Run it from the
# root of the repository:
#
#   bash e2ebench/run.sh --workload query-warm --seed 1 --seconds 10 --trace 0
#
# Every build product and run directory lives under .bench_build/ in the
# checkout; nothing is read or written outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/e2ebench" build -o "$out/bin/e2ebench" . >&2
go -C "$root/e2ebench" build -o "$out/bin/durserve" durability/cmd/durserve >&2
exec "$out/bin/e2ebench" -durserve "$out/bin/durserve" "$@"
