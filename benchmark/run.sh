#!/usr/bin/env bash
# Builds the TELS benchmark from source and runs it. Run from the root of
# a TELS checkout:
#
#   bash benchmark/run.sh --workload flow-cold --seed 1 --seconds 5 --trace 0
#   bash benchmark/run.sh --write-manifest
#
# The build cache, the binary and the traced run's spans go to
# .bench_build/ under the checkout; nothing is written outside it.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "run.sh: run from the root of a TELS checkout (go.mod, internal/ and benchmark/ must exist)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root/benchmark" -o "$out/telsperf" .
exec "$out/telsperf" "$@"
