#!/usr/bin/env bash
# Builds gdprkv-server and the benchmark from this tree, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload app-eventual --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: binaries, the Go build cache, data files and traces.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"

if [[ ! -f go.mod || ! -d cmd/gdprkv-server ]]; then
	echo "perfbench: no gdprstore sources (go.mod, cmd/gdprkv-server) in $root" >&2
	exit 1
fi

mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"

export GOTOOLCHAIN=local GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
# With telemetry on (the default for a fresh config dir), the go command
# forks a detached upload process that can outlive this script.
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/bin/gdprkv-server" ./cmd/gdprkv-server >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -server "$out/bin/gdprkv-server" -workdir "$out" "$@"
