#!/usr/bin/env bash
# Builds oniond and the benchmark from the source tree this script sits
# in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload transport-serve --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the tree: the Go build cache, the binaries, temp files and the
# per-run data directories.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/oniond ]; then
	echo "run.sh: no program source here (need go.mod and cmd/oniond at $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on (the default, "local"), the go command starts a
# detached sidecar process that outlives it; turn it off so the build
# leaves no process behind.
echo "off 2000-01-01" > "$out/config/go/telemetry/mode"
go build -o "$out/bin/oniond" ./cmd/oniond
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -oniond "$out/bin/oniond" -workdir "$out/run" "$@"
