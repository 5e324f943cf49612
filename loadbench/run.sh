#!/usr/bin/env bash
# Builds the fleet binaries and the benchmark from source, then runs it:
#   bash loadbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
# Every build product, cache and temporary file stays under .bench_build
# in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/rrc-server ]; then
	echo "loadbench: no tsppr module at $root" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$build/bin/" ./cmd/rrc-datagen ./cmd/rrc-train ./cmd/rrc-server ./cmd/rrc-router >&2
(cd loadbench && go build -o "$build/bin/loadbench" .) >&2
exec "$build/bin/loadbench" -root "$root" "$@"
