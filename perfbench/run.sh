#!/usr/bin/env bash
# Builds perfbench and dsdserver from the source tree this
# directory sits in, then runs one workload:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Everything the run builds or writes stays under .bench_build/ at the root
# of the tree (Go build cache included). Build output goes to stderr; the
# last line on stdout is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dsdserver" ]]; then
	echo "perfbench: no dsd source tree around $here" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
# The go command's caches, temporary files and per-user state (telemetry
# counters live under the user config directory) all stay in the tree.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

cd "$here"
go build -o "$build/bin/perfbench" . >&2
go build -o "$build/bin/dsdserver" repro/cmd/dsdserver >&2

exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" -work "$build/work" "$@"
