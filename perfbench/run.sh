#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload audit|serve|fleet --seed N --seconds S --trace 0|1
#
# Run it from the root of the module. Everything the build and the run
# write goes under .bench_build/ in that root.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/main.go ]]; then
  echo "perfbench: run from the module root (go.mod and perfbench/ not found in $PWD)" >&2
  exit 2
fi
if ! grep -q '^module github.com/adaudit/impliedidentity$' go.mod; then
  echo "perfbench: $PWD/go.mod is not the impliedidentity module" >&2
  exit 2
fi

root="$PWD/.bench_build"
mkdir -p "$root/gocache" "$root/gotmp" "$root/gopath"
export GOCACHE="$root/gocache" GOTMPDIR="$root/gotmp" TMPDIR="$root/gotmp" GOPATH="$root/gopath"
export GOTOOLCHAIN=local GOWORK=off

go build -o "$root/perfbench" ./perfbench
exec "$root/perfbench" "$@"
