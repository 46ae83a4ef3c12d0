#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the tree, under
# .bench_build (build cache, binary, scratch files) and perfbench/
# (history.jsonl, spans/).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
  echo "perfbench: $root holds no dirsim source tree to build" >&2
  exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOPATH="$build/home/go"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
