#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload serve-indexed --seed 1 --seconds 10 --trace 0
#	bash perfbench/run.sh --compare old.jsonl new.jsonl
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: Go's build cache, and its user configuration directory
# (where the toolchain keeps telemetry counters).
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
