#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-incident --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, scratch state and
# trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off CGO_ENABLED=0

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/bin/perfbench" .) >&2
"$out/bin/perfbench" "$@"
