#!/usr/bin/env bash
# Builds the end-to-end benchmark and the t10serve binary from the
# sources of the checkout it is run from, then runs one measurement:
#
#   bash e2ebench/run.sh --workload cold-zoo --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes goes
# under .bench_build/ there (Go build cache included). The last line of
# standard output is the JSON result; see e2ebench/README.md.
set -euo pipefail

root=$PWD
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(
	cd "$bench"
	go build -o "$out/e2ebench" .
	go build -o "$out/t10serve" repro/cmd/t10serve
) >&2

exec "$out/e2ebench" -t10serve "$out/t10serve" -work "$out/work" "$@"
