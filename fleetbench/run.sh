#!/usr/bin/env bash
# Builds rdserver, rdproxy and the fleetbench load generator from the
# checkout this script sits in, then runs the generator with the given
# arguments:
#
#   bash fleetbench/run.sh --workload pair-zipf-ba --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go's build cache included).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "${root}/go.mod" || ! -d "${root}/cmd/rdserver" || ! -d "${root}/cmd/rdproxy" ]]; then
	echo "fleetbench: ${root} holds no landmarkrd source tree to build" >&2
	exit 2
fi

build="${root}/.bench_build"
mkdir -p "${build}/bin" "${build}/tmp"

export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOENV=off
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

(cd "${root}" && go build -o "${build}/bin/" ./cmd/rdserver ./cmd/rdproxy)
(cd "${root}/fleetbench" && go build -o "${build}/bin/fleetbench" .)

exec "${build}/bin/fleetbench" -bin "${build}/bin" -work "${build}/run" -spans "${build}/traces" "$@"
