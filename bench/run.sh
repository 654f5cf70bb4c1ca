#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; call it
# from anywhere inside the checkout (the program finds BENCHMARK.json upward
# from the working directory). Everything the build and the run leave behind
# stays under <checkout>/.bench_build and <checkout>/bench/out (both ignored
# by git).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "${root}/bench" && go build -o "${build}/ndbench" .)
exec "${build}/ndbench" "$@"
