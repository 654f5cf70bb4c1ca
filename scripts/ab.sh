#!/usr/bin/env bash
# Paired A/B benchmark of a base revision against the working tree:
#
#   scripts/ab.sh <rev> --workload W --pairs N [bench/run.sh flags...]
#
# e.g. scripts/ab.sh HEAD --workload sssp-netdist --pairs 10 --seed 7 --seconds 16 --trace 0
# See scripts/ab/main.go for what it builds, runs and prints.
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./scripts/ab "$@"
