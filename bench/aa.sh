#!/usr/bin/env bash
# A/A check: two full sets of the same commit must compare as unchanged on
# every workload x end-to-end metric, with identical exact counts. Extra
# arguments go to both sets (e.g. --seed 7).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/bench/out"
bash "${root}/bench/run.sh" -out "${out}/aa-1.json" "$@"
bash "${root}/bench/run.sh" -out "${out}/aa-2.json" "$@"
bash "${root}/bench/run.sh" -compare -aa "${out}/aa-1.json" "${out}/aa-2.json"
