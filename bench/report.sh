#!/usr/bin/env bash
# Print every metric of every workload, by name and with its unit.
# Usage, from the repository root: bash bench/report.sh [SEED] [SECONDS] [TRACE]
set -euo pipefail
seed=${1:-1}
seconds=${2:-40}
trace=${3:-0}
for workload in verify_sweep enum_strata closed_tables; do
    python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | sed '$d'
done
