#!/usr/bin/env bash
# Runs every workload twice on this commit with one seed and fails if
# an end-to-end metric differs by more than its bound, or if any
# simulated count differs at all.
#
#   benchmark/check_repeat.sh [seed]
set -uo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
seed="${1:-1}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
workloads="$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)"
mkdir -p benchmark/out
status=0
for workload in $workloads; do
    for pass in first second; do
        out="benchmark/out/$workload.$pass.txt"
        if ! benchmark/run.sh --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 >"$out"; then
            echo "$workload: $pass run failed"
            grep 'CHECK FAILED' "$out"
            status=1
        fi
    done
    if benchmark/run.sh --compare "benchmark/out/$workload.first.txt" \
        "benchmark/out/$workload.second.txt"; then
        echo "$workload: repeats"
    else
        status=1
    fi
done
exit "$status"
