#!/usr/bin/env bash
# Paired kernel A/B: runs BASE's `microbench` and the working tree's one
# after the other, in alternating order, and compares each kernel row
# across the session (`bench_compare --paired`): the median over the
# pairs of the working tree's fastest sample over BASE's. Both sides
# sample the same phases of the host, so the ratio moves with the code
# where an absolute median moves with the host. Exits 1 if a gated
# row's median ratio is above 1.25, or a gated BASE row is gone.
#
#   scripts/ab.sh [BASE]
#
# BASE defaults to the last commit that changed BENCH_kernel.json (its
# last re-baseline), so drift summed over many changes is caught, not
# only one change's step. BASE is built from a
# `git archive` of it under target/ab/ (same lockfile, no new
# dependency; binaries stay in target/ab/target). The runs are kept in
# target/ab/runs/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

base=$(git rev-parse --verify "${1:-$(git log -1 --format=%H -- BENCH_kernel.json)}^{commit}")
pairs=10
tree=target/ab/$base
runs=target/ab/runs
trap 'rm -rf "$tree"' EXIT
rm -rf "$tree" "$runs"
mkdir -p "$tree" "$runs"
git archive "$base" | tar -x -C "$tree"
cargo build --quiet --release --locked --manifest-path "$tree/Cargo.toml" \
    --target-dir target/ab/target -p eps-bench --bin microbench
cargo build --quiet --release --locked -p eps-bench --bin microbench --bin bench_compare

# Alternate which side runs first (ABBA), so a host phase that drifts
# across the session slows each side first as often as second.
files=()
for i in $(seq "$pairs"); do
    sides=(base change)
    [ $((i % 2)) -eq 1 ] || sides=(change base)
    for side in "${sides[@]}"; do
        bin=target/release/microbench
        [ "$side" = change ] || bin=target/ab/target/release/microbench
        "$bin" --out "$runs/$side-$i.json" 2>/dev/null
    done
    files+=("$runs/base-$i.json" "$runs/change-$i.json")
done

# The rows tier-1 gated on absolute medians before, with the same
# advisory ones: single-shot builds and floods, whole node hops that
# include map growth, and a probe of one session's random keys.
echo "paired kernel compare against $base:"
target/release/bench_compare --paired --strict --threshold 25 \
    --advisory-prefix topology_build --advisory-prefix subscription_flood \
    --advisory-prefix node_event_hop --advisory-prefix cache_get_by_pattern_seq \
    "${files[@]}"
