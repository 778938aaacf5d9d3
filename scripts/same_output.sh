#!/usr/bin/env bash
# Same-output check for a change that must not move a byte: builds
# BASE's `simulate` from a `git archive` of it under target/ab/ (same
# lockfile, no new dependency), runs every cell below on BASE and on the
# working tree, and names each cell whose stdout differs. Exits 1 if any
# does.
#
#   scripts/same_output.sh BASE        # BASE: any commit, e.g. HEAD~1
#
# It needs a second release build, so tier1.sh does not run it.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

base=$(git rev-parse --verify "${1:?usage: scripts/same_output.sh BASE}^{commit}")
tree=target/ab/$base
out=$(mktemp -d)
cleanup() {
    rm -rf "$tree" "$out"
}
trap cleanup EXIT
cleanup
mkdir -p "$out" "$tree"
git archive "$base" | tar -x -C "$tree"
cargo build --quiet --release --locked --manifest-path "$tree/Cargo.toml" \
    --target-dir target/ab/target -p eps-harness --bin simulate
cargo build --quiet --release --locked -p eps-harness --bin simulate

cells=()
# Fig. 2 (N = 100, 50 events/s a node, eps = 0.1), every algorithm.
for algo in no-recovery random-pull push subscriber-pull combined-pull \
    publisher-pull push-pull summary-push summary-pull; do
    cells+=("-a $algo --duration 6 --seed 1")
done
# Full caches: own publishes alone (20 a second, 4 s) overflow beta = 40.
for algo in push push-pull summary-push summary-pull random-pull \
    publisher-pull combined-pull; do
    cells+=("-a $algo --nodes 25 --publish-rate 20 --duration 4 --beta 40 --seed 999")
done
scale="-a push --nodes 4000 --patterns 8192 --publish-rate 2 --duration 1"
small="-a push -a combined-pull --duration 2 --seed 1"
cells+=("$scale" "$scale --churn 0.01" "$small --overlay ba --rho 0.5"
    "$small --clients 5 --zipf 1.2" "$small --adaptive" "$small --beta 0")
# Reconfigurations on the tree, under both route-recording rows: each
# moved path is recorded afresh.
cells+=("-a combined-pull -a publisher-pull --duration 2 --seed 1 --overlay tree --rho 0.5")
# The walks of the overlay: the Watts-Strogatz routing view re-derived
# after breaks, overlapping tree breaks (rho below the repair delay)
# that leave forests of more than two components for the repair
# planner, and the preferential-attachment overlay under them.
cells+=("$small --overlay ws --max-degree 6 --rho 0.5" "$small --rho 0.03" "$small --overlay ba --rho 0.03")
# Subscription churn under the rows that detect losses (a mid-run
# subscription restarts its streams' loss detection), with several
# clients a dispatcher, and under both summary rows.
churn="--churn 0.05 --duration 4 --seed 1"
cells+=("-a combined-pull -a push-pull -a subscriber-pull $churn"
    "-a combined-pull --clients 3 --churn 0.02 --duration 4 --seed 3"
    "-a summary-pull -a summary-push $churn")

differ=0
for cell in "${cells[@]}"; do
    # A run that fails on either side counts as a difference.
    # shellcheck disable=SC2086 # a cell is a list of flags
    if target/ab/target/release/simulate $cell >"$out/base" 2>/dev/null &&
        target/release/simulate $cell >"$out/tree" 2>/dev/null &&
        cmp -s "$out/base" "$out/tree"; then
        echo "same     $cell"
    else
        echo "DIFFERS  $cell"
        differ=$((differ + 1))
    fi
done
echo "$differ of ${#cells[@]} cells differ from $base"
[ "$differ" -eq 0 ]
