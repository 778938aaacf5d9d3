#!/usr/bin/env bash
# Tier-1 verification, fully offline: release build, the complete test
# suite, and a warnings-as-errors clippy pass over the workspace.
# The default dependency graph has no external crates, so this must
# succeed with no network access at all.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== tier-1: formatting =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "rustfmt not installed; skipping format check"
fi

echo "== tier-1: no SipHash table on the event path =="
! grep -rnE 'collections::(\{[^}]*)?Hash(Map|Set)' crates/{overlay,pubsub,gossip,metrics}/src \
    || { echo "FAIL: use eps_sim::hash::{IdMap, IdSet}, or a BTreeMap where order is output"; exit 1; }

echo "== tier-1: no dynamic dispatch in the protocol crates =="
# A strategy is one enum match and a dispatcher concrete types; a trait
# object in either crate puts an indirect call back on the event path.
! grep -rn 'dyn ' crates/{gossip,pubsub}/src \
    || { echo "FAIL: no trait objects in crates/{gossip,pubsub}/src (match an enum instead)"; exit 1; }

echo "== tier-1: release build =="
# --workspace: the root package makes a bare `cargo build` compile only
# itself (+ member libs); the member *binaries* (net_cluster below)
# need the whole workspace.
cargo build --workspace --release

echo "== tier-1: workspace tests =="
cargo test --workspace -q

echo "== tier-1: microbench (kernel + per-strategy gossip rounds) =="
mkdir -p target/bench
cargo run --release -p eps-bench --bin microbench -- \
    --out target/bench/BENCH_kernel.json \
    --gossip-out target/bench/BENCH_gossip.json \
    --net-out target/bench/BENCH_net.json

echo "== tier-1: scenario bench (end-to-end runs per algorithm) =="
cargo run --release -p eps-bench --bin scenario_bench -- \
    --out target/bench/BENCH_scenario.json

echo "== tier-1: bench compare (kernel gated at 25%, rest advisory) =="
# The kernel microbenches are tight, allocation-free loops — stable
# enough to gate hard with generous headroom. The gossip/scenario/net
# files time whole protocol rounds and end-to-end runs, which are too
# noisy on shared machines to fail CI; those stay advisory, as do the
# one-build-per-iteration topology_build and subscription_flood
# entries inside the kernel file. Shared hosts occasionally time-slice the vCPU (steal),
# uniformly doubling every measurement — on a strict failure,
# re-measure once before declaring a real regression.
if ! cargo run --release -p eps-bench --bin bench_compare -- \
    --strict --threshold 25 --advisory-prefix topology_build \
    --advisory-prefix subscription_flood \
    BENCH_kernel.json target/bench/BENCH_kernel.json; then
    echo "kernel bench regressed; re-measuring once (transient host steal?)"
    sleep 5
    cargo run --release -p eps-bench --bin microbench -- \
        --out target/bench/BENCH_kernel.json \
        --gossip-out target/bench/BENCH_gossip.json \
        --net-out target/bench/BENCH_net.json
    cargo run --release -p eps-bench --bin bench_compare -- \
        --strict --threshold 25 --advisory-prefix topology_build \
        --advisory-prefix subscription_flood \
        BENCH_kernel.json target/bench/BENCH_kernel.json
fi
echo "== tier-1: net_load (reactor saturation at 1000 dispatchers) =="
# One stage at the committed baseline rate: the full sweep is for
# finding the saturation knee offline; CI re-measures the knee stage
# and merges its entries beside the codec microbenches, where the
# advisory compare below tracks them. Runs after the kernel gate so a
# strict-retry microbench rerun cannot clobber the merged entries.
cargo run --release -p eps-bench --bin net_load -- \
    --nodes 1000 --workers 2 --rates 2 --duration 0.6 --drain 20 \
    --merge-into target/bench/BENCH_net.json
# Memory tripwire: a reactor node peaks near 78 KB when it holds only
# its own state (one delivery ledger, one subscriber index and one
# counter set per process or worker). Per-node copies of run-wide
# state — an N-wide counter set, the subscriber index, a delivery
# journal — put it back near 164 KB.
net_rss_per_node=$(python3 - <<'EOF'
import json
bench = json.load(open("target/bench/BENCH_net.json"))["benchmarks"]
print(next(b["median_ns"] for b in bench if b["name"] == "net_load_rss_per_node_bytes"))
EOF
)
echo "net_load peak RSS per node: ${net_rss_per_node} B (limit 110000 B)"
awk -v b="$net_rss_per_node" 'BEGIN {exit !(b <= 110000)}' \
    || { echo "FAIL: a reactor node peaked above 110 KB"; exit 1; }

# --advisory-prefix keeps the client-layer matching entries (which
# include one-shot aggregate-filter counts), the sub-µs summary
# map-churn loops, and the whole-cluster net_load saturation numbers
# advisory even if this comparison is ever promoted to --strict.
cargo run --release -p eps-bench --bin bench_compare -- \
    --advisory-prefix table_matching_aggregated \
    --advisory-prefix summary_ \
    --advisory-prefix net_load \
    BENCH_gossip.json target/bench/BENCH_gossip.json \
    BENCH_scenario.json target/bench/BENCH_scenario.json \
    BENCH_net.json target/bench/BENCH_net.json

echo "== tier-1: reactor smoke (same scenarios on the epoll runtime) =="
./target/release/net_cluster --nodes 3 --algorithm push --eps 0.05 \
    --pattern-universe 6 --pi-max 2 --duration 0.8 --drain 2 --seed 11 \
    --workers 2
./target/release/net_cluster --nodes 3 --algorithm combined-pull --eps 0.05 \
    --pattern-universe 6 --pi-max 2 --duration 0.8 --drain 2 --seed 13 \
    --workers 2

echo "== tier-1: overlay scenarios (duplicate-suppression invariant) =="
# On a tree the routing view IS the physical graph: no cross links
# exist, so the duplicate filter must absorb exactly zero redundant
# copies. On the cyclic overlays the cross links replicate every
# matching event, so the suppressed count must be positive.
overlay_dups() {
    ./target/release/simulate --overlay "$1" --max-degree "$2" --nodes 40 \
        --duration 2 --seed 5 -a push 2>/dev/null \
        | awk '/duplicates suppressed/ {print $3; found=1} END {if (!found) print 0}'
}
tree_dups=$(overlay_dups tree 4)
ba_dups=$(overlay_dups ba 6)
ws_dups=$(overlay_dups ws 6)
echo "duplicates suppressed: tree=$tree_dups ba=$ba_dups ws=$ws_dups"
[ "$tree_dups" -eq 0 ] || { echo "FAIL: tree overlay suppressed duplicates"; exit 1; }
[ "$ba_dups" -gt 0 ] || { echo "FAIL: ba overlay suppressed no duplicates"; exit 1; }
[ "$ws_dups" -gt 0 ] || { echo "FAIL: ws overlay suppressed no duplicates"; exit 1; }

echo "== tier-1: mid-scale cell (N=4000, 8192 patterns: two processes, one output) =="
# The one place outside benchmark/ where the known-pattern index and
# the bulk subscription fill run in a release build at a pattern
# universe large enough to matter (128 shared-bitset words; a
# dispatcher's own routing state is the ~20 explicit rows on its
# patterns' subscriber subtrees). The same command runs in two
# processes and must print the same result lines: the lookup-only
# maps are seeded per process (eps_sim::hash), and this is the check
# that the seed never reaches the output. The wall-time line goes to
# stderr and is not compared.
midscale_args=(-a push --nodes 4000 --patterns 8192 --publish-rate 2 --duration 0.3 --seed 1)
midscale_cell() {
    ./target/release/simulate "${midscale_args[@]}" 2>/dev/null
}
midscale_a=$(midscale_cell)
midscale_b=$(midscale_cell)
echo "$midscale_a" | grep -E 'delivery rate \(whole\)|gossip messages|setup subscription msgs'
[ "$midscale_a" = "$midscale_b" ] \
    || { echo "FAIL: mid-scale cell differs between two runs of the same command";
         diff <(echo "$midscale_a") <(echo "$midscale_b"); exit 1; }
# Memory tripwire: the cell's peak resident set, from the kernel's
# accounting of a finished child (there is no /usr/bin/time here). Per-
# dispatcher state that grows with the pattern universe again — dense
# rows, a bitset per neighbor — puts it back above 60 MB.
midscale_peak_mb=$(python3 - "${midscale_args[@]}" <<'EOF'
import resource, subprocess, sys
subprocess.run(["./target/release/simulate", *sys.argv[1:]],
               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
print(f"{resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024:.1f}")
EOF
)
echo "mid-scale cell peak RSS: ${midscale_peak_mb} MB (limit 32 MB)"
awk -v mb="$midscale_peak_mb" 'BEGIN {exit !(mb <= 32)}' \
    || { echo "FAIL: mid-scale cell peaked above 32 MB"; exit 1; }

echo "== tier-1: flag order (--adaptive backs off around the interval the run uses) =="
# --adaptive brackets --gossip-interval wherever the two flags stand on
# the command line: both orders must print the same report.
adaptive_cell() {
    ./target/release/simulate -a push --nodes 30 --duration 2 "$@" 2>/dev/null
}
adaptive_first=$(adaptive_cell --adaptive --gossip-interval 0.1)
adaptive_last=$(adaptive_cell --gossip-interval 0.1 --adaptive)
echo "$adaptive_first" | grep -E 'gossip messages'
[ "$adaptive_first" = "$adaptive_last" ] \
    || { echo "FAIL: --adaptive depends on where --gossip-interval stands";
         diff <(echo "$adaptive_first") <(echo "$adaptive_last"); exit 1; }

echo "== tier-1: aggregation smoke (client layer, covering/merging) =="
# One dispatcher population, 1 vs 100 clients per dispatcher. The
# aggregate layer must not cost delivery (denser subscriptions give
# recovery more to work with, so the multi-client cell reads >= the
# single-client one on this pinned seed), and subscription setup
# traffic must be sublinear in client count: covering collapses 100x
# the client subscriptions into far fewer than 100x the wire messages.
agg_cell() {
    ./target/release/simulate --nodes 40 --duration 2 --seed 5 -a push \
        --clients "$1" 2>/dev/null
}
base_cell=$(agg_cell 1)
multi_cell=$(agg_cell 100)
base_delivery=$(echo "$base_cell" | awk '/delivery rate \(window\)/ {print $4}')
multi_delivery=$(echo "$multi_cell" | awk '/delivery rate \(window\)/ {print $4}')
base_submsgs=$(echo "$base_cell" | awk '/setup subscription msgs/ {print $4}')
multi_submsgs=$(echo "$multi_cell" | awk '/setup subscription msgs/ {print $4}')
multi_subs=$(echo "$multi_cell" | awk '/client subscriptions/ {print $3}')
echo "delivery: clients1=$base_delivery clients100=$multi_delivery;" \
     "setup msgs: clients1=$base_submsgs clients100=$multi_submsgs" \
     "($multi_subs client subscriptions)"
awk -v a="$multi_delivery" -v b="$base_delivery" 'BEGIN {exit !(a >= b)}' \
    || { echo "FAIL: clients=100 delivery dropped below clients=1"; exit 1; }
[ "$multi_submsgs" -lt $((100 * base_submsgs)) ] \
    || { echo "FAIL: subscription wire traffic grew linearly in client count"; exit 1; }

echo "== tier-1: summary reconciliation smoke (wire cost at a 100x cache) =="
# combined-pull vs summary-pull with beta = 150000 (100x the paper's
# 1500). A linear digest is charged the paper's flat one-event rate, so
# its arm provisions the payload for a full-cache announcement:
# header + 96 bits per id for this cache's per-pattern share
# (beta / Pi). The summary arm keeps the 1024-bit default because its
# digests are accounted exactly (a root aggregate plus only the ranges
# that differ). The claim under test is the headline O(C) -> O(log C)
# reduction: summary recovery-control bits (gossip + requests) must be
# under 25% of linear's, at equal-or-better window delivery.
LINEAR_PAYLOAD=$((256 + 96 * 150000 / 70))
cache100_cell() {
    ./target/release/simulate --nodes 40 --duration 2 --seed 5 --eps 0.05 \
        --beta 150000 -a "$1" "${@:2}" 2>/dev/null
}
linear_cell=$(cache100_cell combined-pull --payload-bits "$LINEAR_PAYLOAD")
summary_cell=$(cache100_cell summary-pull)
linear_bits=$(echo "$linear_cell" | awk '/recovery control bits/ {print $4}')
summary_bits=$(echo "$summary_cell" | awk '/recovery control bits/ {print $4}')
linear_delivery=$(echo "$linear_cell" | awk '/delivery rate \(window\)/ {print $4}')
summary_delivery=$(echo "$summary_cell" | awk '/delivery rate \(window\)/ {print $4}')
echo "recovery control bits: linear=$linear_bits summary=$summary_bits;" \
     "delivery: linear=$linear_delivery summary=$summary_delivery"
[ "$((4 * summary_bits))" -lt "$linear_bits" ] \
    || { echo "FAIL: summary wire cost not under 25% of linear at a 100x cache"; exit 1; }
awk -v s="$summary_delivery" -v l="$linear_delivery" 'BEGIN {exit !(s >= l)}' \
    || { echo "FAIL: summary delivery fell below linear"; exit 1; }

echo "== tier-1: end-to-end benchmark smoke (benchmark/, every workload once) =="
bash benchmark/run.sh --smoke

echo "== tier-1: docs build =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== tier-1: clippy (warnings are errors) =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping lint pass"
fi

echo "tier-1 OK"
