#!/usr/bin/env bash
# Tier-1 verification, fully offline: release build, the complete test
# suite, and a warnings-as-errors clippy pass over the workspace.
# The default dependency graph has no external crates, so this must
# succeed with no network access at all.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Every committed baseline must come out of the run byte for byte as it
# went in: each bench writes only where its flags say (target/bench), and
# a re-baseline is an edit made before the run, not a side effect of it.
# Checked at the end.
bench_baselines=$(sha256sum BENCH_*.json)

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

echo "== tier-1: one module names the per-node protocol streams =="
# The simulator and the socket runtime draw each node's gossip
# decisions, link loss and gossip phase from the same streams, named
# once (eps_harness::node). A second file naming one of them is a
# second schedule or a second stream layout on its way back in.
for stream in '"gossip-node"' '"net-node"' '"gossip-phase"'; do
    named_in=$(grep -rlF "$stream" crates || true)
    [ "$(echo "$named_in" | grep -c .)" -le 1 ] \
        || { echo "FAIL: $stream is named in more than one file under crates/:"; echo "$named_in"; exit 1; }
done

echo "== tier-1: every config field is set somewhere =="
# A public config field that nothing outside its own file assigns is a
# setting no run changes: it belongs in a named constant. An assignment
# is `field:` in a struct literal or `.field =`. The check is lenient:
# a same-named field or parameter elsewhere hides a miss, but it never
# fails on a field that something sets.
config_structs=(
    "ScenarioConfig crates/harness/src/config.rs"
    "AdaptiveGossip crates/harness/src/config.rs"
    "GossipConfig crates/gossip/src/config.rs"
    "DispatcherConfig crates/pubsub/src/dispatcher.rs"
    "NetConfig crates/net/src/cluster.rs"
)
unset_fields=()
for entry in "${config_structs[@]}"; do
    read -r name file <<<"$entry"
    fields=$(awk -v start="pub struct $name {" '
        index($0, start) == 1 {inside = 1; next}
        inside && /^}/ {exit}
        inside && match($0, /^    pub [a-z_0-9]+:/) {print substr($0, 9, RLENGTH - 9)}
    ' "$file")
    [ -n "$fields" ] || { echo "FAIL: no pub fields found for $name in $file"; exit 1; }
    for field in $fields; do
        grep -rlE --include='*.rs' "(\b$field\s*:([^:]|$)|\.$field\s*=([^=]|$))" \
            crates src tests examples benchmark/src --exclude-dir=target \
            | grep -vxF "$file" | grep -q . \
            || unset_fields+=("$name::$field ($file)")
    done
done
[ "${#unset_fields[@]}" -eq 0 ] \
    || { echo "FAIL: config fields no file outside their struct's assigns (make them constants):";
         printf '  %s\n' "${unset_fields[@]}"; exit 1; }

echo "== tier-1: every pub fn is named outside its own file =="
# The library's surface is what some binary calls. A `pub fn` in a
# library crate that no other file names is surface only its own tests
# use: delete it, make it private, or move it under #[cfg(test)]. Named
# means the word appears in another .rs file under crates/*/src (the
# bench binaries included), src/, examples/ or benchmark/src, on a line
# that is code: tests do not count (a file is read up to its top-level
# `#[cfg(test)]`, so neither its test module's names nor its pub fns
# are), nor do comments (`//`, `///`, `//!`) or `use`/`pub use`
# statements, so a re-export or a doc link alone keeps nothing public. The check is lenient, like the config-field one: a
# same-named item elsewhere hides a miss, but it never fails on a
# function something calls. Each allowed name carries its reason, and an
# entry nothing needs any more fails too.
pub_fn_allowed=(
    "mean_path_hops: ROADMAP items 16 and 18 check the overlay and the oracles against it"
    "forall: the property-test harness the integration tests of every crate run on"
    "publisher_pull: one of the paper's named strategies; integration tests build runs of it by name"
    "run_scenario_traced: the traced run the tracing and reconfiguration integration tests read"
    "to_csv: the golden tests compare each figure's CSV text through it"
)
unnamed=$(find crates/*/src src examples benchmark/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { files[++nfiles] = FILENAME; in_use = 0; in_test = 0 }
    in_test || /^#\[cfg\(test\)\]/ { in_test = 1; next }
    FILENAME ~ /^crates\/(sim|overlay|pubsub|gossip|metrics|harness|net)\/src\// &&
        match($0, /^[ \t]*pub fn [a-z_0-9]+/) {
        name = substr($0, RSTART, RLENGTH)
        sub(/.*pub fn /, "", name)
        decl[++ndecl] = FILENAME ":" FNR " " name
    }
    # A use statement runs to its semicolon.
    in_use || /^[ \t]*(pub(\([a-z]+\))? )?use / { in_use = !/;/; next }
    /^[ \t]*\/\// { next }
    {
        n = split($0, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) named[words[i], FILENAME] = 1
    }
    END {
        for (d = 1; d <= ndecl; d++) {
            split(decl[d], parts, " ")
            file = parts[1]
            sub(/:[0-9]+$/, "", file)
            used = 0
            for (f = 1; f <= nfiles && !used; f++)
                used = files[f] != file && (parts[2], files[f]) in named
            if (!used) print decl[d]
        }
    }')
failed=()
while read -r at name; do
    [ -n "$name" ] || continue
    printf '%s\n' "${pub_fn_allowed[@]}" | grep -q "^$name: ." || failed+=("$at $name")
done <<<"$unnamed"
for entry in "${pub_fn_allowed[@]}"; do
    grep -q " ${entry%%:*}$" <<<"$unnamed" || failed+=("allow-list entry nothing needs: ${entry%%:*}")
done
[ "${#failed[@]}" -eq 0 ] \
    || { echo "FAIL: pub fns no file outside their own names (delete them, or make them private or #[cfg(test)]):";
         printf '  %s\n' "${failed[@]}"; exit 1; }

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

echo "== tier-1: kernel bench (paired against its last re-baseline: gated at 25%) =="
# Absolute medians against the committed file are a record of host
# drift, not a gate: on a shared 2-vCPU host an unchanged tree read
# 12-13 kernel rows at 1.3-2.5x their committed values. The gate is the
# paired compare: the kernel rows of the commit that last re-baselined
# BENCH_kernel.json and of this tree, run alternately in this session:
# over ten pairs, the median of each gated row's per-pair ratio at most
# 1.25, and no gated row gone (scripts/ab.sh; one release build of that
# commit and twenty microbench runs, about two to three minutes).
cargo run --release -p eps-bench --bin bench_compare -- \
    BENCH_kernel.json target/bench/BENCH_kernel.json
scripts/ab.sh
echo "== tier-1: net_load (reactor saturation at 1000 dispatchers) =="
# One stage at the committed baseline rate: the full sweep is for
# finding the saturation knee offline; CI re-measures the knee stage
# and merges its entries beside the codec microbenches, where the
# advisory compare below tracks them. Runs after the kernel gate so a
# strict-retry microbench rerun cannot clobber the merged entries.
cargo run --release -p eps-bench --bin net_load -- \
    --nodes 1000 --workers 2 --rates 2 --duration 0.6 --drain 20 \
    --merge-into target/bench/BENCH_net.json
# Memory tripwire: a reactor node holds only its own state (one
# delivery ledger and one subscriber index per process, and per worker a
# counter set of run totals whose size does not grow with N), and peaks
# near 12 KB: six runs read 11 555-12 014 B on a 2-vCPU host. The limit
# is twice the largest reading, so per-node copies of run-wide state —
# the subscriber index, a delivery journal — that double a node trip it.
net_rss_per_node=$(python3 - <<'EOF'
import json
bench = json.load(open("target/bench/BENCH_net.json"))["benchmarks"]
print(next(b["median_ns"] for b in bench if b["name"] == "net_load_rss_per_node_bytes"))
EOF
)
echo "net_load peak RSS per node: ${net_rss_per_node} B (limit 24000 B)"
awk -v b="$net_rss_per_node" 'BEGIN {exit !(b <= 24000)}' \
    || { echo "FAIL: a reactor node peaked above 24 KB"; exit 1; }

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
# A simulate run's own peak resident set in MB: the `peak rss` its
# stderr summary line reports, the process's VmHWM. (A parent's
# getrusage(RUSAGE_CHILDREN) also counts the image it forked from:
# /bin/true read 13.7 MB through python3, so no cell could be seen
# below that.)
simulate_peak_mb() {
    ./target/release/simulate "$@" 2>&1 >/dev/null | peak_mb_in
}
# The `peak rss` of the stderr summary line on standard input.
peak_mb_in() {
    sed -n 's/.*peak rss \([0-9.]*\) MB.*/\1/p'
}
# Fails unless a peak was read and is at most the limit in MB.
check_peak() {
    local label=$1 peak=$2 limit=$3
    echo "${label} peak RSS: ${peak} MB (limit ${limit} MB)"
    [ -n "$peak" ] && awk -v mb="$peak" -v limit="$limit" 'BEGIN {exit !(mb <= limit)}' \
        || { echo "FAIL: ${label} peaked above ${limit} MB, or no peak was read"; exit 1; }
}
midscale_cell() {
    ./target/release/simulate "${midscale_args[@]}" 2>/dev/null
}
midscale_a=$(midscale_cell)
midscale_b=$(midscale_cell)
echo "$midscale_a" | grep -E 'delivery rate \(whole\)|gossip messages|setup subscription msgs'
[ "$midscale_a" = "$midscale_b" ] \
    || { echo "FAIL: mid-scale cell differs between two runs of the same command";
         diff <(echo "$midscale_a") <(echo "$midscale_b"); exit 1; }
# Event-count tripwire, from the stderr line: 39 998 of the cell's
# 40 000 gossip rounds send nothing, and the node clock parks them and
# replays them at the node's next input instead of popping a tick for
# each. The loop processed 68 409 events when every round was a tick
# and processes 28 412 with silent rounds parked; the limit sits
# halfway. Rounds firing again one tick each put it back near 68 000.
midscale_events=$(./target/release/simulate "${midscale_args[@]}" 2>&1 >/dev/null \
    | sed -n 's/.*events processed \([0-9]*\).*/\1/p')
echo "mid-scale cell events processed: ${midscale_events} (limit 48410)"
[ -n "$midscale_events" ] && [ "$midscale_events" -le 48410 ] \
    || { echo "FAIL: mid-scale cell processed more than 48410 events"; exit 1; }
# Memory tripwire. Each table's row map keeps only its non-empty
# pattern words (≈ 120 B at Π = 8192), a node is at most 800 B inline
# (what only some strategies, policies or options use is boxed at
# first use) and push lists hold 4-byte ring slots: the cell peaks near
# 12.7 MB. With 1 120-byte nodes and lists of 16-byte event ids it
# peaked at 14.4 MB; the limit sits halfway. (A dense row map — a bit
# per pattern and a count per map word, ≈ 1 KB per dispatcher — put it
# near 18 MB.)
check_peak "mid-scale cell" "$(simulate_peak_mb "${midscale_args[@]}")" 13.6

echo "== tier-1: N = 1e5 cell (push, 8192 patterns): memory, plan and replay =="
# One run, its stderr summary line read twice. Memory: the scale check
# at N = 10^5, where per-dispatcher state is most of the memory: each
# node inline, its routing rows, its seen set. It peaks near 153.5 MB
# with nodes of at most 800 B; with 1 120-byte nodes it peaked at
# 184.7 MB, and the limit sits halfway. (A dense row map put it near
# 282 MB.)
scale_summary=$(./target/release/simulate -a push --nodes 100000 --patterns 8192 \
    --publish-rate 0.01 --duration 1 --seed 1 2>&1 >/dev/null)
echo "$scale_summary"
check_peak "N = 1e5 push cell" "$(echo "$scale_summary" | peak_mb_in)" 169
# Plan and replay at scale, in a release build (the golden files cover
# debug builds at small N): both counts are deterministic, and a round
# parked, replayed or fired differently moves one of them. Nearly every
# one of the cell's 3.4 M rounds sends nothing and is replayed, not
# popped from the queue.
for count in 'events processed 81984,' 'gossip rounds elided 3333342,'; do
    echo "$scale_summary" | grep -qF "$count" \
        || { echo "FAIL: N = 1e5 push cell no longer reads '${count}'"; exit 1; }
done

echo "== tier-1: churn cell (subscription swaps: two processes, one output) =="
# A mid-run subscription drops the pattern's loss-detector streams with
# a retain over a map seeded per process (eps_sim::hash), so the walk
# visits them in a different order in every process. It only removes
# entries, and this is the check that its order never reaches the
# output: the same command, in two processes, prints the same report.
churn_cell() {
    ./target/release/simulate -a push -a combined-pull --nodes 60 --duration 2 \
        --rho 0.2 --churn 0.3 --seed 1 2>/dev/null
}
churn_a=$(churn_cell)
churn_b=$(churn_cell)
echo "$churn_a" | grep -E 'subscription swaps'
[ "$churn_a" = "$churn_b" ] \
    || { echo "FAIL: churn cell differs between two runs of the same command";
         diff <(echo "$churn_a") <(echo "$churn_b"); exit 1; }

echo "== tier-1: Fig. 2 cell memory (combined pull at full size) =="
# The paper's cell, where each dispatcher's recovery state is the
# largest it keeps. An event cache builds only the indexes its strategy
# reads — combined pull serves by (source, pattern, seq), so it keeps
# neither an event-id index nor per-pattern id lists — and stores each
# event once, with no admission stamp, in a ring of beta slots its seq
# index points into; the loss detector is one map of the (source,
# pattern) streams its dispatcher tracks; the Lost buffer is one ordered
# map whose eviction queue is compacted at twice its live entries.
# The seq index keeps a 4-byte bucket (slot and hash tag) and the seen
# set a 16-byte entry (one packed u64 key and its word of 64 seqs). The
# recorded routes are shared, not copied: a dispatcher's route book
# keeps one path per source, and every event that followed that path
# carries the book's copy, so the routes line is about 1.2 MB, not 8 MB
# (microbench's heap/fig2_combined/routes row, 8 361 B a dispatcher, as
# an event at its source holds no route allocation; 12 235 B while each
# published a one-hop route, 80 655 B when each forwarded copy built its
# own route and the book copied it again). The cell peaks near 24.0 MB; with a route copy per
# hop it peaked near 28.5 MB, with 8-byte buckets and 24-byte seen
# entries near 32.3 MB (34.7 MB before the run's delivery tracker
# indexed events by source and seq). A Lost buffer with a hash primary
# under two B-tree views, or a queue compacted only at twice the
# capacity, each puts back about 2-3 MB; an id index on pull caches
# about 1.6 MB, an admission stamp beside each cached event about
# 1.2 MB, and a detector row per source over the pattern universe
# about 5 MB. The limit, 26.3 MB, sits halfway between the cell's peak
# and the 28.5 MB, so a route copied at every hop again trips it.
check_peak "Fig. 2 combined-pull cell" \
    "$(simulate_peak_mb -a combined-pull --duration 6 --seed 1)" 26.3

echo "== tier-1: Fig. 2 cell memory (push at full size) =="
# The same cell under push, whose caches keep the event-id index and
# per-pattern lists for the positive digest. A list holds 4-byte ring
# slots, not 16-byte event ids, the id index a 4-byte bucket and the
# seen set a 16-byte entry: the cell peaks near 21.6 MB. With 8-byte
# buckets and 24-byte seen entries it peaked near 24.0 MB, and with
# lists of ids at 34.5 MB. The limit, 23 MB, sits halfway between the
# first two.
check_peak "Fig. 2 push cell" \
    "$(simulate_peak_mb -a push --duration 6 --seed 1)" 23

echo "== tier-1: Fig. 2 cell memory (summary rows at full size) =="
# The same cell under both summary rows, one after the other (--jobs 1,
# so the peak is the larger run's, on any core count). A summary index
# stores one ordered-map entry per (id, pattern) pair it holds plus a
# root aggregate per pattern. summary-push keeps one over its live ids;
# summary-pull keeps one over every id its cache ever admitted (its
# seen index), which eviction never shrinks. summary-pull peaks near
# 45 MB, summary-push near 41 MB. Per-level aggregate maps put back
# about 110 MB (the cell peaked at 164.6 MB with six of them). Evicted
# pairs kept on summary-push, which never reads them, grew its index by
# one entry each: about 3 MB on this 6 s cell, 73 MB on a 20 s one. The
# limit is 60 MB.
check_peak "Fig. 2 summary cells" \
    "$(simulate_peak_mb -a summary-push -a summary-pull --duration 6 --seed 1 --jobs 1)" 60

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

echo "== tier-1: benchmark package unit tests (stats, metrics, spans) =="
# benchmark/ is its own package outside the workspace, so the
# workspace test run above does not reach its tests.
cargo test --offline --manifest-path benchmark/Cargo.toml -q

echo "== tier-1: docs build =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== tier-1: clippy (warnings are errors, debug and release profiles) =="
# The two profiles compile different code: fields and checks under
# cfg(debug_assertions) exist only in the first.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
    cargo clippy --workspace --all-targets --release -- -D warnings
else
    echo "clippy not installed; skipping lint pass"
fi

echo "== tier-1: committed baselines unchanged =="
sha256sum --quiet --check <<<"$bench_baselines" \
    || { echo "FAIL: the run rewrote a committed BENCH_*.json"; exit 1; }

echo "tier-1 OK"
