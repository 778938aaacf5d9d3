//! `microbench` — wall-clock benchmarks of the simulator's hot paths,
//! with no external dependencies.
//!
//! ```text
//! microbench [--out FILE] [--gossip-out FILE]
//!     # defaults: BENCH_kernel.json, BENCH_gossip.json
//! ```
//!
//! Covers the event-queue kernel (schedule/pop), the
//! no-alloc subscription-table matching path, per-hop event cloning,
//! the in-tree RNG, and one miniature end-to-end scenario at the
//! paper's Figure 2 defaults — plus one gossip-round benchmark per
//! recovery strategy (so a new table row is benchmarked
//! automatically). Results (median ns per iteration)
//! print to stderr and are written as JSON for tracking across
//! commits: the kernel set to `--out`, the per-strategy set to
//! `--gossip-out`.

use std::process::ExitCode;
use std::sync::Arc;

use eps_bench::mini;
use eps_bench::timing::{bench, to_json, BenchResult};
use eps_gossip::{
    codec, Algorithm, Envelope, GossipConfig, GossipMessage, LostBuffer, SummaryMode, SummaryState,
};
use eps_harness::{build_population, run_scenario, ScenarioConfig, SimNode};
use eps_net::frame::{frame, FrameReader};
use eps_overlay::{NodeId, OverlayKind, Topology};
use eps_pubsub::{
    rebuild_subscription_routes, ClientId, ClientRegistry, Dispatcher, DispatcherConfig,
    DispatcherHost, Event, EventId, Interface, LossRecord, PatternId, PubSubMessage,
    SubscriptionTable, SummaryIndex,
};
use eps_sim::hash::IdMap;
use eps_sim::{KeyedEngine, Rng, RngFactory, SimTime};

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_kernel.json");
    let mut gossip_out_path = String::from("BENCH_gossip.json");
    let mut net_out_path = String::from("BENCH_net.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(path) => out_path = path.clone(),
                None => {
                    eprintln!("error: --out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--gossip-out" => match iter.next() {
                Some(path) => gossip_out_path = path.clone(),
                None => {
                    eprintln!("error: --gossip-out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--net-out" => match iter.next() {
                Some(path) => net_out_path = path.clone(),
                None => {
                    eprintln!("error: --net-out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "usage: microbench [--out FILE] [--gossip-out FILE] [--net-out FILE]   (unknown arg '{other}')"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    // Memory first: the RSS-delta measurement needs a heap no earlier
    // benchmark has grown and refragmented.
    let mut results = node_memory();
    results.extend([
        engine_schedule_pop(),
        table_matching(),
        table_matching_dense(),
        table_matching_filled(),
        detector_record(),
        cache_digest_build(),
        cache_insert_evict(),
        seen_insert(),
        idmap_event_id_probe(),
        event_clone_hop(),
        rng_throughput(),
        scenario_mini(),
    ]);
    results.extend(topology_build());
    results.push(subscription_flood());
    let mut gossip_results = gossip_rounds();
    gossip_results.push(gossip_round_idle());
    gossip_results.extend(digest_scaling());
    gossip_results.extend(table_matching_aggregated());
    let net_results = vec![
        codec_encode_event(),
        codec_roundtrip(),
        codec_roundtrip_digest(),
        frame_reassembly(),
    ];
    for r in results.iter().chain(&gossip_results).chain(&net_results) {
        eprintln!(
            "{:<28} median {:>12.1} ns/iter  (min {:.1}, mean {:.1}, {} x {} iters)",
            r.name, r.median_ns, r.min_ns, r.mean_ns, r.samples, r.iters_per_sample
        );
    }
    for (path, set) in [
        (&out_path, &results),
        (&gossip_out_path, &gossip_results),
        (&net_out_path, &net_results),
    ] {
        if let Err(e) = std::fs::write(path, to_json(set)) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// Reads this process's current resident set from `/proc/self/status`
/// (`VmRSS`, kB). `None` on platforms without procfs.
fn resident_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

/// A direct measurement reported through the bench JSON: the "median"
/// is the measured value itself, in the unit the entry's name carries.
fn measured(name: &str, value: f64) -> BenchResult {
    BenchResult {
        name: name.to_owned(),
        samples: 1,
        iters_per_sample: 1,
        median_ns: value,
        min_ns: value,
        mean_ns: value,
    }
}

/// Per-node memory at setup: the exact `size_of::<SimNode>()` plus the
/// resident-set growth per node while building a population — 10 000
/// dispatchers at the Figure 2 content model, and 4000 at Π = 8192,
/// the `sim_scale` content model, where routing state is most of it.
/// These are the numbers a 10⁵–10⁶ dispatcher run's memory scales
/// with. Values are **bytes**, not nanoseconds (the names carry the
/// unit); the JSON shape is the common `{name, median_ns}` one so
/// `bench_compare` tracks them across commits like any other entry.
fn node_memory() -> Vec<BenchResult> {
    let mut out = vec![measured(
        "simnode_size_of_bytes",
        std::mem::size_of::<SimNode>() as f64,
    )];
    let cells = [
        ("n10000", 10_000, ScenarioConfig::default().pattern_universe),
        ("n4000_pi8192", 4_000, 8_192),
    ];
    // Every population stays alive until the end, so no build reuses
    // pages an earlier one freed.
    let mut built = Vec::new();
    for (label, nodes, pattern_universe) in cells {
        let before = resident_bytes();
        let population = build_population(&ScenarioConfig {
            nodes,
            pattern_universe,
            ..ScenarioConfig::default()
        });
        let after = resident_bytes();
        assert_eq!(
            population.nodes.len(),
            nodes,
            "population built at full size"
        );
        if let (Some(before), Some(after)) = (before, after) {
            out.push(measured(
                &format!("population_heap_bytes_per_node/{label}"),
                (after - before).max(0.0) / nodes as f64,
            ));
        }
        built.push(population);
    }
    out
}

/// Schedule N events at pseudo-random times, then pop them all: the
/// simulator's single hottest loop, on the queue and key shape the
/// runner uses (`(class, to, from, per-sender sequence)`).
fn engine_schedule_pop() -> BenchResult {
    const N: u64 = 10_000;
    let mut rng = Rng::from_seed(1);
    bench("engine_schedule_pop", 3, 15, 2 * N, || {
        let mut engine: KeyedEngine<(u8, u32, u32, u64), u64> = KeyedEngine::new();
        for i in 0..N {
            let at = SimTime::from_nanos(rng.random_below(1 << 30));
            engine.schedule_at(at, (2, (i % 100) as u32, (i % 97) as u32, i), i);
        }
        while engine.pop().is_some() {}
    })
}

/// The Figure 2 matching workload: 70 patterns with a handful of
/// subscribed neighbors each (as one dispatcher sees it), and 1000
/// three-pattern events to match.
fn matching_workload(table: &mut SubscriptionTable) -> Vec<Event> {
    const EVENTS: u64 = 1_000;
    let mut rng = Rng::from_seed(3);
    for p in 0..70u16 {
        for _ in 0..1 + rng.random_below(4) {
            let n = NodeId::new(rng.random_below(10) as u32);
            table.insert(PatternId::new(p), Interface::Neighbor(n));
        }
        if rng.random_bool(0.3) {
            table.insert(PatternId::new(p), Interface::Local);
        }
    }
    (0..EVENTS)
        .map(|i| {
            let mut patterns: Vec<u16> = (0..3).map(|_| rng.random_below(70) as u16).collect();
            patterns.sort_unstable();
            patterns.dedup();
            Event::new(
                EventId::new(NodeId::new(0), i),
                patterns
                    .into_iter()
                    .map(|p| (PatternId::new(p), i))
                    .collect(),
            )
        })
        .collect()
}

/// Match events against a populated subscription table through the
/// buffer-reuse path used by the dispatcher.
fn table_matching() -> BenchResult {
    let mut table = SubscriptionTable::new();
    let events = matching_workload(&mut table);
    let mut scratch = Vec::new();
    let mut total = 0usize;
    let result = bench("table_matching", 3, 25, events.len() as u64, || {
        for event in &events {
            table.matching_neighbors_into(event, Some(NodeId::new(1)), &mut scratch);
            total += scratch.len();
        }
    });
    assert!(total > 0, "matching produced no forwards");
    result
}

/// Same table as `table_matching`, rebuilt in descending pattern
/// order, so every row lands in front of the rows already packed:
/// matching must not depend on how the table was built.
fn table_matching_dense() -> BenchResult {
    let mut built = SubscriptionTable::new();
    let events = matching_workload(&mut built);
    let mut table = SubscriptionTable::new();
    for p in built.all_patterns().collect::<Vec<_>>().into_iter().rev() {
        for n in built.neighbors_for_iter(p, None) {
            table.insert(p, Interface::Neighbor(n));
        }
        if built.has_local(p) {
            table.insert(p, Interface::Local);
        }
    }
    assert_eq!(table, built);
    let mut scratch = Vec::new();
    let mut total = 0usize;
    let result = bench("table_matching_dense", 3, 25, events.len() as u64, || {
        for event in &events {
            table.matching_neighbors_into(event, Some(NodeId::new(1)), &mut scratch);
            total += scratch.len();
        }
    });
    assert!(total > 0, "matching produced no forwards");
    result
}

/// Matching on a table the bulk fill built: one mid-tree dispatcher of
/// a 4000-dispatcher population at Π = 8192 (the `sim_scale` content
/// model), against 1000 events drawn from that content model. Nearly
/// every pattern resolves through the shared default route, not an
/// explicit row.
fn table_matching_filled() -> BenchResult {
    const EVENTS: u64 = 1_000;
    let population = build_population(&ScenarioConfig {
        nodes: 4_000,
        pattern_universe: 8_192,
        ..ScenarioConfig::default()
    });
    let table = population.nodes[2_000].dispatcher().table();
    let mut rng = Rng::from_seed(8);
    let events: Vec<Event> = (0..EVENTS)
        .map(|i| {
            let content = population.space.random_content(&mut rng);
            Event::new(
                EventId::new(NodeId::new(0), i),
                content.into_iter().map(|p| (p, i)).collect(),
            )
        })
        .collect();
    let mut scratch = Vec::new();
    let mut total = 0usize;
    let result = bench("table_matching_filled", 3, 25, EVENTS, || {
        for event in &events {
            table.matching_neighbors_into(event, None, &mut scratch);
            total += scratch.len();
        }
    });
    assert!(total > 0, "matching produced no forwards");
    result
}

/// Loss-detector bookkeeping on in-order streams: the per-event cost
/// every subscriber pays on the delivery path.
fn detector_record() -> BenchResult {
    const N: u64 = 10_000;
    // 10 sources × 70 patterns, each (source, pattern) stream advancing
    // in order — the loss-free steady state, which is the common case.
    let events: Vec<Event> = (0..N)
        .map(|i| {
            let source = NodeId::new((i % 10) as u32);
            let pattern = PatternId::new(((i / 10) % 70) as u16);
            let seq = i / 700;
            Event::new(EventId::new(source, i), vec![(pattern, seq)])
        })
        .collect();
    let mut sink = 0usize;
    let result = bench("detector_record", 3, 25, N, || {
        let mut det = eps_pubsub::LossDetector::with_universe(70);
        for event in &events {
            det.observe(event, |_| true);
        }
        sink += det.stream_count();
        assert_eq!(det.detected_total(), 0, "in-order streams lose nothing");
    });
    assert_eq!(sink % 700, 0, "10 sources x 70 patterns tracked");
    result
}

/// Digest construction over a full cache: `ids_matching` for every
/// pattern in the universe, the per-round cost of the push and pull
/// digest builders.
fn cache_digest_build() -> BenchResult {
    const SWEEPS: u64 = 70;
    let mut rng = Rng::from_seed(5);
    let mut cache = eps_pubsub::EventCache::new(1_500);
    // Fill the cache to capacity β = 1500 with 1–3-pattern events.
    for i in 0..1_500u64 {
        let mut patterns: Vec<u16> = (0..3).map(|_| rng.random_below(70) as u16).collect();
        patterns.sort_unstable();
        patterns.dedup();
        cache.insert(Event::new(
            EventId::new(NodeId::new((i % 10) as u32), i),
            patterns
                .into_iter()
                .map(|p| (PatternId::new(p), i))
                .collect(),
        ));
    }
    let mut sink = 0usize;
    let result = bench("cache_digest_build", 3, 25, SWEEPS, || {
        for p in 0..70u16 {
            sink += cache.ids_matching(PatternId::new(p)).len();
        }
    });
    assert!(sink > 0, "a full cache yields non-empty digests");
    result
}

/// Steady-state insert into a full FIFO cache at β = 1500: every
/// insert evicts the oldest event, which sits at the head of both
/// per-pattern lists it is on (≈ 750 ids each, as at a Fig. 2
/// subscriber of two patterns).
fn cache_insert_evict() -> BenchResult {
    const N: u64 = 10_000;
    // Each event matches one of patterns {0, 1} and one of {2, 3}.
    let events: Vec<Event> = (0..N)
        .map(|i| {
            let patterns = [(i % 2) as u16, 2 + (i / 2 % 2) as u16];
            let seqs = patterns.map(|p| (PatternId::new(p), i));
            Event::new(EventId::new(NodeId::new((i % 10) as u32), i), seqs.to_vec())
        })
        .collect();
    let mut cache = eps_pubsub::EventCache::new(1_500);
    // N > β: by the time an id comes round again it is long evicted.
    let result = bench("cache_insert_evict/beta1500", 3, 25, N, || {
        for event in &events {
            cache.insert(event.clone());
        }
    });
    assert_eq!(cache.len(), 1_500);
    assert_eq!(cache.ids_matching(PatternId::new(0)).len(), 750);
    result
}

/// Duplicate suppression on first sight: `Dispatcher::on_event` at a
/// dispatcher with no subscriptions and no neighbors, so marking the
/// id seen is all the work there is. 100 sources, dense per-source
/// sequence numbers, interleaved — the Fig. 2 arrival pattern.
fn seen_insert() -> BenchResult {
    const N: u64 = 10_000;
    let events: Vec<Event> = (0..N)
        .map(|i| {
            let id = EventId::new(NodeId::new((i % 100) as u32), i / 100);
            Event::new(id, vec![(PatternId::new(1), i / 100)])
        })
        .collect();
    let mut fresh = 0usize;
    let result = bench("seen_insert", 3, 25, N, || {
        let mut node = Dispatcher::new(NodeId::new(100), DispatcherConfig::default());
        for event in &events {
            fresh += usize::from(!node.on_event(event.clone(), None).duplicate);
        }
    });
    assert_eq!(fresh as u64 % N, 0, "every id is new to a new dispatcher");
    result
}

/// One successful probe of an `IdMap` keyed by `EventId` at cache
/// size: the lookup under `EventCache::get`, `DeliveryTracker` and the
/// digest policies' in-flight sets.
fn idmap_event_id_probe() -> BenchResult {
    const N: u64 = 10_000;
    let id = |i: u64| EventId::new(NodeId::new((i % 100) as u32), i / 100);
    let map: IdMap<EventId, u64> = (0..1_500).map(|i| (id(i), i)).collect();
    let mut sink = 0u64;
    let result = bench("idmap_event_id_probe", 3, 25, N, || {
        for i in 0..N {
            sink += map[&id(i % 1_500)];
        }
    });
    assert!(sink > 0);
    result
}

/// Per-hop event handling: clone (refcount bump) plus a recorded hop
/// (copy-on-write route extension).
fn event_clone_hop() -> BenchResult {
    const N: u64 = 10_000;
    let event = Event::new(
        EventId::new(NodeId::new(0), 1),
        vec![(PatternId::new(3), 1), (PatternId::new(9), 2)],
    );
    let mut sink = 0u64;
    let result = bench("event_clone_record_hop", 3, 25, N, || {
        for i in 0..N {
            let mut hop = event.clone();
            hop.record_hop(NodeId::new(i as u32));
            sink = sink.wrapping_add(hop.route().len() as u64);
        }
    });
    assert!(sink > 0);
    result
}

/// Raw RNG throughput (xoshiro256++).
fn rng_throughput() -> BenchResult {
    const N: u64 = 100_000;
    let mut rng = Rng::from_seed(4);
    let mut sink = 0u64;
    let result = bench("rng_next_u64", 3, 25, N, || {
        for _ in 0..N {
            sink = sink.wrapping_add(rng.next_u64());
        }
    });
    assert!(sink != 0);
    result
}

/// A dispatcher with the state every digest policy draws on: local
/// and neighbor subscriptions on a handful of patterns, a populated
/// cache of events that arrived with recorded routes (so
/// source-steered digests can reverse them).
fn gossip_node() -> Dispatcher {
    let mut node = Dispatcher::new(
        NodeId::new(5),
        DispatcherConfig {
            cache_own_published: true,
            record_routes: true,
            // The table includes the summary-reconciliation family,
            // whose digests read the cache's hash-range index.
            summary_index: true,
            ..DispatcherConfig::default()
        },
    );
    for p in 1..=4u16 {
        node.subscribe_local(PatternId::new(p), &[]);
        node.on_subscribe(PatternId::new(p), NodeId::new(u32::from(p)), &[]);
    }
    for seq in 0..64u64 {
        let pattern = PatternId::new(1 + (seq % 4) as u16);
        let mut event = Event::new(EventId::new(NodeId::new(0), seq), vec![(pattern, seq)]);
        event.record_hop(NodeId::new(1 + (seq % 4) as u32));
        node.on_event(event, Some(NodeId::new(1 + (seq % 4) as u32)));
    }
    node
}

/// One gossip round per recovery strategy, on the
/// steady-state workload a loaded dispatcher sees: a warm cache for
/// the positive digests, a replenished `Lost` buffer for the negative
/// ones. Iterates over `Algorithm::all`, so a new table row is
/// picked up without touching this file.
fn gossip_rounds() -> Vec<BenchResult> {
    const ROUNDS: u64 = 1_000;
    let node = gossip_node();
    let neighbors: Vec<NodeId> = (1..=4).map(NodeId::new).collect();
    let losses: Vec<LossRecord> = (0..32u64)
        .map(|i| LossRecord {
            source: NodeId::new(0),
            pattern: PatternId::new(1 + (i % 4) as u16),
            seq: 1_000 + i,
        })
        .collect();
    Algorithm::all()
        .into_iter()
        .map(|algo| {
            let mut strategy = algo.build(eps_gossip::GossipConfig::default());
            let mut sink = 0usize;
            let result = bench(
                &format!("gossip_round/{}", algo.name()),
                2,
                15,
                ROUNDS,
                || {
                    let mut rng = Rng::from_seed(7);
                    for _ in 0..ROUNDS {
                        strategy.on_losses(&losses);
                        sink += strategy.on_round(&node, &neighbors, &mut rng).len();
                    }
                },
            );
            assert!(
                algo.name() == "no-recovery" || sink > 0,
                "{} produced no actions",
                algo.name()
            );
            result
        })
        .collect()
}

/// The round almost every dispatcher runs almost every time at scale:
/// push on an *empty* cache with a large table (5000 of Π = 8192
/// patterns known, as after a subscription flood). It draws a pattern,
/// finds nothing cached for it and emits nothing — so what it costs is
/// the draw. `gossip_round/push` above cannot see that cost: its table
/// knows four patterns.
fn gossip_round_idle() -> BenchResult {
    const ROUNDS: u64 = 1_000;
    const UNIVERSE: usize = 8_192;
    const KNOWN: usize = 5_000;
    let mut node = Dispatcher::new(
        NodeId::new(5),
        DispatcherConfig {
            pattern_universe: UNIVERSE,
            ..DispatcherConfig::default()
        },
    );
    for i in 0..KNOWN {
        let pattern = PatternId::new((i * UNIVERSE / KNOWN) as u16);
        node.on_subscribe(pattern, NodeId::new(1 + (i % 4) as u32), &[]);
    }
    assert_eq!(node.table().len(), KNOWN);
    let neighbors: Vec<NodeId> = (1..=4).map(NodeId::new).collect();
    let mut strategy = Algorithm::push().build(GossipConfig::default());
    let mut emitted = 0usize;
    let result = bench("gossip_round_idle/push/pi8192", 2, 15, ROUNDS, || {
        let mut rng = Rng::from_seed(7);
        for _ in 0..ROUNDS {
            emitted += strategy.on_round(&node, &neighbors, &mut rng).len();
        }
    });
    assert_eq!(emitted, 0, "an empty cache has nothing to announce");
    result
}

/// Cache sizes of the digest-cost sweep: 10²–10⁵ cached events, the
/// axis the summary-reconciliation evaluation scales along (the
/// paper's β = 1500 sits near the low end).
const DIGEST_SWEEP: [usize; 4] = [100, 1_000, 10_000, 100_000];

/// A dispatcher whose summary-indexed cache holds exactly `c` events,
/// spread evenly over four locally subscribed patterns with in-order
/// per-pattern sequence numbers (so filling it detects no losses).
fn digest_node(c: usize) -> Dispatcher {
    let mut node = Dispatcher::new(
        NodeId::new(5),
        DispatcherConfig {
            cache_capacity: c,
            summary_index: true,
            ..DispatcherConfig::default()
        },
    );
    for p in 1..=4u16 {
        node.subscribe_local(PatternId::new(p), &[]);
    }
    for seq in 0..c as u64 {
        let pattern = PatternId::new(1 + (seq % 4) as u16);
        let event = Event::new(EventId::new(NodeId::new(0), seq), vec![(pattern, seq / 4)]);
        node.on_event(event, Some(NodeId::new(1)));
    }
    node
}

/// Digest construction cost versus cache size: the before/after curve
/// of summary reconciliation. The linear digests re-announce cached
/// ids (push) or outstanding losses (pull) entry by entry, so their
/// per-round build cost — like their wire size — grows O(C); the
/// summary digest emits one root aggregate from the incremental
/// hash-range index, so it stays flat. `summary_index_maintain` prices
/// what that index costs the cache on every insert/evict to make the
/// flat build possible. The `summary_*` entries are demoted to
/// advisory in `bench_compare` (see `scripts/tier1.sh`): sub-µs
/// map-churn loops are too noisy on shared hosts to gate.
fn digest_scaling() -> Vec<BenchResult> {
    const PATTERNS: u64 = 4;
    let mut out = Vec::new();
    for c in DIGEST_SWEEP {
        let node = digest_node(c);

        // Linear push: every matching cached id, untruncated (positive
        // digests never shrink — the paper charges each gossip message
        // one event-size regardless).
        let mut sink = 0usize;
        let result = bench(
            &format!("digest_build/linear_push/c{c}"),
            2,
            15,
            PATTERNS,
            || {
                for p in 1..=4u16 {
                    sink += node.cache().ids_matching(PatternId::new(p)).len();
                }
            },
        );
        assert!(sink >= c, "push digests covered the cache");
        out.push(result);

        // Linear pull: a `Lost` buffer scaled with the cache (the
        // recovery window the buffer must remember grows with β), with
        // expiry disabled so repeated builds see a steady buffer.
        let mut lost = LostBuffer::with_capacity(u32::MAX, c);
        for i in 0..c as u64 {
            lost.add(LossRecord {
                source: NodeId::new(0),
                pattern: PatternId::new(1 + (i % PATTERNS) as u16),
                seq: 1_000_000 + i,
            });
        }
        let mut sink = 0usize;
        let result = bench(
            &format!("digest_build/linear_pull/c{c}"),
            2,
            15,
            PATTERNS,
            || {
                for p in 1..=4u16 {
                    sink += lost.for_pattern(PatternId::new(p), usize::MAX).len();
                }
            },
        );
        assert!(sink >= c, "pull digests covered the loss buffer");
        out.push(result);

        // Summary digest: one root aggregate per round, read straight
        // off the maintained index — O(1) in C.
        let mut summary = SummaryState::new(SummaryMode::Push, &GossipConfig::default());
        let mut sink = 0usize;
        let result = bench(
            &format!("summary_digest_build/c{c}"),
            2,
            15,
            PATTERNS,
            || {
                for p in 1..=4u16 {
                    if let Some(GossipMessage::SummaryDigest { ranges, .. }) =
                        summary.digest(&node, PatternId::new(p), 128)
                    {
                        sink += ranges.len();
                    }
                }
            },
        );
        assert!(sink > 0, "summary digests produced root aggregates");
        out.push(result);

        // Index maintenance at resident size C: one add + remove pair
        // per churned id (each is LEVEL_COUNT map updates; XOR makes
        // removal restore the aggregates exactly, so the loop is
        // state-preserving).
        const CHURN: u64 = 1_000;
        let mut index = SummaryIndex::new();
        let pattern = PatternId::new(1);
        for i in 0..c as u64 {
            index.add(pattern, EventId::new(NodeId::new(0), i));
        }
        let before = index.root(pattern);
        let result = bench(
            &format!("summary_index_maintain/c{c}"),
            2,
            15,
            2 * CHURN,
            || {
                for k in 0..CHURN {
                    let id = EventId::new(NodeId::new(1), k);
                    index.add(pattern, id);
                    index.remove(pattern, id);
                }
            },
        );
        assert_eq!(
            (before.count, before.hash),
            (index.root(pattern).count, index.root(pattern).hash),
            "add/remove churn restored the root aggregate"
        );
        out.push(result);
    }
    out
}

/// Broker-level matching under the client layer: `N` client
/// subscriptions over a Π = 4096 universe collapse into at most Π
/// aggregate filters, so the per-event routing decision — a
/// [`SubscriptionTable`] match against the aggregate plus neighbor
/// state — must stay flat as `N` grows 10⁴ → 10⁶ (the sublinearity the
/// client layer exists for). Three entries per size land in the gossip
/// JSON: the matching ns/event, the one-shot aggregate-filter count
/// (unit: filters, not ns), and the local fan-out ns/event (which
/// legitimately grows with deliveries, recorded for contrast). The
/// one-shot counts are deterministic; the timings ride the advisory
/// compare like every other gossip entry.
fn table_matching_aggregated() -> Vec<BenchResult> {
    const UNIVERSE: u64 = 4096;
    const PATTERNS_PER_CLIENT: u64 = 4;
    const EVENTS: u64 = 1_000;
    let mut out = Vec::new();
    let mut rng = Rng::from_seed(6);
    let events: Vec<Event> = (0..EVENTS)
        .map(|i| {
            let mut patterns: Vec<u16> =
                (0..3).map(|_| rng.random_below(UNIVERSE) as u16).collect();
            patterns.sort_unstable();
            patterns.dedup();
            Event::new(
                EventId::new(NodeId::new(0), i),
                patterns
                    .into_iter()
                    .map(|p| (PatternId::new(p), i))
                    .collect(),
            )
        })
        .collect();
    for (subs, label) in [
        (10_000u64, "clients1e4"),
        (100_000, "clients1e5"),
        (1_000_000, "clients1e6"),
    ] {
        let clients = subs / PATTERNS_PER_CLIENT;
        let mut pairs: Vec<(PatternId, ClientId)> = Vec::with_capacity(subs as usize);
        for c in 0..clients {
            for _ in 0..PATTERNS_PER_CLIENT {
                pairs.push((
                    PatternId::new(rng.random_below(UNIVERSE) as u16),
                    ClientId::new(c as u32),
                ));
            }
        }
        // Subscribing in ascending (pattern, client) order keeps every
        // insert an append, so building 10⁶ pairs stays linear.
        pairs.sort_unstable();
        pairs.dedup();
        let mut registry = ClientRegistry::new();
        for &(p, c) in &pairs {
            registry.subscribe(c, p);
        }
        out.push(measured(
            &format!("table_matching_aggregated/{label}/aggregate_filters"),
            registry.aggregate_len() as f64,
        ));

        // The routing layer sees only the aggregate: one Local bit per
        // aggregate filter, plus the usual neighbor state.
        let mut table = SubscriptionTable::new();
        for p in registry.aggregate_patterns() {
            table.insert(p, Interface::Local);
        }
        for p in (0..UNIVERSE as u16).step_by(8) {
            table.insert(
                PatternId::new(p),
                Interface::Neighbor(NodeId::new(u32::from(p) % 10)),
            );
        }
        let mut scratch = Vec::new();
        let mut total = 0usize;
        let result = bench(
            &format!("table_matching_aggregated/{label}"),
            2,
            15,
            EVENTS,
            || {
                for event in &events {
                    table.matching_neighbors_into(event, Some(NodeId::new(1)), &mut scratch);
                    total += scratch.len() + usize::from(table.matches_locally(event));
                }
            },
        );
        assert!(total > 0, "{label}: matching produced no routing decisions");
        out.push(result);

        let mut fanout = Vec::new();
        let mut delivered = 0usize;
        let fanout_result = bench(
            &format!("table_matching_aggregated/{label}/client_fanout"),
            2,
            15,
            EVENTS,
            || {
                for event in &events {
                    registry.matching_clients_into(event, &mut fanout);
                    delivered += fanout.len();
                }
            },
        );
        assert!(delivered > 0, "{label}: fan-out matched no clients");
        out.push(fanout_result);
    }
    out
}

/// One miniature end-to-end run at the Figure 2 defaults (quick
/// variant): the number every other figure's wall-clock scales with.
fn scenario_mini() -> BenchResult {
    let config = mini(Algorithm::combined_pull());
    let mut delivered = 0.0;
    let result = bench("scenario_mini_fig2", 1, 5, 1, || {
        delivered = run_scenario(&config).delivery_rate;
    });
    assert!(delivered > 0.0);
    result
}

/// Construction cost of each overlay builder at simulator scale: the
/// setup a 10⁵-node run pays before the first event
/// fires. One full build per iteration; a fresh seed each time so no
/// run benefits from a warm layout.
fn topology_build() -> Vec<BenchResult> {
    let mut out = Vec::new();
    for (kind, max_degree) in [
        (OverlayKind::Tree, 4usize),
        (OverlayKind::BarabasiAlbert, 6),
        (OverlayKind::WattsStrogatz, 6),
    ] {
        for (n, warmup, samples) in [(10_000usize, 2, 10), (100_000, 1, 3)] {
            let mut seed = 0u64;
            out.push(bench(
                &format!("topology_build_{}/n{n}", kind.name()),
                warmup,
                samples,
                1,
                || {
                    seed += 1;
                    let mut rng = RngFactory::new(seed).stream("topology");
                    let topo = Topology::build(kind, n, max_degree, &mut rng);
                    assert_eq!(topo.len(), n, "builder produced the full graph");
                },
            ));
        }
    }
    out
}

/// Installing the flooded routing state on 4000 dispatchers at
/// Π = 8192 (about 2 × 10⁷ table entries and as many forwarding-memory
/// marks): what a population of that shape pays in set-up after its
/// tree is built. One [`rebuild_subscription_routes`] per iteration —
/// reset every dispatcher's routing state, then the closed-form fill —
/// on the same population, so no clone is timed.
fn subscription_flood() -> BenchResult {
    let mut population = build_population(&ScenarioConfig {
        nodes: 4_000,
        pattern_universe: 8_192,
        ..ScenarioConfig::default()
    });
    let mut messages = 0u64;
    let result = bench("subscription_flood/n4000_pi8192", 1, 5, 1, || {
        messages = rebuild_subscription_routes(&mut population.nodes, population.view.tree());
    });
    assert_eq!(
        messages, population.setup_subscription_msgs,
        "rebuilding an unchanged tree repeats the set-up flood"
    );
    result
}

/// The wire codec's one-payload budget, matching the scenario default.
const PAYLOAD_BITS: u64 = 1024;

/// A routed multi-pattern event envelope — the dominant message class
/// on the tree links.
fn codec_event_envelope() -> Envelope {
    let mut event = Event::new(
        EventId::new(NodeId::new(2), 9),
        vec![(PatternId::new(3), 41), (PatternId::new(8), 17)],
    );
    event.record_hop(NodeId::new(1));
    event.record_hop(NodeId::new(4));
    Envelope::PubSub(PubSubMessage::Event(event))
}

/// Encode-only cost of the dominant message class (the per-send cost
/// every tree hop pays in the socket runtime).
fn codec_encode_event() -> BenchResult {
    const N: u64 = 10_000;
    let env = codec_event_envelope();
    let mut sink = 0usize;
    let result = bench("codec_encode_event", 3, 25, N, || {
        for _ in 0..N {
            sink += codec::encode(&env, PAYLOAD_BITS).expect("encodes").len();
        }
    });
    assert!(sink > 0);
    result
}

/// Full encode → decode round trip of an event envelope: the combined
/// sender + receiver codec cost per tree frame.
fn codec_roundtrip() -> BenchResult {
    const N: u64 = 10_000;
    let env = codec_event_envelope();
    let mut sink = 0usize;
    let result = bench("codec_roundtrip", 3, 25, N, || {
        for _ in 0..N {
            let bytes = codec::encode(&env, PAYLOAD_BITS).expect("encodes");
            let back = codec::decode(&bytes, PAYLOAD_BITS).expect("decodes");
            sink += matches!(back, Envelope::PubSub(PubSubMessage::Event(_))) as usize;
        }
    });
    assert!(sink as u64 >= N, "every roundtrip inverted");
    result
}

/// Round trip of a full-budget push digest — the largest gossip body
/// the codec ever frames (a digest is trimmed to one event payload).
fn codec_roundtrip_digest() -> BenchResult {
    const N: u64 = 2_000;
    let oversized = Envelope::Gossip(GossipMessage::PushDigest {
        gossiper: NodeId::new(0),
        pattern: PatternId::new(3),
        ids: Arc::new(
            (0..200u64)
                .map(|i| EventId::new(NodeId::new((i % 10) as u32), i))
                .collect(),
        ),
    });
    let (env, dropped) = codec::fit(oversized, PAYLOAD_BITS);
    assert!(dropped > 0, "the digest saturates the payload budget");
    let mut sink = 0usize;
    let result = bench("codec_roundtrip_digest", 3, 25, N, || {
        for _ in 0..N {
            let bytes = codec::encode(&env, PAYLOAD_BITS).expect("encodes");
            let back = codec::decode(&bytes, PAYLOAD_BITS).expect("decodes");
            sink += matches!(back, Envelope::Gossip(GossipMessage::PushDigest { .. })) as usize;
        }
    });
    assert!(sink as u64 >= N, "every roundtrip inverted");
    result
}

/// Frame reassembly over a fragmented byte stream: the receive-side
/// cost of the TCP tree links, fed in read-sized chunks.
fn frame_reassembly() -> BenchResult {
    const FRAMES: u64 = 1_000;
    let body = codec::encode(&codec_event_envelope(), PAYLOAD_BITS).expect("encodes");
    let mut wire = Vec::new();
    for _ in 0..FRAMES {
        wire.extend_from_slice(&frame(&body));
    }
    let mut sink = 0u64;
    let result = bench("frame_reassembly", 3, 25, FRAMES, || {
        let mut reader = FrameReader::new();
        // Typical read granularity: a few frames per syscall.
        for chunk in wire.chunks(512) {
            reader.extend(chunk);
            while let Some(body) = reader.next_frame().expect("clean stream") {
                sink += body.len() as u64;
            }
        }
        assert_eq!(reader.pending(), 0);
    });
    assert!(sink > 0);
    result
}
