//! `microbench` — wall-clock benchmarks of the simulator's hot paths,
//! with no external dependencies.
//!
//! ```text
//! microbench [--out FILE] [--gossip-out FILE] [--net-out FILE]
//!     # each set is written only where its flag names a file, so no
//!     # run rewrites a committed baseline
//! ```
//!
//! Covers the event-queue kernel (schedule/pop), the
//! no-alloc subscription-table matching path, a recording hop's route
//! book hit,
//! the in-tree RNG, and one miniature end-to-end scenario at the
//! paper's Figure 2 defaults — plus one gossip-round benchmark per
//! recovery strategy (so a new table row is benchmarked
//! automatically). Results (median ns per iteration)
//! print to stderr and are written as JSON for tracking across
//! commits: the kernel set to `--out`, the per-strategy set to
//! `--gossip-out` and the codec and framing set to `--net-out`. A bare
//! run writes nothing.

use std::collections::VecDeque;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use eps_bench::mini;
use eps_bench::timing::{bench, to_json, BenchResult};
use eps_gossip::{
    codec, Algorithm, Envelope, GossipConfig, GossipMessage, LostBuffer, SummaryMode, SummaryState,
};
use eps_harness::{
    build_population, gossip_phase, run_scenario, NodeCtx, Outgoing, Population, ScenarioConfig,
    SimNode, Timer,
};
use eps_metrics::{DeliveryTracker, MessageCounters};
use eps_net::frame::{frame, FrameReader};
use eps_overlay::{NodeId, OverlayKind, Topology};
use eps_pubsub::{
    rebuild_subscription_routes, CacheIndexes, ClientId, ClientRegistry, Dispatcher,
    DispatcherConfig, DispatcherHost, Event, EventCache, EventId, EvictionPolicy, Interface,
    LossDetector, LossRecord, PatternId, PatternSpace, PubSubMessage, SubscriptionTable,
    SummaryIndex,
};
use eps_sim::hash::IdMap;
use eps_sim::{KeyedEngine, Rng, RngFactory, SimTime};

fn main() -> ExitCode {
    let mut out_path = None;
    let mut gossip_out_path = None;
    let mut net_out_path = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(path) => out_path = Some(path.clone()),
                None => {
                    eprintln!("error: --out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--gossip-out" => match iter.next() {
                Some(path) => gossip_out_path = Some(path.clone()),
                None => {
                    eprintln!("error: --gossip-out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--net-out" => match iter.next() {
                Some(path) => net_out_path = Some(path.clone()),
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
    ]);
    results.extend(cache_insert_evict());
    results.extend([seen_insert(), idmap_event_id_probe()]);
    results.extend(cache_get());
    results.push(cache_get_by_pattern_seq());
    results.extend([route_book_hit(), rng_throughput(), scenario_mini()]);
    results.extend(node_event_hop());
    results.extend(node_clock());
    results.extend(topology_build());
    results.extend(subscription_flood());
    // Last: its floods leave a heap no timed row should run on.
    results.extend(fig2_heap());
    let mut gossip_results = gossip_rounds();
    gossip_results.push(gossip_round_idle());
    gossip_results.extend(lost_clear_for_event());
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
        (out_path, &results),
        (gossip_out_path, &gossip_results),
        (net_out_path, &net_results),
    ] {
        let Some(path) = path else { continue };
        if let Err(e) = std::fs::write(&path, to_json(set)) {
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
/// with. Then the loss detector a Figure 2 dispatcher fills while it
/// runs ([`loss_detector_heap`]). Values are **bytes**, not nanoseconds
/// (the names carry the unit); the JSON shape is the common
/// `{name, median_ns}` one so `bench_compare` tracks them across
/// commits like any other entry.
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
    out.extend(loss_detector_heap());
    out
}

/// Resident-set growth per loss detector in the state a Figure 2
/// dispatcher reaches: 100 sources, each seen on the 2 of Π = 70
/// patterns the dispatcher subscribes to: 200 streams in one map. Read,
/// like the population entries, over many detectors kept alive at once
/// (so it is not lost to page granularity), from the same `VmRSS`
/// counter.
fn loss_detector_heap() -> Option<BenchResult> {
    const DETECTORS: u64 = 500;
    const SOURCES: u32 = 100;
    let before = resident_bytes()?;
    let detectors: Vec<LossDetector> = (0..DETECTORS)
        .map(|d| {
            let mut det = LossDetector::new();
            let tracked = [(d % 35) as u16, 35 + (d % 35) as u16].map(PatternId::new);
            for source in 0..SOURCES {
                let event = Event::new(
                    EventId::new(NodeId::new(source), 0),
                    tracked.map(|p| (p, 0)).to_vec(),
                );
                det.observe(&event, |_| true);
            }
            det
        })
        .collect();
    let after = resident_bytes()?;
    let streams: usize = detectors.iter().map(LossDetector::stream_count).sum();
    assert_eq!(streams as u64, DETECTORS * u64::from(SOURCES) * 2);
    Some(measured(
        "loss_detector_heap_bytes/fig2",
        (after - before).max(0.0) / DETECTORS as f64,
    ))
}

/// Heap bytes per dispatcher of four lines of the Figure 2 heap, read
/// with the structures' own `heap_bytes` methods (capacities, not
/// lengths) on a Figure 2 population driven through the 6 s cell's
/// volume of lossless floods, 30 000 publishes, after which every
/// cache index has the size a full cache needs: combined pull's
/// (source, pattern, seq) index and recorded routes (its route book
/// and each distinct route its book and cache hold), push's id index
/// and the seen set (push's; a lossless flood marks the same ids under
/// any strategy). A table's size follows from its entry count alone,
/// and the routes from the tree and the cached events, so the rows are
/// deterministic. Values are bytes.
fn fig2_heap() -> Vec<BenchResult> {
    const PUBLISHES: usize = 30_000;
    let flooded = |algorithm| {
        let config = ScenarioConfig {
            algorithm,
            ..ScenarioConfig::default()
        };
        let mut hops = HopDriver::new(build_population(&config), config.publish_rate);
        hops.flood(PUBLISHES);
        hops.pop
    };
    let mean = |pop: &Population, bytes: fn(&Dispatcher) -> usize| {
        let total: usize = pop.nodes.iter().map(|node| bytes(node.dispatcher())).sum();
        total as f64 / pop.nodes.len() as f64
    };
    let (push, combined) = (
        flooded(Algorithm::push()),
        flooded(Algorithm::combined_pull()),
    );
    vec![
        measured(
            "heap/fig2_combined/seq_index",
            mean(&combined, |d| d.cache().heap_bytes().pattern_seqs),
        ),
        measured(
            "heap/fig2_combined/routes",
            mean(&combined, Dispatcher::route_heap_bytes),
        ),
        measured(
            "heap/fig2_push/id_index",
            mean(&push, |d| d.cache().heap_bytes().ids),
        ),
        measured(
            "heap/fig2/seen_set",
            mean(&push, Dispatcher::seen_heap_bytes),
        ),
    ]
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
        for n in built.neighbors_for(p, None) {
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
        let mut det = LossDetector::new();
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
/// subscriber of two patterns). One row per index set a strategy
/// builds: the default set (push-pull's: the id index and both
/// linear-digest indexes), push's `ids` (the id index and the
/// per-pattern id lists) and the pull routes' `seqs` alone. A cache
/// admits an id at most once, so each of the 28 runs inserts its own
/// 10 000 events.
fn cache_insert_evict() -> Vec<BenchResult> {
    const N: u64 = 10_000;
    const WARMUP: usize = 3;
    const SAMPLES: usize = 25;
    // Each event matches one of patterns {0, 1} and one of {2, 3}.
    let events: Vec<Event> = (0..N * (WARMUP + SAMPLES) as u64)
        .map(|i| {
            let patterns = [(i % 2) as u16, 2 + (i / 2 % 2) as u16];
            let seqs = patterns.map(|p| (PatternId::new(p), i));
            Event::new(EventId::new(NodeId::new((i % 10) as u32), i), seqs.to_vec())
        })
        .collect();
    let ids = CacheIndexes {
        ids: true,
        pattern_ids: true,
        ..CacheIndexes::NONE
    };
    let seqs = CacheIndexes {
        pattern_seqs: true,
        ..CacheIndexes::NONE
    };
    [
        ("", CacheIndexes::default()),
        ("/ids", ids),
        ("/seqs", seqs),
    ]
    .into_iter()
    .map(|(suffix, indexes)| {
        let mut cache = EventCache::with_indexes(1_500, EvictionPolicy::Fifo, None, indexes);
        let mut runs = events.chunks(N as usize);
        let result = bench(
            &format!("cache_insert_evict/beta1500{suffix}"),
            WARMUP,
            SAMPLES,
            N,
            || {
                for event in runs.next().expect("one batch of events a run") {
                    cache.insert(event.clone());
                }
            },
        );
        assert_eq!(cache.len(), 1_500);
        if indexes.pattern_ids {
            assert_eq!(cache.ids_matching(PatternId::new(0)).len(), 750);
        }
        result
    })
    .collect()
}

/// What every event arriving at a pull dispatcher costs its `Lost`
/// buffer: `clear_for_event` for events none of whose records is
/// outstanding — the common case — over the Fig. 2 content space (100
/// sources, 70 patterns).
///
/// - `fig2`: the state a simulated Fig. 2 dispatcher is in: 200
///   records over 2 of the 70 patterns (only a locally subscribed
///   pattern can have a loss), events carrying 1 to 3 patterns, so
///   most patterns are rejected by the buffer's pattern counts before
///   any search.
/// - `l1500`: a full buffer of 1 500 entries over all 70 patterns:
///   every pattern an event carries has outstanding entries, so the
///   pattern counts cannot reject it and each costs a probe of the
///   entries.
fn lost_clear_for_event() -> Vec<BenchResult> {
    const N: u64 = 10_000;
    let mut fig2 = LostBuffer::with_capacity(u32::MAX, 1_500);
    for i in 0..200u64 {
        fig2.add(LossRecord {
            source: NodeId::new((i % 100) as u32),
            pattern: PatternId::new([5, 40][(i / 100) as usize]),
            seq: i,
        });
    }
    let mut l1500 = LostBuffer::with_capacity(u32::MAX, 1_500);
    for i in 0..1_500u64 {
        l1500.add(LossRecord {
            source: NodeId::new((i % 100) as u32),
            pattern: PatternId::new((i % 70) as u16),
            seq: i,
        });
    }
    // Seqs past every outstanding record's. Event `i` carries three
    // patterns spread over the universe, or `1 + i % 3` of them when
    // `varied`.
    let events = |stride: u64, varied: bool| -> Vec<Event> {
        (0..N)
            .map(|i| {
                let mut patterns = [0, 23, 46].map(|k| ((i * stride + k) % 70) as u16);
                patterns.sort_unstable();
                let seqs = patterns.map(|p| (PatternId::new(p), 2_000 + i));
                let carried = if varied { 1 + (i % 3) as usize } else { 3 };
                Event::new(
                    EventId::new(NodeId::new((i % 100) as u32), i),
                    seqs[..carried].to_vec(),
                )
            })
            .collect()
    };
    let (varied, full) = (events(7, true), events(1, false));
    let results = vec![
        bench("lost_clear_for_event/fig2", 3, 25, N, || {
            for event in &varied {
                fig2.clear_for_event(event);
            }
        }),
        bench("lost_clear_for_event/l1500", 3, 25, N, || {
            for event in &full {
                l1500.clear_for_event(event);
            }
        }),
    ];
    assert_eq!(fig2.len(), 200, "no record was outstanding");
    assert_eq!(fig2.patterns().len(), 2);
    assert_eq!(l1500.len(), 1_500, "no record was outstanding");
    results
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
    let mut next_hops = Vec::new();
    let result = bench("seen_insert", 3, 25, N, || {
        let mut node = Dispatcher::new(NodeId::new(100), DispatcherConfig::default());
        for event in &events {
            let (_, receipt) = node.on_event(event.clone(), None, &mut next_hops);
            fresh += usize::from(!receipt.duplicate);
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

/// `EventCache::get` on a β = 1500 cache after four cache-fulls of
/// churn, for a resident id (`hit`) and for one never admitted
/// (`miss`): the id-index probe beside `idmap_event_id_probe`'s map.
fn cache_get() -> Vec<BenchResult> {
    const N: u64 = 10_000;
    let id = |i: u64| EventId::new(NodeId::new((i % 100) as u32), i / 100);
    let mut cache = EventCache::new(1_500);
    for i in 0..6_000 {
        cache.insert(Event::new(id(i), vec![(PatternId::new(1), i)]));
    }
    // Live: ids 4 500..6 000; `miss` asks for 6 000..7 500.
    [("hit", 4_500), ("miss", 6_000)]
        .into_iter()
        .map(|(kind, first)| {
            let mut found = 0u64;
            let result = bench(&format!("cache_get/beta1500/{kind}"), 3, 25, N, || {
                for i in 0..N {
                    found += u64::from(cache.get(id(first + i % 1_500)).is_some());
                }
            });
            // Each hit run finds all N ids; no miss run finds any.
            assert_eq!(found % N, 0, "{kind}");
            assert_eq!(found > 0, kind == "hit", "{kind}");
            result
        })
        .collect()
}

/// `EventCache::get_by_pattern_seq` on a β = 1500 pull cache (the seq
/// index alone) after four cache-fulls of Figure 2 content — 100
/// sources round-robin, 1–3 of Π = 70 patterns per event — for random
/// (source, pattern, seq) keys that no cached event has: the probe
/// `serve_from_cache` makes for each entry of a pull digest, which
/// misses for almost all of them. Unlike `cache_get/beta1500/miss`,
/// whose ids come in sequence, each key lands in a random run.
fn cache_get_by_pattern_seq() -> BenchResult {
    const N: u64 = 10_000;
    let space = PatternSpace::paper_default();
    let universe = usize::from(space.universe());
    let mut rng = Rng::from_seed(9);
    let seqs = CacheIndexes {
        pattern_seqs: true,
        ..CacheIndexes::NONE
    };
    let mut cache = EventCache::with_indexes(1_500, EvictionPolicy::Fifo, None, seqs);
    let mut content = Vec::new();
    let mut counters = vec![0u64; 100 * universe];
    for k in 0..6_000u64 {
        let source = (k % 100) as usize;
        space.random_content_into(&mut rng, &mut content);
        let pattern_seqs = content.iter().map(|&p| {
            let counter = &mut counters[source * universe + p.index()];
            *counter += 1;
            (p, *counter - 1)
        });
        let id = EventId::new(NodeId::new(source as u32), k / 100);
        cache.insert(Event::new(id, pattern_seqs.collect()));
    }
    // No (source, pattern) stream reached seq 100.
    let keys: Vec<(NodeId, PatternId, u64)> = (0..N)
        .map(|_| {
            let source = NodeId::new(rng.random_below(100) as u32);
            let pattern = PatternId::new(rng.random_below(universe as u64) as u16);
            (source, pattern, 100 + rng.random_below(1 << 20))
        })
        .collect();
    let mut found = 0u64;
    let result = bench("cache_get_by_pattern_seq/beta1500/miss", 3, 25, N, || {
        for &(source, pattern, seq) in &keys {
            found += u64::from(cache.get_by_pattern_seq(source, pattern, seq).is_some());
        }
    });
    assert_eq!(found, 0, "every key misses");
    result
}

/// A recording hop on a repeated source path: one
/// `Dispatcher::on_event` of a copy that arrives along the path its
/// source's route-book entry already spells, so it leaves with a clone
/// of the entry — the route book's hit, which every event of a source
/// after the first takes while the tree is unchanged. The copy repeats
/// an id the dispatcher has seen, so each call returns after the book
/// and the seen set, and no map grows between samples.
fn route_book_hit() -> BenchResult {
    const N: u64 = 10_000;
    let config = DispatcherConfig {
        record_routes: true,
        ..DispatcherConfig::default()
    };
    let mut node = Dispatcher::new(NodeId::new(5), config);
    let from = NodeId::new(4);
    let event = Event::from_wire(
        EventId::new(NodeId::new(0), 1),
        vec![(PatternId::new(3), 1), (PatternId::new(9), 2)],
        [0, 2, 4].map(NodeId::new).to_vec(),
    );
    let mut next_hops = Vec::new();
    node.on_event(event.clone(), Some(from), &mut next_hops);
    let mut sink = 0u64;
    let result = bench("record_hop_route_book_hit", 3, 25, N, || {
        for _ in 0..N {
            let (copy, receipt) = node.on_event(event.clone(), Some(from), &mut next_hops);
            debug_assert!(receipt.duplicate);
            sink = sink.wrapping_add(copy.route().len() as u64);
        }
    });
    assert_eq!(sink % 4, 0, "every copy leaves with four hops");
    result
}

/// A tree event hop on a warmed Figure 2 population: ns per
/// `SimNode::handle` of an event arriving down the dispatching tree —
/// the most common node event of `sim_fig2` — for push and for the
/// route-recording combined pull. Lossless floods are driven hop by
/// hop, 2000 publishes to warm caches and seen-sets first, then 200
/// per sample; only the `handle` calls are timed. Advisory in
/// `scripts/tier1.sh`: a whole hop includes map growth.
fn node_event_hop() -> Vec<BenchResult> {
    const WARM: usize = 2_000;
    const PER_SAMPLE: usize = 200;
    const SAMPLES: usize = 15;
    [
        ("push", Algorithm::push()),
        ("combined_pull", Algorithm::combined_pull()),
    ]
    .into_iter()
    .map(|(label, algorithm)| {
        let config = ScenarioConfig {
            algorithm,
            ..ScenarioConfig::default()
        };
        let mut hops = HopDriver::new(build_population(&config), config.publish_rate);
        hops.flood(WARM);
        let mut per_hop: Vec<f64> = Vec::with_capacity(SAMPLES);
        let mut handled = 0;
        for _ in 0..SAMPLES {
            let (count, ns) = hops.flood(PER_SAMPLE);
            handled += count;
            per_hop.push(ns as f64 / count as f64);
        }
        per_hop.sort_unstable_by(f64::total_cmp);
        BenchResult {
            name: format!("node_event_hop/{label}"),
            samples: SAMPLES,
            iters_per_sample: handled / SAMPLES as u64,
            median_ns: per_hop[SAMPLES / 2],
            min_ns: per_hop[0],
            mean_ns: per_hop.iter().sum::<f64>() / SAMPLES as f64,
        }
    })
    .collect()
}

/// The node clock at scale, on the `sim_scale` population (N = 4000,
/// Π = 8192, push, a 300 ms run): `node_clock_replan/push_sparse` is
/// one plan — a look-ahead from the next round to the end of the run —
/// at a parked node whose cache holds events of two patterns it knows,
/// so every step draws and finds nothing; `node_clock_catch_up/push`
/// is one catch-up over one interval at a parked node with an empty
/// cache: one replayed round, and the plan after it.
fn node_clock() -> Vec<BenchResult> {
    const ROUNDS: u64 = 1_000;
    let config = ScenarioConfig {
        nodes: 4_000,
        pattern_universe: 8_192,
        publish_rate: 2.0,
        algorithm: Algorithm::push(),
        duration: SimTime::from_millis(300),
        ..ScenarioConfig::default()
    };
    let factory = RngFactory::new(config.seed);
    let mut pop = build_population(&config);
    let (mut tracker, mut counters) = (DeliveryTracker::new(), MessageCounters::new(config.nodes));
    let mut gossip_rng = Rng::from_seed(1);
    let mut call =
        |pop: &mut Population, node: NodeId, now, f: &mut dyn FnMut(&mut SimNode, &mut NodeCtx)| {
            let mut ctx = NodeCtx {
                now,
                neighbors: pop.view.neighbors(node),
                graph_neighbors: pop.topology.neighbors(node),
                space: &pop.space,
                subscribers_of: &pop.subscribers_of,
                gossip_rng: &mut gossip_rng,
                tracker: &mut tracker,
                counters: &mut counters,
                trace: &mut None,
            };
            f(&mut pop.nodes[node.index()], &mut ctx);
        };

    // Two events, one of each local pattern, arrive at d1 before its
    // clock starts; every plan then runs the whole run out.
    let (sparse, source) = (NodeId::new(1), NodeId::new(0));
    let patterns = pop.nodes[sparse.index()].client_patterns(ClientId::new(0));
    assert_eq!(patterns.len(), 2, "d1 subscribes to two patterns");
    for &p in &patterns {
        let env = Envelope::PubSub(PubSubMessage::Event(Event::new(
            EventId::new(source, u64::from(p.value())),
            vec![(p, 0)],
        )));
        call(&mut pop, sparse, SimTime::ZERO, &mut |node, ctx| {
            node.handle(source, env.clone(), ctx);
        });
    }
    pop.nodes[sparse.index()].start_clock(&config, &factory, config.duration);
    call(&mut pop, sparse, SimTime::ZERO, &mut |node, ctx| {
        node.catch_up(ctx)
    });
    let phase = gossip_phase(&factory, sparse, config.gossip_interval);
    assert_ne!(
        pop.nodes[sparse.index()].next_timer(),
        Some((phase, Timer::Gossip)),
        "d1 is parked"
    );
    let replan = bench("node_clock_replan/push_sparse", 2, 15, ROUNDS, || {
        for _ in 0..ROUNDS {
            call(&mut pop, sparse, SimTime::ZERO, &mut |node, ctx| {
                node.catch_up(ctx)
            });
        }
    });

    // d2 has an empty cache and rounds until far past the benchmark:
    // each catch-up moves one interval on.
    let empty = NodeId::new(2);
    let interval = config.gossip_interval;
    pop.nodes[empty.index()].start_clock(&config, &factory, SimTime::from_secs(1_000_000));
    let mut now = gossip_phase(&factory, empty, interval);
    call(&mut pop, empty, now, &mut |node, ctx| node.catch_up(ctx));
    let before = pop.nodes[empty.index()].rounds_replayed();
    let catch_up = bench("node_clock_catch_up/push", 2, 15, ROUNDS, || {
        for _ in 0..ROUNDS {
            now += interval;
            call(&mut pop, empty, now, &mut |node, ctx| node.catch_up(ctx));
        }
    });
    assert_eq!(
        pop.nodes[empty.index()].rounds_replayed() - before,
        17 * ROUNDS,
        "one replayed round per catch-up"
    );
    vec![replan, catch_up]
}

/// Drives lossless floods through a population one `SimNode` call at a
/// time, lending each call the context a runner would.
struct HopDriver {
    pop: Population,
    publish_rate: f64,
    published: usize,
    tracker: DeliveryTracker,
    counters: MessageCounters,
    gossip_rng: Rng,
}

impl HopDriver {
    fn new(pop: Population, publish_rate: f64) -> Self {
        let counters = MessageCounters::new(pop.nodes.len());
        HopDriver {
            pop,
            publish_rate,
            published: 0,
            tracker: DeliveryTracker::new(),
            counters,
            gossip_rng: Rng::from_seed(1),
        }
    }

    fn call<R>(&mut self, node: NodeId, f: impl FnOnce(&mut SimNode, &mut NodeCtx) -> R) -> R {
        let pop = &mut self.pop;
        let mut ctx = NodeCtx {
            now: SimTime::ZERO,
            neighbors: pop.view.neighbors(node),
            graph_neighbors: pop.topology.neighbors(node),
            space: &pop.space,
            subscribers_of: &pop.subscribers_of,
            gossip_rng: &mut self.gossip_rng,
            tracker: &mut self.tracker,
            counters: &mut self.counters,
            trace: &mut None,
        };
        f(&mut pop.nodes[node.index()], &mut ctx)
    }

    /// Publishes `publishes` events round-robin over the population and
    /// floods each to quiescence. Returns the `handle` calls made and
    /// the nanoseconds they took.
    fn flood(&mut self, publishes: usize) -> (u64, u64) {
        let (mut handled, mut ns) = (0, 0);
        let mut queue: VecDeque<(NodeId, NodeId, Envelope)> = VecDeque::new();
        for _ in 0..publishes {
            let publisher = NodeId::new((self.published % self.pop.nodes.len()) as u32);
            self.published += 1;
            let rate = self.publish_rate;
            let (out, _) = self.call(publisher, |node, ctx| node.tick_publish(rate, ctx));
            queue.extend(out.into_iter().map(|o| (o.to, publisher, o.env)));
            while let Some((to, from, env)) = queue.pop_front() {
                let started = Instant::now();
                let out: Vec<Outgoing> = self.call(to, |node, ctx| node.handle(from, env, ctx));
                ns += started.elapsed().as_nanos() as u64;
                handled += 1;
                queue.extend(out.into_iter().map(|o| (o.to, to, o.env)));
            }
        }
        (handled, ns)
    }
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
            record_routes: true,
            // Every strategy of the table rounds on this node, so its
            // cache keeps every index any of them reads.
            cache_indexes: CacheIndexes::ALL,
            ..DispatcherConfig::default()
        },
    );
    for p in 1..=4u16 {
        node.subscribe_local(PatternId::new(p), &[]);
        node.on_subscribe(PatternId::new(p), NodeId::new(u32::from(p)), &[]);
    }
    for seq in 0..64u64 {
        let pattern = PatternId::new(1 + (seq % 4) as u16);
        let from = NodeId::new(1 + (seq % 4) as u32);
        let route = vec![NodeId::new(0), from];
        let event = Event::from_wire(
            EventId::new(NodeId::new(0), seq),
            vec![(pattern, seq)],
            route,
        );
        node.on_event(event, Some(from), &mut Vec::new());
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
    let mut node = Dispatcher::new(NodeId::new(5), DispatcherConfig::default());
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
            // Linear push digests list ids; summary digests read the
            // summary index.
            cache_indexes: CacheIndexes {
                ids: true,
                pattern_ids: true,
                summary: true,
                ..CacheIndexes::NONE
            },
            ..DispatcherConfig::default()
        },
    );
    for p in 1..=4u16 {
        node.subscribe_local(PatternId::new(p), &[]);
    }
    for seq in 0..c as u64 {
        let pattern = PatternId::new(1 + (seq % 4) as u16);
        let event = Event::new(EventId::new(NodeId::new(0), seq), vec![(pattern, seq / 4)]);
        node.on_event(event, Some(NodeId::new(1)), &mut Vec::new());
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
        let mut summary = SummaryState::new(SummaryMode::Push);
        let mut sink = 0usize;
        let result = bench(
            &format!("summary_digest_build/c{c}"),
            2,
            15,
            PATTERNS,
            || {
                for p in 1..=4u16 {
                    if let Some(GossipMessage::SummaryDigest { ranges, .. }) =
                        summary.digest(&node, PatternId::new(p))
                    {
                        sink += ranges.len();
                    }
                }
            },
        );
        assert!(sink > 0, "summary digests produced root aggregates");
        out.push(result);

        // Index maintenance at resident size C: one add + remove pair
        // per churned id (each is one ordered-map update and one root
        // update; XOR makes removal restore the root aggregate exactly,
        // so the loop is state-preserving).
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

/// Installing the flooded routing state at Π = 8192 on 4000
/// dispatchers (about 2 × 10⁷ routes) and on 10⁵ (the scale check's
/// population, about 8 × 10⁸, three samples): what a population of that
/// shape pays in set-up after its tree is built. One
/// [`rebuild_subscription_routes`] per iteration — reset every
/// dispatcher's routing state, then the closed-form fill — on the same
/// population, so no clone is timed.
fn subscription_flood() -> Vec<BenchResult> {
    [(4_000, "n4000_pi8192", 5), (100_000, "n100000", 3)]
        .into_iter()
        .map(|(nodes, name, samples)| {
            let mut population = build_population(&ScenarioConfig {
                nodes,
                pattern_universe: 8_192,
                ..ScenarioConfig::default()
            });
            let mut messages = 0u64;
            let result = bench(&format!("subscription_flood/{name}"), 1, samples, 1, || {
                messages =
                    rebuild_subscription_routes(&mut population.nodes, population.view.tree());
            });
            assert_eq!(
                messages, population.setup_subscription_msgs,
                "rebuilding an unchanged tree repeats the set-up flood"
            );
            result
        })
        .collect()
}

/// The wire codec's one-payload budget, matching the scenario default.
const PAYLOAD_BITS: u64 = 1024;

/// A routed multi-pattern event envelope — the dominant message class
/// on the tree links.
fn codec_event_envelope() -> Envelope {
    let event = Event::from_wire(
        EventId::new(NodeId::new(2), 9),
        vec![(PatternId::new(3), 41), (PatternId::new(8), 17)],
        [2, 1, 4].map(NodeId::new).to_vec(),
    );
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
