//! Micro-benchmarks of the hot paths: event matching, routing-table
//! lookups, cache operations, loss detection, and the event queue.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use eps_overlay::{NodeId, Topology};
use eps_pubsub::{
    Dispatcher, DispatcherConfig, Event, EventCache, EventId, Interface, LossDetector, PatternId,
    PatternSpace, SubscriptionTable,
};
use eps_sim::{KeyedEngine, RngFactory, SimTime};

fn event(seq: u64, patterns: &[u16]) -> Event {
    Event::new(
        EventId::new(NodeId::new(0), seq),
        patterns.iter().map(|&p| (PatternId::new(p), seq)).collect(),
    )
}

fn bench_matching(c: &mut Criterion) {
    let mut table = SubscriptionTable::new();
    let mut rng = RngFactory::new(1).stream("bench");
    let space = PatternSpace::paper_default();
    for n in 0..4u32 {
        for p in space.random_subscriptions(10, &mut rng) {
            table.insert(p, Interface::Neighbor(NodeId::new(n + 1)));
        }
    }
    let e = event(0, &[3, 25, 60]);
    c.bench_function("table/matching_neighbors", |b| {
        b.iter(|| table.matching_neighbors(black_box(&e), Some(NodeId::new(1))))
    });
    c.bench_function("table/matches_locally", |b| {
        b.iter(|| table.matches_locally(black_box(&e)))
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/insert_with_eviction", |b| {
        b.iter_batched(
            || EventCache::new(1500),
            |mut cache| {
                for seq in 0..2000u64 {
                    cache.insert(event(seq, &[(seq % 70) as u16]));
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
    let mut cache = EventCache::new(1500);
    for seq in 0..1500u64 {
        // Patterns must be sorted and distinct: seq % 69 < 69 always.
        cache.insert(event(seq, &[(seq % 69) as u16, 69]));
    }
    c.bench_function("cache/ids_matching", |b| {
        b.iter(|| cache.ids_matching(black_box(PatternId::new(69))))
    });
    c.bench_function("cache/get_by_pattern_seq", |b| {
        b.iter(|| cache.get_by_pattern_seq(NodeId::new(0), PatternId::new(69), black_box(700)))
    });
}

fn bench_detector(c: &mut Criterion) {
    c.bench_function("detector/observe_in_order", |b| {
        b.iter_batched(
            LossDetector::new,
            |mut det| {
                for seq in 0..1000u64 {
                    det.observe(&event(seq, &[1, 2, 3]), |_| true);
                }
                det
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine/schedule_pop_10k", |b| {
        b.iter_batched(
            KeyedEngine::<u64, u64>::new,
            |mut engine| {
                for i in 0..10_000u64 {
                    engine.schedule_at(SimTime::from_nanos(i * 7919 % 1_000_000), i, i);
                }
                while engine.pop().is_some() {}
                engine
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_topology(c: &mut Criterion) {
    c.bench_function("topology/random_tree_100", |b| {
        b.iter_batched(
            || RngFactory::new(7).stream("topology"),
            |mut rng| Topology::random_tree(100, 4, &mut rng),
            BatchSize::SmallInput,
        )
    });
    let topo = Topology::random_tree(100, 4, &mut RngFactory::new(7).stream("topology"));
    c.bench_function("topology/path_lookup", |b| {
        b.iter(|| topo.path(black_box(NodeId::new(3)), black_box(NodeId::new(97))))
    });
}

fn bench_dispatcher(c: &mut Criterion) {
    let mut d = Dispatcher::new(NodeId::new(1), DispatcherConfig::default());
    d.subscribe_local(PatternId::new(1), &[]);
    d.on_subscribe(PatternId::new(2), NodeId::new(2), &[]);
    c.bench_function("dispatcher/on_event", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            d.on_event(event(seq, &[1, 2, 3]), Some(NodeId::new(0)))
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_matching,
        bench_cache,
        bench_detector,
        bench_engine,
        bench_topology,
        bench_dispatcher
);
criterion_main!(micro);
