//! Model-based test of the [`SubscriptionTable`]: the same random op
//! sequence drives the table (a shared default route plus explicit
//! rows over a sorted slot registry) and a naive `BTreeMap` reference
//! model, and every observable — return values, membership queries,
//! the known-pattern index, and iteration order — must agree at every
//! step. Tables start either empty or as one dispatcher's table after
//! the bulk subscription fill, so both representations are driven
//! through every transition between them: routes added and withdrawn
//! on patterns inside and outside the shared set, the default
//! neighbor's included. This is the guard for the layout's core claim:
//! set-bit order over a sorted slot registry reproduces the
//! ascending-id order the rest of the stack (and the golden suite)
//! depends on.

use std::collections::{BTreeMap, BTreeSet};

use eps_overlay::{NodeId, Topology};
use eps_pubsub::{
    flood_subscriptions_direct, install_client_subscriptions, rebuild_subscription_routes,
    ClientId, Dispatcher, DispatcherConfig, Event, EventId, Interface, PatternId, PatternSpace,
    SubscriptionTable,
};
use eps_sim::check::forall;
use eps_sim::Rng;

/// One randomly generated table operation.
enum Op {
    InsertLocal(u16),
    InsertNeighbor(u16, u32),
    RemoveLocal(u16),
    RemoveNeighbor(u16, u32),
    Match(BTreeSet<u16>, Option<u32>),
}

/// The reference model: pattern -> (local flag, neighbor set), with
/// fully-empty entries removed so `len` is the known-pattern count.
#[derive(Default)]
struct Model {
    entries: BTreeMap<PatternId, (bool, BTreeSet<NodeId>)>,
}

impl Model {
    /// The model of `table`'s current content, read entry by entry.
    fn of(table: &SubscriptionTable) -> Self {
        let entries = table
            .all_patterns()
            .map(|p| {
                let neighbors = table.neighbors_for(p, None).collect();
                (p, (table.has_local(p), neighbors))
            })
            .collect();
        Model { entries }
    }

    fn insert(&mut self, pattern: PatternId, iface: Interface) -> bool {
        let entry = self.entries.entry(pattern).or_default();
        match iface {
            Interface::Local => !std::mem::replace(&mut entry.0, true),
            Interface::Neighbor(n) => entry.1.insert(n),
        }
    }

    fn remove(&mut self, pattern: PatternId, iface: Interface) -> bool {
        let Some(entry) = self.entries.get_mut(&pattern) else {
            return false;
        };
        let removed = match iface {
            Interface::Local => std::mem::replace(&mut entry.0, false),
            Interface::Neighbor(n) => entry.1.remove(&n),
        };
        if !entry.0 && entry.1.is_empty() {
            self.entries.remove(&pattern);
        }
        removed
    }

    fn neighbors_for(&self, pattern: PatternId, exclude: Option<NodeId>) -> Vec<NodeId> {
        self.entries
            .get(&pattern)
            .into_iter()
            .flat_map(|e| e.1.iter().copied())
            .filter(|&n| Some(n) != exclude)
            .collect()
    }

    fn matching_neighbors(&self, event: &Event, from: Option<NodeId>) -> Vec<NodeId> {
        let mut union: BTreeSet<NodeId> = BTreeSet::new();
        for p in event.patterns() {
            if let Some(e) = self.entries.get(&p) {
                union.extend(e.1.iter().copied());
            }
        }
        if let Some(f) = from {
            union.remove(&f);
        }
        union.into_iter().collect()
    }
}

/// Where random ops draw their patterns and neighbors from: uniformly
/// over `universe` patterns and `nodes` neighbors, and half the time —
/// when given — from a filled table's shared patterns and its tree
/// neighbors, so its default route and explicit rows are hit often.
struct Draws {
    universe: u16,
    nodes: u32,
    hot_patterns: Vec<u16>,
    hot_neighbors: Vec<u32>,
}

impl Draws {
    fn uniform(universe: u16, nodes: u32) -> Self {
        Draws {
            universe,
            nodes,
            hot_patterns: Vec::new(),
            hot_neighbors: Vec::new(),
        }
    }

    fn pattern(&self, rng: &mut Rng) -> u16 {
        match rng.choose(&self.hot_patterns) {
            Some(&p) if rng.random_bool(0.5) => p,
            _ => rng.random_range(0..self.universe),
        }
    }

    fn neighbor(&self, rng: &mut Rng) -> u32 {
        match rng.choose(&self.hot_neighbors) {
            Some(&n) if rng.random_bool(0.5) => n,
            _ => rng.random_range(0..self.nodes),
        }
    }

    /// One random op; neighbor inserts are three times as likely as
    /// any other kind.
    fn op(&self, rng: &mut Rng) -> Op {
        let p = self.pattern(rng);
        let n = self.neighbor(rng);
        match rng.random_below(7) {
            0 => Op::InsertLocal(p),
            1..=3 => Op::InsertNeighbor(p, n),
            4 => Op::RemoveLocal(p),
            5 => Op::RemoveNeighbor(p, n),
            _ => Op::Match(
                (0..rng.random_range(1..4u16))
                    .map(|_| self.pattern(rng))
                    .collect(),
                rng.random_bool(0.5).then_some(n),
            ),
        }
    }

    fn ops(&self, rng: &mut Rng, max_len: usize) -> Vec<Op> {
        (0..rng.random_range(1..max_len))
            .map(|_| self.op(rng))
            .collect()
    }
}

/// Checks every observable the rest of the stack reads, including
/// iteration order and the known-pattern index.
fn assert_same_state(table: &SubscriptionTable, model: &Model, universe: u16) {
    assert_eq!(table.len(), model.entries.len());
    assert_eq!(table.is_empty(), model.entries.is_empty());
    let all: Vec<PatternId> = table.all_patterns().collect();
    let model_all: Vec<PatternId> = model.entries.keys().copied().collect();
    assert_eq!(all, model_all, "all_patterns order diverged");
    for (k, &p) in model_all.iter().enumerate() {
        assert_eq!(table.nth_known(k), Some(p), "nth_known({k}) diverged");
    }
    assert_eq!(
        table.nth_known(model_all.len()),
        None,
        "nth_known past the end"
    );
    let locals: Vec<PatternId> = table.local_patterns().collect();
    let model_locals: Vec<PatternId> = model
        .entries
        .iter()
        .filter(|(_, e)| e.0)
        .map(|(&p, _)| p)
        .collect();
    assert_eq!(locals, model_locals, "local_patterns order diverged");
    for v in 0..universe {
        let p = PatternId::new(v);
        assert_eq!(table.knows(p), model.entries.contains_key(&p));
        assert_eq!(
            table.has_local(p),
            model.entries.get(&p).is_some_and(|e| e.0)
        );
        assert_eq!(
            table.neighbors_for(p, None).collect::<Vec<_>>(),
            model.neighbors_for(p, None),
            "neighbors_for({v}) order diverged"
        );
    }
}

/// Runs `ops` on `table` and the model in step. `shared` is the
/// table's shared default set; returns whether some step left the
/// table with delta rows of both kinds at once — a known pattern
/// outside `shared` (an explicit row there) and a pattern of `shared`
/// not known (an emptied row) — where the known-pattern select walks
/// both corrections.
fn run_ops(
    mut table: SubscriptionTable,
    ops: &[Op],
    universe: u16,
    shared: &BTreeSet<PatternId>,
) -> bool {
    let mut model = Model::of(&table);
    assert_same_state(&table, &model, universe);
    let mut seq = 0u64;
    let mut both_deltas = false;
    for op in ops {
        match op {
            Op::InsertLocal(p) => {
                let p = PatternId::new(*p);
                assert_eq!(
                    table.insert(p, Interface::Local),
                    model.insert(p, Interface::Local)
                );
            }
            Op::InsertNeighbor(p, n) => {
                let (p, iface) = (PatternId::new(*p), Interface::Neighbor(NodeId::new(*n)));
                assert_eq!(table.insert(p, iface), model.insert(p, iface));
            }
            Op::RemoveLocal(p) => {
                let p = PatternId::new(*p);
                assert_eq!(
                    table.remove(p, Interface::Local),
                    model.remove(p, Interface::Local)
                );
            }
            Op::RemoveNeighbor(p, n) => {
                let (p, iface) = (PatternId::new(*p), Interface::Neighbor(NodeId::new(*n)));
                assert_eq!(table.remove(p, iface), model.remove(p, iface));
            }
            Op::Match(patterns, from) => {
                seq += 1;
                let content: Vec<(PatternId, u64)> =
                    patterns.iter().map(|&v| (PatternId::new(v), seq)).collect();
                let event = Event::new(EventId::new(NodeId::new(0), seq), content);
                let from = from.map(NodeId::new);
                let mut out = Vec::new();
                let local = table.matching_neighbors_into(&event, from, &mut out);
                assert_eq!(
                    out,
                    model.matching_neighbors(&event, from),
                    "matching_neighbors order diverged"
                );
                assert_eq!(local, table.matches_locally(&event));
                assert_eq!(
                    local,
                    event
                        .patterns()
                        .any(|p| model.entries.get(&p).is_some_and(|e| e.0))
                );
            }
        }
        assert_same_state(&table, &model, universe);
        both_deltas |= model.entries.keys().any(|p| !shared.contains(p))
            && shared.iter().any(|p| !model.entries.contains_key(p));
    }
    both_deltas
}

/// Patterns of the filled cases: four bitset words, most of them
/// subscribed somewhere and the rest not.
const FILLED_UNIVERSE: u16 = 200;

/// A random tree of 6–19 dispatchers over [`FILLED_UNIVERSE`]
/// patterns, filled by [`flood_subscriptions_direct`]: one non-root
/// dispatcher's table, its shared default set (every subscribed
/// pattern), and the draws that favour those patterns and its tree
/// neighbors — its default neighbor among them.
fn filled_table(rng: &mut Rng) -> (SubscriptionTable, BTreeSet<PatternId>, Draws) {
    let n = rng.random_range(6..20usize);
    let topo = Topology::random_tree(n, 4, rng);
    let space = PatternSpace::new(FILLED_UNIVERSE, 3);
    let subs: Vec<Vec<PatternId>> = (0..n)
        .map(|_| space.random_subscriptions(rng.random_range(1..9usize), rng))
        .collect();
    let mut dispatchers: Vec<Dispatcher> = topo
        .nodes()
        .map(|id| Dispatcher::new(id, DispatcherConfig::default()))
        .collect();
    for (d, patterns) in dispatchers.iter_mut().zip(&subs) {
        for &p in patterns {
            d.subscribe_local(p, &[]);
        }
    }
    flood_subscriptions_direct(&mut dispatchers, &topo);
    let node = NodeId::new(rng.random_range(1..n as u32));
    let draws = Draws {
        hot_patterns: subs.iter().flatten().map(|p| p.value()).collect(),
        hot_neighbors: topo
            .neighbors(node)
            .iter()
            .map(|v| v.index() as u32)
            .collect(),
        ..Draws::uniform(FILLED_UNIVERSE, n as u32)
    };
    let table = dispatchers[node.index()].table().clone();
    (table, subs.into_iter().flatten().collect(), draws)
}

/// A table tracks the model exactly, op for op — whether it starts
/// empty or, in a third of the cases, as a dispatcher's filled table,
/// which many cases move off its shared default both ways at once.
#[test]
fn table_matches_btreemap_model() {
    let mut both_deltas = 0;
    forall("table_matches_btreemap_model", 384, |rng| {
        if rng.random_below(3) == 0 {
            let (table, shared, draws) = filled_table(rng);
            let ops = draws.ops(rng, 120);
            both_deltas += usize::from(run_ops(table, &ops, FILLED_UNIVERSE, &shared));
        } else {
            run_ops(
                SubscriptionTable::new(),
                &Draws::uniform(24, 40).ops(rng, 120),
                24,
                &BTreeSet::new(),
            );
        }
    });
    assert!(
        both_deltas > 64,
        "{both_deltas} cases reach both delta kinds"
    );
}

/// A pattern at either end of the u16 universe — word 0 or word 1023
/// of the pattern bitset, presence word 0 or 15 of a table's row map —
/// or, a third of the time, anywhere between.
fn edge_pattern(rng: &mut Rng) -> u16 {
    match rng.random_below(3) {
        0 => rng.random_below(64) as u16,
        1 => u16::MAX - rng.random_below(64) as u16,
        _ => rng.random_below(1 << 16) as u16,
    }
}

/// The dense reference: every u16 pattern's entry — local flag and
/// neighbor set — indexed by pattern, and the patterns ever written, to
/// walk in order.
struct Dense {
    entries: Vec<(bool, BTreeSet<NodeId>)>,
    written: BTreeSet<u16>,
}

impl Dense {
    fn new() -> Self {
        Dense {
            entries: vec![(false, BTreeSet::new()); 1 << 16],
            written: BTreeSet::new(),
        }
    }

    fn entry(&mut self, p: u16) -> &mut (bool, BTreeSet<NodeId>) {
        self.written.insert(p);
        &mut self.entries[usize::from(p)]
    }

    /// Drops every neighbor route, as a routing reset does.
    fn clear_routes(&mut self) {
        for &p in &self.written {
            self.entries[usize::from(p)].1.clear();
        }
    }

    /// Adds the routes a flood gives `node` on the tree `topo`: towards
    /// each neighbor, every pattern a dispatcher on its side subscribes
    /// to (`locals`, by node).
    fn flood(&mut self, topo: &Topology, locals: &[BTreeSet<u16>], node: NodeId) {
        for &p in &locals[node.index()] {
            self.entry(p).0 = true;
        }
        for &n in topo.neighbors(node) {
            let mut side = vec![(n, node)];
            while let Some((v, from)) = side.pop() {
                for &p in &locals[v.index()] {
                    self.entry(p).1.insert(n);
                }
                let next = topo.neighbors(v).iter().filter(|&&w| w != from);
                side.extend(next.map(|&w| (w, v)));
            }
        }
    }

    fn known(&self) -> Vec<PatternId> {
        let entries = &self.entries;
        (self.written.iter())
            .filter(|&&p| entries[usize::from(p)].0 || !entries[usize::from(p)].1.is_empty())
            .map(|&p| PatternId::new(p))
            .collect()
    }

    /// Checks every lookup the rest of the stack makes on `table`
    /// against the reference, on the known patterns and `probes`.
    fn check(&self, table: &SubscriptionTable, probes: &[u16], case: &str) {
        let known = self.known();
        assert_eq!(table.len(), known.len(), "{case}: len");
        for k in 0..=known.len() {
            let expected = known.get(k).copied();
            assert_eq!(table.nth_known(k), expected, "{case}: nth_known({k})");
        }
        let locals: Vec<PatternId> = (known.iter().copied())
            .filter(|p| self.entries[p.index()].0)
            .collect();
        assert_eq!(
            table.local_patterns().collect::<Vec<_>>(),
            locals,
            "{case}: local_patterns"
        );
        for p in known
            .iter()
            .map(|p| p.value())
            .chain(probes.iter().copied())
        {
            let (local, neighbors) = &self.entries[usize::from(p)];
            let pattern = PatternId::new(p);
            assert_eq!(table.has_local(pattern), *local, "{case}: has_local({p})");
            assert!(
                table
                    .neighbors_for(pattern, None)
                    .eq(neighbors.iter().copied()),
                "{case}: neighbors_for({p})"
            );
        }
    }
}

/// A filled table's row map holds only its non-empty pattern words:
/// one dispatcher of a random tree whose subscriptions sit at both ends
/// of the u16 universe tracks a dense reference through the fill,
/// random (un)subscriptions — local and from neighbors, tree neighbors
/// or not — and a rebuild, which resets the routes and fills again.
#[test]
fn a_filled_table_matches_a_dense_reference_at_both_ends_of_the_universe() {
    forall(
        "a_filled_table_matches_a_dense_reference_at_both_ends_of_the_universe",
        96,
        |rng| {
            let n = rng.random_range(6..20usize);
            let topo = Topology::random_tree(n, 4, rng);
            let mut locals: Vec<BTreeSet<u16>> = (0..n)
                .map(|_| {
                    (0..rng.random_range(1..9usize))
                        .map(|_| edge_pattern(rng))
                        .collect()
                })
                .collect();
            // One client per dispatcher, whose (un)subscriptions below
            // set and clear the table's local bits.
            let clients: Vec<Vec<Vec<PatternId>>> = (locals.iter())
                .map(|ps| vec![ps.iter().map(|&p| PatternId::new(p)).collect()])
                .collect();
            let mut dispatchers: Vec<Dispatcher> = topo
                .nodes()
                .map(|id| Dispatcher::new(id, DispatcherConfig::default()))
                .collect();
            install_client_subscriptions(&mut dispatchers, &clients);
            flood_subscriptions_direct(&mut dispatchers, &topo);
            let node = NodeId::new(rng.random_below(n as u64) as u32);
            let mut dense = Dense::new();
            dense.flood(&topo, &locals, node);
            let mut probes: Vec<u16> = (0..16).map(|_| edge_pattern(rng)).collect();
            probes.extend([0, 63, 64, 4095, 4096, u16::MAX]);
            dense.check(dispatchers[node.index()].table(), &probes, "fill");

            for step in 0..rng.random_range(1..40usize) {
                let p = match rng.choose(&probes) {
                    Some(&p) if rng.random_bool(0.5) => p,
                    _ => edge_pattern(rng),
                };
                let from = match rng.choose(topo.neighbors(node)) {
                    Some(&v) if rng.random_bool(0.7) => v,
                    _ => NodeId::new(rng.random_below(n as u64 + 3) as u32),
                };
                let d = &mut dispatchers[node.index()];
                match rng.random_below(4) {
                    0 => {
                        d.client_subscribe(ClientId::new(0), PatternId::new(p), &[]);
                        dense.entry(p).0 = true;
                        locals[node.index()].insert(p);
                    }
                    1 => {
                        d.client_unsubscribe(ClientId::new(0), PatternId::new(p), &[]);
                        dense.entry(p).0 = false;
                        locals[node.index()].remove(&p);
                    }
                    2 => {
                        d.on_subscribe(PatternId::new(p), from, &[]);
                        dense.entry(p).1.insert(from);
                    }
                    _ => {
                        d.on_unsubscribe(PatternId::new(p), from, &[]);
                        dense.entry(p).1.remove(&from);
                    }
                }
                probes.push(p);
                dense.check(d.table(), &probes, &format!("step {step}"));
            }

            rebuild_subscription_routes(&mut dispatchers, &topo);
            dense.clear_routes();
            dense.flood(&topo, &locals, node);
            dense.check(dispatchers[node.index()].table(), &probes, "rebuild");
        },
    );
}
