//! Model-based test of the dense [`SubscriptionTable`]: the same
//! random op sequence drives the slot-indexed/bitset implementation
//! and a naive `BTreeMap` reference model, and every observable —
//! return values, membership queries, and iteration order — must
//! agree at every step. This is the guard for the dense layout's core
//! claim: set-bit order over a sorted slot registry reproduces the
//! ascending-id order the rest of the stack (and the golden suite)
//! depends on.

use std::collections::{BTreeMap, BTreeSet};

use eps_overlay::NodeId;
use eps_pubsub::{Event, EventId, Interface, PatternId, SubscriptionTable};
use eps_sim::check::forall;
use eps_sim::Rng;

/// One randomly generated table operation.
enum Op {
    InsertLocal(u16),
    InsertNeighbor(u16, u32),
    RemoveLocal(u16),
    RemoveNeighbor(u16, u32),
    DropNeighbor(u32),
    Match(BTreeSet<u16>, Option<u32>),
}

/// The reference model: pattern -> (local flag, neighbor set), with
/// fully-empty entries removed so `len` is the known-pattern count.
#[derive(Default)]
struct Model {
    entries: BTreeMap<PatternId, (bool, BTreeSet<NodeId>)>,
}

impl Model {
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

    fn drop_neighbor(&mut self, neighbor: NodeId) -> Vec<PatternId> {
        let affected: Vec<PatternId> = self
            .entries
            .iter()
            .filter(|(_, e)| e.1.contains(&neighbor))
            .map(|(&p, _)| p)
            .collect();
        for p in &affected {
            self.remove(*p, Interface::Neighbor(neighbor));
        }
        affected
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

/// One random op over `universe` patterns and `nodes` neighbors;
/// neighbor inserts are three times as likely as any other kind.
fn random_op(rng: &mut Rng, universe: u16, nodes: u32) -> Op {
    let p = rng.random_range(0..universe);
    let n = rng.random_range(0..nodes);
    match rng.random_below(8) {
        0 => Op::InsertLocal(p),
        1..=3 => Op::InsertNeighbor(p, n),
        4 => Op::RemoveLocal(p),
        5 => Op::RemoveNeighbor(p, n),
        6 => Op::DropNeighbor(n),
        _ => Op::Match(
            (0..rng.random_range(1..4u16))
                .map(|_| rng.random_range(0..universe))
                .collect(),
            rng.random_bool(0.5).then_some(n),
        ),
    }
}

fn random_ops(rng: &mut Rng, max_len: usize, universe: u16, nodes: u32) -> Vec<Op> {
    (0..rng.random_range(1..max_len))
        .map(|_| random_op(rng, universe, nodes))
        .collect()
}

/// Checks every observable the rest of the stack reads, including
/// iteration order.
fn assert_same_state(table: &SubscriptionTable, model: &Model, universe: u16) {
    assert_eq!(table.len(), model.entries.len());
    assert_eq!(table.is_empty(), model.entries.is_empty());
    let all: Vec<PatternId> = table.all_patterns().collect();
    let model_all: Vec<PatternId> = model.entries.keys().copied().collect();
    assert_eq!(all, model_all, "all_patterns order diverged");
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
            table.neighbors_for(p, None),
            model.neighbors_for(p, None),
            "neighbors_for({v}) order diverged"
        );
    }
}

fn run_ops(mut table: SubscriptionTable, ops: &[Op], universe: u16) -> SubscriptionTable {
    let mut model = Model::default();
    let mut seq = 0u64;
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
            Op::DropNeighbor(n) => {
                let n = NodeId::new(*n);
                assert_eq!(
                    table.remove_neighbor(n),
                    model.drop_neighbor(n),
                    "remove_neighbor affected-pattern order diverged"
                );
            }
            Op::Match(patterns, from) => {
                seq += 1;
                let content: Vec<(PatternId, u64)> =
                    patterns.iter().map(|&v| (PatternId::new(v), seq)).collect();
                let event = Event::new(EventId::new(NodeId::new(0), seq), content);
                let from = from.map(NodeId::new);
                assert_eq!(
                    table.matching_neighbors(&event, from),
                    model.matching_neighbors(&event, from),
                    "matching_neighbors order diverged"
                );
            }
        }
        assert_same_state(&table, &model, universe);
    }
    table
}

/// A grow-on-demand table tracks the model exactly, op for op.
#[test]
fn dense_table_matches_btreemap_model() {
    forall("dense_table_matches_btreemap_model", 256, |rng| {
        run_ops(SubscriptionTable::new(), &random_ops(rng, 120, 24, 40), 24);
    });
}

/// A preallocated table behaves identically to a grow-on-demand one
/// over the same ops, and the two end up semantically equal — capacity
/// hints must never change observable behavior.
#[test]
fn preallocated_table_matches_model_and_grown_twin() {
    forall("preallocated_table_matches_grown_twin", 256, |rng| {
        let ops = random_ops(rng, 120, 24, 40);
        let grown = run_ops(SubscriptionTable::new(), &ops, 24);
        let sized = run_ops(SubscriptionTable::with_dims(24, 40), &ops, 24);
        assert_eq!(grown, sized);
    });
}

/// Neighbor populations past 64 force the bitset into spill words; the
/// model must still be tracked exactly (ordering across word
/// boundaries, slot renumbering on removal).
#[test]
fn wide_neighborhoods_spill_correctly() {
    forall("wide_neighborhoods_spill_correctly", 256, |rng| {
        run_ops(SubscriptionTable::new(), &random_ops(rng, 150, 8, 200), 8);
    });
}
