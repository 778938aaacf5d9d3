//! Model-equivalence test of the client layer. A long random sequence
//! of client subscribes, unsubscribes, and deliveries drives the flat
//! sorted [`ClientRegistry`] and a naive per-client reference model
//! (`BTreeMap<ClientId, BTreeSet<PatternId>>`), and every observable
//! must agree op-for-op:
//!
//! - covering never loses a delivery — fan-out equals the clients
//!   whose own subscription sets match the event;
//! - refcounted retraction never strands routing state — a dispatcher
//!   driven through `client_subscribe`/`client_unsubscribe` holds
//!   exactly the aggregate in its table's local interface.

use std::collections::{BTreeMap, BTreeSet};

use eps_overlay::NodeId;
use eps_pubsub::{
    ClientId, ClientRegistry, Dispatcher, DispatcherConfig, Event, EventId, PatternId,
};
use eps_sim::check::forall;
use eps_sim::Rng;

const CLIENTS: u64 = 8;
const PATTERNS: u64 = 24;

/// The reference model: each client's own subscription set. The
/// aggregate is derived on demand, never cached.
#[derive(Default)]
struct Model {
    clients: BTreeMap<ClientId, BTreeSet<PatternId>>,
}

impl Model {
    fn subscribe(&mut self, client: ClientId, pattern: PatternId) -> bool {
        let covered = self.covers(pattern);
        self.clients.entry(client).or_default().insert(pattern) && !covered
    }

    fn unsubscribe(&mut self, client: ClientId, pattern: PatternId) -> bool {
        let removed = self
            .clients
            .get_mut(&client)
            .is_some_and(|set| set.remove(&pattern));
        removed && !self.covers(pattern)
    }

    fn covers(&self, pattern: PatternId) -> bool {
        self.clients.values().any(|set| set.contains(&pattern))
    }

    fn refcount(&self, pattern: PatternId) -> usize {
        self.clients
            .values()
            .filter(|set| set.contains(&pattern))
            .count()
    }

    fn aggregate(&self) -> Vec<PatternId> {
        self.clients
            .values()
            .flatten()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    fn len(&self) -> usize {
        self.clients.values().map(BTreeSet::len).sum()
    }

    fn matching_clients(&self, event: &Event) -> Vec<ClientId> {
        self.clients
            .iter()
            .filter(|(_, set)| event.patterns().any(|p| set.contains(&p)))
            .map(|(&c, _)| c)
            .collect()
    }
}

fn random_event(rng: &mut Rng, seq: u64) -> Event {
    let mut patterns: Vec<u16> = (0..1 + rng.random_below(3))
        .map(|_| rng.random_below(PATTERNS) as u16)
        .collect();
    patterns.sort_unstable();
    patterns.dedup();
    Event::new(
        EventId::new(NodeId::new(0), seq),
        patterns
            .into_iter()
            .map(|p| (PatternId::new(p), seq))
            .collect(),
    )
}

#[test]
fn registry_and_dispatcher_match_per_client_reference_model() {
    forall("registry_and_dispatcher_match_reference_model", 12, |rng| {
        let mut registry = ClientRegistry::new();
        let mut node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let mut model = Model::default();
        for step in 0..2_000u64 {
            let client = ClientId::new(rng.random_below(CLIENTS) as u32);
            let pattern = PatternId::new(rng.random_below(PATTERNS) as u16);
            match rng.random_below(6) {
                0..=2 => {
                    let grew = model.subscribe(client, pattern);
                    assert_eq!(
                        registry.subscribe(client, pattern),
                        grew,
                        "step {step}: aggregate-grew transition disagrees"
                    );
                    // Covered subscriptions must propagate nothing.
                    let forwards = node.client_subscribe(client, pattern, &[]);
                    if !grew {
                        assert!(
                            forwards.is_empty(),
                            "step {step}: covered subscription propagated"
                        );
                    }
                }
                3..=4 => {
                    let shrank = model.unsubscribe(client, pattern);
                    assert_eq!(
                        registry.unsubscribe(client, pattern),
                        shrank,
                        "step {step}: aggregate-shrank transition disagrees"
                    );
                    node.client_unsubscribe(client, pattern, &[]);
                }
                _ => {
                    let event = random_event(rng, step);
                    let mut out = Vec::new();
                    registry.matching_clients_into(&event, &mut out);
                    assert_eq!(
                        out,
                        model.matching_clients(&event),
                        "step {step}: covering changed delivery semantics"
                    );
                }
            }
            assert_eq!(registry.len(), model.len(), "step {step}");
            let expected = model.aggregate();
            let aggregate: Vec<PatternId> = registry.aggregate_patterns().collect();
            assert_eq!(aggregate, expected, "step {step}: aggregate filter drifted");
            // The dispatcher's routing state is exactly the aggregate:
            // nothing strands after the last local client drops a
            // pattern, nothing retracts while a holder remains.
            let local: Vec<PatternId> = node.table().local_patterns().collect();
            assert_eq!(
                local, expected,
                "step {step}: routing state drifted from the aggregate"
            );
            for p in 0..PATTERNS {
                let pattern = PatternId::new(p as u16);
                assert_eq!(registry.covers(pattern), model.covers(pattern));
                assert_eq!(registry.refcount(pattern), model.refcount(pattern));
            }
        }
        // Exercised both regimes: the run must have covered and
        // refcounted, not just mirrored single subscriptions.
        assert!(registry.len() > registry.aggregate_len());
    });
}
