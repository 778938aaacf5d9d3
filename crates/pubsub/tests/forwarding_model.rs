//! Model-equivalence test of subscription forwarding (paper, §II).
//!
//! A dispatcher keeps no record of the subscriptions it has sent: it
//! reads them off its routing table — `Subscribe(p)` stands towards
//! neighbor `n` while a local client or another neighbor subscribes to
//! `p`. The reference model here keeps that record explicitly, as a set
//! of (pattern, neighbor) pairs marked when a `Subscribe` goes out and
//! cleared when the matching `Unsubscribe` does, over a naive routing
//! table of its own. Random trees of dispatchers take random local
//! (un)subscriptions, mid-run client (un)subscriptions and route
//! rebuilds (some after a link swap); every emitted message is
//! delivered to both until the network is quiet, and
//!
//! - every operation names the same neighbors, in the same order;
//! - the quiet tables equal the model's, and a fresh
//!   [`flood_subscriptions_direct`] of the same local patterns.
//!
//! A second test checks the event side of a dispatcher against a model
//! of what its cache admits: each event id once, whatever mix of copies
//! arrives.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use eps_overlay::{plan_reconnection, NodeId, OverlayKind, Topology};
use eps_pubsub::{
    flood_subscriptions_direct, install_client_subscriptions, rebuild_subscription_routes,
    CacheIndexes, ClientId, Dispatcher, DispatcherConfig, Event, EventId, PatternId, RangeRef,
};
use eps_sim::check::forall;
use eps_sim::Rng;

/// The client through which a dispatcher's own local subscriptions
/// go: the first, as [`install_client_subscriptions`] numbers them.
const LOCAL: ClientId = ClientId::new(0);

/// One dispatcher of the reference model.
#[derive(Clone, Default)]
struct ModelNode {
    local: BTreeSet<PatternId>,
    routes: BTreeSet<(PatternId, NodeId)>,
    /// The forwarding memory: `Subscribe` sent and not retracted.
    sent: BTreeSet<(PatternId, NodeId)>,
    /// The local clients holding each pattern.
    clients: BTreeMap<PatternId, BTreeSet<ClientId>>,
}

impl ModelNode {
    /// A subscription from `from` (`None`: a local client): sent on to
    /// every other neighbor it was not sent to before.
    fn subscribe(
        &mut self,
        pattern: PatternId,
        from: Option<NodeId>,
        neighbors: &[NodeId],
    ) -> Vec<NodeId> {
        match from {
            None => self.local.insert(pattern),
            Some(f) => self.routes.insert((pattern, f)),
        };
        neighbors
            .iter()
            .copied()
            .filter(|&n| Some(n) != from && self.sent.insert((pattern, n)))
            .collect()
    }

    /// An unsubscription from `from`: retracted from every other
    /// neighbor it was sent to and that no interface but itself still
    /// needs it for.
    fn unsubscribe(
        &mut self,
        pattern: PatternId,
        from: Option<NodeId>,
        neighbors: &[NodeId],
    ) -> Vec<NodeId> {
        match from {
            None => self.local.remove(&pattern),
            Some(f) => self.routes.remove(&(pattern, f)),
        };
        let mut out = Vec::new();
        for &n in neighbors.iter().filter(|&&n| Some(n) != from) {
            let still_needed = self.local.contains(&pattern)
                || self.routes.iter().any(|&(q, m)| q == pattern && m != n);
            if !still_needed && self.sent.remove(&(pattern, n)) {
                out.push(n);
            }
        }
        out
    }

    /// Client `client` takes `pattern`: `true` on the first holder.
    fn client_subscribe(&mut self, client: ClientId, pattern: PatternId) -> bool {
        let holders = self.clients.entry(pattern).or_default();
        let first = holders.is_empty();
        holders.insert(client) && first
    }

    /// Client `client` drops `pattern`: `true` when it was the last.
    fn client_unsubscribe(&mut self, client: ClientId, pattern: PatternId) -> bool {
        let holders = self.clients.entry(pattern).or_default();
        holders.remove(&client) && holders.is_empty()
    }
}

#[derive(Clone, Copy, Debug)]
enum Msg {
    Subscribe,
    Unsubscribe,
}

/// The dispatchers, the model and the overlay they share.
struct Net {
    topo: Topology,
    real: Vec<Dispatcher>,
    model: Vec<ModelNode>,
    /// The patterns this case draws from.
    patterns: Vec<PatternId>,
}

impl Net {
    fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.topo.neighbors(node).to_vec()
    }

    /// Delivers `msg` for `pattern` from `from` to each of `to`, and
    /// everything that emits, until the network is quiet.
    fn deliver(&mut self, from: NodeId, to: Vec<NodeId>, msg: Msg, pattern: PatternId) {
        let mut queue: VecDeque<(NodeId, NodeId)> = to.into_iter().map(|t| (t, from)).collect();
        while let Some((at, from)) = queue.pop_front() {
            let neighbors = self.neighbors(at);
            let (real, model) = (&mut self.real[at.index()], &mut self.model[at.index()]);
            let (got, want) = match msg {
                Msg::Subscribe => (
                    real.on_subscribe(pattern, from, &neighbors),
                    model.subscribe(pattern, Some(from), &neighbors),
                ),
                Msg::Unsubscribe => (
                    real.on_unsubscribe(pattern, from, &neighbors),
                    model.unsubscribe(pattern, Some(from), &neighbors),
                ),
            };
            assert_eq!(got, want, "{msg:?}({pattern}) from {from} at {at}");
            queue.extend(got.into_iter().map(|next| (next, at)));
        }
    }

    /// The model's message-at-a-time flood from reset routes: each
    /// dispatcher announces its local patterns, the rest follows.
    fn model_flood(&mut self) {
        for m in &mut self.model {
            m.routes.clear();
            m.sent.clear();
        }
        for i in 0..self.model.len() {
            let node = NodeId::new(i as u32);
            let neighbors = self.neighbors(node);
            let m = &mut self.model[i];
            let announced: Vec<(PatternId, Vec<NodeId>)> = m
                .local
                .clone()
                .into_iter()
                .map(|p| (p, m.subscribe(p, None, &neighbors)))
                .collect();
            for (p, to) in announced {
                self.deliver_model(node, to, p);
            }
        }
    }

    /// [`Net::deliver`] of a `Subscribe` to the model alone.
    fn deliver_model(&mut self, from: NodeId, to: Vec<NodeId>, pattern: PatternId) {
        let mut queue: VecDeque<(NodeId, NodeId)> = to.into_iter().map(|t| (t, from)).collect();
        while let Some((at, from)) = queue.pop_front() {
            let neighbors = self.neighbors(at);
            let next = self.model[at.index()].subscribe(pattern, Some(from), &neighbors);
            queue.extend(next.into_iter().map(|n| (n, at)));
        }
    }

    /// The checks on a quiet network.
    fn assert_quiet(&self, case: &str) {
        let locals: Vec<Vec<PatternId>> = self
            .real
            .iter()
            .map(|d| d.table().local_patterns().collect())
            .collect();
        let mut fresh: Vec<Dispatcher> = self
            .topo
            .nodes()
            .map(|id| Dispatcher::new(id, DispatcherConfig::default()))
            .collect();
        for (d, patterns) in fresh.iter_mut().zip(&locals) {
            for &p in patterns {
                d.subscribe_local(p, &[]);
            }
        }
        flood_subscriptions_direct(&mut fresh, &self.topo);
        for node in self.topo.nodes() {
            let (d, m) = (&self.real[node.index()], &self.model[node.index()]);
            assert_eq!(
                d.table(),
                fresh[node.index()].table(),
                "{case}: table of {node} differs from a fresh fill"
            );
            assert_eq!(
                locals[node.index()],
                m.local.iter().copied().collect::<Vec<_>>(),
                "{case}: local patterns of {node}"
            );
            for &p in &self.patterns {
                let want: Vec<NodeId> = m
                    .routes
                    .iter()
                    .filter(|&&(q, _)| q == p)
                    .map(|&(_, n)| n)
                    .collect();
                assert_eq!(
                    d.table().neighbors_for(p, None).collect::<Vec<_>>(),
                    want,
                    "{case}: routes of {p} at {node}"
                );
            }
        }
    }

    /// Rebuilds every route, after swapping a link when `swap` holds.
    fn rebuild(&mut self, swap: bool, rng: &mut Rng) {
        if swap {
            // The runner's reconfiguration: a link breaks and a repair
            // joins the two sides.
            if let Some(broken) = rng.choose_iter(self.topo.links()) {
                self.topo.remove_link(broken).unwrap();
                let (x, y) = plan_reconnection(&self.topo, rng).expect("a break splits a tree");
                self.topo.add_link(x, y).unwrap();
            }
        }
        for d in &mut self.real {
            d.reset_routing_state();
        }
        rebuild_subscription_routes(&mut self.real, &self.topo);
        self.model_flood();
    }

    /// One random operation at one random dispatcher; returns its name.
    fn step(&mut self, rng: &mut Rng) -> String {
        let op = rng.random_below(9);
        if op == 8 {
            let swap = rng.random_below(2) == 0;
            self.rebuild(swap, rng);
            return format!("rebuild (swap {swap})");
        }
        let node = NodeId::new(rng.random_below(self.real.len() as u64) as u32);
        let neighbors = self.neighbors(node);
        // Ops 0–3 are the dispatcher's own local (un)subscriptions,
        // through a client of their own; ops 4–7 are mid-run ones of
        // three other clients.
        let client = match op {
            0..=3 => LOCAL,
            _ => ClientId::new(1 + rng.random_below(3) as u32),
        };
        let (real, model) = (&mut self.real[node.index()], &mut self.model[node.index()]);
        // Unsubscriptions mostly name a pattern the client holds.
        let held: Vec<PatternId> = match op {
            2..=3 | 6..=7 => real.clients().patterns_of(client).collect(),
            _ => Vec::new(),
        };
        let pattern = match rng.choose(&held) {
            Some(&p) if rng.random_below(4) != 0 => p,
            _ => self.patterns[rng.random_below(self.patterns.len() as u64) as usize],
        };
        let (name, msg, got, want) = match op {
            0..=1 | 4..=5 => {
                let want = if model.client_subscribe(client, pattern) {
                    model.subscribe(pattern, None, &neighbors)
                } else {
                    Vec::new()
                };
                match op {
                    0..=1 => {
                        let got = real.client_subscribe(client, pattern, &neighbors);
                        ("client_subscribe", Msg::Subscribe, got, want)
                    }
                    _ => {
                        let got = real.client_subscribe_late(client, pattern, &neighbors);
                        ("client_subscribe_late", Msg::Subscribe, got, want)
                    }
                }
            }
            _ => {
                let want = if model.client_unsubscribe(client, pattern) {
                    model.unsubscribe(pattern, None, &neighbors)
                } else {
                    Vec::new()
                };
                let got = real.client_unsubscribe(client, pattern, &neighbors);
                ("client_unsubscribe", Msg::Unsubscribe, got, want)
            }
        };
        let case = format!("{name}({pattern}) of {client} at {node}");
        assert_eq!(got, want, "{case}");
        self.deliver(node, got, msg, pattern);
        case
    }
}

#[test]
fn derived_forwarding_memory_equals_an_explicit_one() {
    forall(
        "derived_forwarding_memory_equals_an_explicit_one",
        256,
        |rng| {
            let n = rng.random_range(2..13usize);
            let topo = Topology::build(OverlayKind::Tree, n, rng.random_range(2..5usize), rng);
            // A handful of patterns out of 150, across bitset words.
            let mut patterns: Vec<PatternId> = (0..rng.random_range(1..7u64))
                .map(|_| PatternId::new(rng.random_below(150) as u16))
                .collect();
            patterns.sort_unstable();
            patterns.dedup();
            let mut net = Net {
                real: topo
                    .nodes()
                    .map(|id| Dispatcher::new(id, DispatcherConfig::default()))
                    .collect(),
                model: vec![ModelNode::default(); n],
                topo,
                patterns,
            };
            // Initial subscriptions of each dispatcher's own client,
            // filled in bulk.
            let initial: Vec<Vec<Vec<PatternId>>> = (0..n)
                .map(|_| {
                    vec![(net.patterns.iter().copied())
                        .filter(|_| rng.random_below(3) == 0)
                        .collect()]
                })
                .collect();
            install_client_subscriptions(&mut net.real, &initial);
            for (m, subs) in net.model.iter_mut().zip(initial.iter().flatten()) {
                for &p in subs {
                    m.client_subscribe(LOCAL, p);
                    m.local.insert(p);
                }
            }
            flood_subscriptions_direct(&mut net.real, &net.topo);
            net.model_flood();
            net.assert_quiet("bulk fill");
            for _ in 0..rng.random_range(1..60u32) {
                let case = net.step(rng);
                net.assert_quiet(&case);
            }
        },
    );
}

/// One arrival at, or action of, the dispatcher under test.
enum Step {
    /// A copy from a neighbor: the tree's, or a cross link's, which
    /// brings a second copy on a cyclic overlay.
    Hop(NodeId, Event),
    /// A copy in a recovery reply.
    Recovered(Event),
    /// The dispatcher publishes its next event.
    Publish,
}

#[test]
fn a_dispatcher_admits_each_event_id_to_its_cache_once() {
    // Remote events reach the dispatcher one to three times each, by any
    // route, in any order, and a forged copy of some of its own next ids
    // (a socket peer can name an id ahead of its source) arrives before
    // the publish that takes the id, sometimes long enough before it to
    // be evicted. The seen set is the one duplicate filter: the cache
    // admits every delivered id exactly once, and the publish after a
    // forgery admits nothing.
    forall(
        "a_dispatcher_admits_each_event_id_to_its_cache_once",
        256,
        |rng| {
            let me = NodeId::new(0);
            let (tree, cross) = (NodeId::new(1), NodeId::new(2));
            let patterns: Vec<PatternId> = (0..4).map(PatternId::new).collect();
            // The seen index keeps every admission, evicted or not.
            let config = DispatcherConfig {
                cache_capacity: rng.random_range(1..16usize),
                cache_indexes: CacheIndexes::ALL,
                ..DispatcherConfig::default()
            };
            let mut d = Dispatcher::new(me, config);
            // Patterns 0 and 1 are local: their events are delivered and
            // cached. Patterns 2 and 3 only pass through.
            d.subscribe_local(patterns[0], &[]);
            d.subscribe_local(patterns[1], &[]);
            let local = |e: &Event| e.matches(patterns[0]) || e.matches(patterns[1]);
            let mut sources: Vec<Dispatcher> = (3..6)
                .map(|s| Dispatcher::new(NodeId::new(s), DispatcherConfig::default()))
                .collect();
            let mut steps = Vec::new();
            for _ in 0..rng.random_range(1..60u32) {
                let bits = 1 + rng.random_below(15);
                let content: Vec<PatternId> = (patterns.iter().enumerate())
                    .filter(|&(i, _)| bits >> i & 1 != 0)
                    .map(|(_, &p)| p)
                    .collect();
                let source = rng.random_below(sources.len() as u64) as usize;
                let (event, _) = sources[source].publish(&content, &mut Vec::new());
                for _ in 0..rng.random_range(1..4u32) {
                    let copy = match rng.random_below(3) {
                        0 => Step::Hop(tree, event.clone()),
                        1 => Step::Hop(cross, event.clone()),
                        _ => Step::Recovered(event.clone()),
                    };
                    steps.insert(rng.random_range(0..steps.len() + 1), copy);
                }
            }
            let publishes = rng.random_range(1..6usize);
            for _ in 0..publishes {
                steps.insert(rng.random_range(0..steps.len() + 1), Step::Publish);
            }
            // A forged copy of own seq k, on pattern 0, goes anywhere
            // before the k-th publish.
            for k in 0..publishes {
                if rng.random_bool(0.5) {
                    let publish = (steps.iter().enumerate())
                        .filter(|(_, step)| matches!(step, Step::Publish))
                        .nth(k)
                        .map(|(at, _)| at)
                        .expect("one step per publish");
                    let id = EventId::new(me, k as u64);
                    let forged = Event::new(id, vec![(patterns[0], 1_000 + k as u64)]);
                    let copy = match rng.random_bool(0.5) {
                        true => Step::Hop(tree, forged),
                        false => Step::Recovered(forged),
                    };
                    steps.insert(rng.random_range(0..publish + 1), copy);
                }
            }
            // The (pattern, id) pairs the cache must have admitted, each
            // once: every local event's and every own one's. A forged
            // copy and the publish that takes its id both name pattern 0.
            let mut admitted: BTreeSet<(PatternId, EventId)> = BTreeSet::new();
            let admit = |admitted: &mut BTreeSet<_>, e: &Event| {
                admitted.extend(e.pattern_seqs().iter().map(|&(p, _)| (p, e.id())));
            };
            for step in steps {
                if let Step::Hop(_, e) | Step::Recovered(e) = &step {
                    if local(e) {
                        admit(&mut admitted, e);
                    }
                }
                match step {
                    Step::Hop(from, e) => {
                        d.on_event(e, Some(from), &mut Vec::new());
                    }
                    Step::Recovered(e) => {
                        d.on_recovered_event(e);
                    }
                    Step::Publish => {
                        let (e, _) = d.publish(&patterns[..1], &mut Vec::new());
                        admit(&mut admitted, &e);
                    }
                }
                for &p in &patterns {
                    let distinct = |ids: &[EventId], what: &str| -> BTreeSet<EventId> {
                        let set: BTreeSet<EventId> = ids.iter().copied().collect();
                        assert_eq!(set.len(), ids.len(), "{p} {what} an id twice");
                        set
                    };
                    let seen = d.cache().seen_index();
                    let ids = seen.ids_in(p, RangeRef::ROOT);
                    assert_eq!(seen.root(p).count, ids.len() as u64, "{p}");
                    let ever = distinct(&ids, "admitted");
                    let expected = admitted.iter().filter(|&&(q, _)| q == p);
                    assert!(ever.iter().eq(expected.map(|(_, id)| id)), "{p}");
                    let listed = distinct(&d.cache().ids_matching(p), "lists");
                    assert!(listed.is_subset(&ever), "{p} lists an unadmitted id");
                }
            }
        },
    );
}
