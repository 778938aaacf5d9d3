//! Network assembly helpers: instant subscription flooding.
//!
//! The paper's simulations run "with stable subscription information
//! (i.e., no (un)subscriptions are being issued)". These helpers run
//! the subscription-forwarding protocol to quiescence *outside* of
//! virtual time, producing the stable routing state the event workload
//! then runs on. The same mechanism rebuilds routes after a
//! topological reconfiguration completes.

use std::collections::{BTreeMap, VecDeque};

use eps_overlay::{NodeId, Topology};

use crate::dispatcher::Dispatcher;
use crate::pattern::PatternId;
use crate::table::PatternBits;

/// Access to the [`Dispatcher`] inside a larger per-node bundle.
///
/// The assembly helpers in this module are generic over this trait so
/// they can run over a plain `[Dispatcher]` as well as over node
/// actors that own a dispatcher next to other per-node state (RNGs, a
/// recovery algorithm, …).
pub trait DispatcherHost {
    /// The dispatcher this host wraps.
    fn dispatcher(&self) -> &Dispatcher;
    /// Mutable access to the wrapped dispatcher.
    fn dispatcher_mut(&mut self) -> &mut Dispatcher;
}

impl DispatcherHost for Dispatcher {
    fn dispatcher(&self) -> &Dispatcher {
        self
    }
    fn dispatcher_mut(&mut self) -> &mut Dispatcher {
        self
    }
}

/// Runs the subscription-forwarding protocol to quiescence: every
/// dispatcher's *local* subscriptions are propagated through the tree
/// until no new table entries appear.
///
/// Dispatcher `i` must correspond to topology node `i`. Local
/// subscriptions must already be recorded (e.g. via
/// [`Dispatcher::subscribe_local`] with an empty neighbor list, or by
/// calling this right after [`install_local_subscriptions`]), and no
/// neighbor routes (a fresh or [`Dispatcher::reset_routing_state`]
/// table): recording a local pattern with no neighbors sends nothing,
/// so the flood starts by announcing each one to every neighbor.
///
/// Returns the number of subscription messages that the protocol would
/// have exchanged (useful for accounting).
///
/// # Panics
///
/// Panics if `dispatchers.len() != topology.len()`.
pub fn flood_subscriptions<H: DispatcherHost>(hosts: &mut [H], topology: &Topology) -> u64 {
    assert_eq!(
        hosts.len(),
        topology.len(),
        "one dispatcher per topology node"
    );
    let mut queue: VecDeque<(NodeId, NodeId, PatternId)> = VecDeque::new();
    let mut messages = 0u64;

    // Seed: every dispatcher announces its local patterns.
    for node in topology.nodes() {
        for p in hosts[node.index()].dispatcher().table().local_patterns() {
            for &to in topology.neighbors(node) {
                queue.push_back((to, node, p));
            }
        }
    }

    // Propagate to quiescence.
    while let Some((to, from, pattern)) = queue.pop_front() {
        messages += 1;
        let neighbors: Vec<NodeId> = topology.neighbors(to).to_vec();
        for next in hosts[to.index()]
            .dispatcher_mut()
            .on_subscribe(pattern, from, &neighbors)
        {
            queue.push_back((next, to, pattern));
        }
    }
    messages
}

/// Computes the fixpoint of [`flood_subscriptions`] for a *tree*
/// overlay in closed form, without exchanging any messages.
///
/// On a tree the flooded state has an exact characterization. Root the
/// tree anywhere and let `cnt(v)` be the number of subscribers of
/// pattern `p` in the subtree of `v`, out of `total` overall. For the
/// edge between `v` and its parent `u`:
///
/// - `v` sends `Subscribe(p)` to `u` iff some subscriber is on `v`'s
///   side: `cnt(v) > 0` — and then `u`'s table routes `p` towards `v`;
/// - `u` sends `Subscribe(p)` to `v` iff some subscriber is on `u`'s
///   side: `total − cnt(v) > 0` — and then `v`'s table routes `p`
///   towards `u`.
///
/// (A dispatcher sends on an edge exactly when it has interest from
/// any other interface, which on a tree means a subscriber on its side
/// of that edge; the subscription-forwarding fixpoint follows by
/// induction along each path.) This computes those predicates directly,
/// in two passes that follow how each one is distributed:
///
/// 1. *Upward, pattern-major.* `cnt(v) > 0` holds only on the paths
///    from `p`'s subscribers to the root, so each pattern walks those
///    paths (O(subscribers · depth), not O(N)), installs `u → v` there,
///    and notes the nodes with `cnt(v) = total` — every subscriber of
///    `p` is at or below them.
/// 2. *Downward, node-major.* `total − cnt(v) > 0` holds for every
///    subscribed pattern except those just noted for `v` — a handful
///    per node — so it is one bitset of all subscribed patterns, built
///    once and shared as one `Arc`, minus `v`'s exceptions: the default
///    route of `v`'s table towards `u`, an `Arc` clone instead of Π/64
///    words ORed into every dispatcher's table. The parent `u` keeps
///    nothing for it: what a dispatcher has sent is read off its own
///    table.
///
/// The order of the passes, and of the writes inside them, cannot show
/// in the result: tables are *sets* of (pattern, neighbor) pairs, read
/// and compared only through their contents (neighbors in id order,
/// patterns in index order), and every pair is written by exactly one
/// of the two predicates. The resulting tables are identical to what
/// [`flood_subscriptions`] produces — and with them which subscriptions
/// each dispatcher has sent, the state that gates unsubscription — and
/// the returned message count is the count the flood would have
/// exchanged; the equivalence is pinned by tests and by the golden
/// suite. Only the layout differs: a table keeps explicit rows just
/// where its dispatcher lies on a pattern's subscriber subtree (see
/// [`crate::SubscriptionTable`]).
///
/// Local subscriptions must already be recorded (e.g. via
/// [`install_local_subscriptions`]); dispatcher `i` must correspond to
/// topology node `i`.
///
/// # Panics
///
/// Panics if `hosts.len() != topology.len()` or the topology is not a
/// tree.
pub fn flood_subscriptions_direct<H: DispatcherHost>(hosts: &mut [H], topology: &Topology) -> u64 {
    assert_eq!(
        hosts.len(),
        topology.len(),
        "one dispatcher per topology node"
    );
    assert!(
        topology.is_tree(),
        "direct subscription fill requires a tree overlay"
    );
    let n = hosts.len();
    if n == 0 {
        return 0;
    }

    // Parent of every node, rooting the tree at node 0 (BFS).
    let root = NodeId::new(0);
    let mut parent: Vec<NodeId> = vec![root; n];
    let mut visited = vec![false; n];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    visited[0] = true;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        for &w in topology.neighbors(v) {
            if !visited[w.index()] {
                visited[w.index()] = true;
                parent[w.index()] = v;
                queue.push_back(w);
            }
        }
    }

    // Subscribers of each pattern, patterns in ascending order.
    let mut subscribers: BTreeMap<PatternId, Vec<NodeId>> = BTreeMap::new();
    for (i, h) in hosts.iter().enumerate() {
        for p in h.dispatcher().table().local_patterns() {
            subscribers
                .entry(p)
                .or_default()
                .push(NodeId::new(i as u32));
        }
    }

    // Pass 1, pattern-major, over each pattern's subscriber subtrees
    // only: the upward half (`cnt(v) > 0`) of every edge, and the
    // (node, pattern) pairs whose downward half is *missing*. Scratch
    // subtree counts are reset via the touched list, so a pattern
    // costs O(subscribers · depth), not O(N).
    let mut cnt: Vec<u32> = vec![0; n];
    let mut touched: Vec<usize> = Vec::new();
    let words = subscribers
        .keys()
        .next_back()
        .map_or(0, |p| p.index() / 64 + 1);
    let mut subscribed: Vec<u64> = vec![0; words];
    let mut enclosing: Vec<(usize, PatternId)> = Vec::new();
    let mut messages = 0u64;
    for (&p, subs) in &subscribers {
        subscribed[p.index() / 64] |= 1u64 << (p.index() % 64);
        let total = subs.len() as u32;
        for &s in subs {
            let mut v = s;
            loop {
                if cnt[v.index()] == 0 {
                    touched.push(v.index());
                }
                cnt[v.index()] += 1;
                if v == root {
                    break;
                }
                v = parent[v.index()];
            }
        }
        // Each non-root node is the child endpoint of exactly one edge.
        for &i in touched.iter().filter(|&&i| i != root.index()) {
            let (v, u) = (NodeId::new(i as u32), parent[i]);
            hosts[u.index()].dispatcher_mut().install_route(p, v);
            messages += 1;
            if cnt[i] == total {
                enclosing.push((i, p));
            }
        }
        for &i in &touched {
            cnt[i] = 0;
        }
        touched.clear();
    }

    // Pass 2, node-major: the downward half (`total − cnt(v) > 0`) of
    // the edge above `v` holds for every subscribed pattern except the
    // few whose subscribers all sit in `v`'s subtree, so it is the
    // shared bitset minus those: `v`'s default route towards its parent.
    let subscribed = PatternBits::from(subscribed);
    enclosing.sort_unstable();
    let mut rest = enclosing.as_slice();
    let mut excluded: Vec<PatternId> = Vec::new();
    for (i, &u) in parent.iter().enumerate().skip(1) {
        let here = rest.partition_point(|&(node, _)| node == i);
        excluded.clear();
        excluded.extend(rest[..here].iter().map(|&(_, p)| p));
        rest = &rest[here..];
        hosts[i]
            .dispatcher_mut()
            .install_shared_routes(subscribed.clone(), &excluded, u);
        messages += (subscribers.len() - excluded.len()) as u64;
    }
    messages
}

/// Records `subscriptions[i]` as the local subscriptions of dispatcher
/// `i` without propagating anything.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn install_local_subscriptions<H: DispatcherHost>(
    hosts: &mut [H],
    subscriptions: &[Vec<PatternId>],
) {
    assert_eq!(hosts.len(), subscriptions.len());
    for (h, subs) in hosts.iter_mut().zip(subscriptions) {
        for &p in subs {
            h.dispatcher_mut().subscribe_local(p, &[]);
        }
    }
}

/// Records `clients[i][c]` as the subscriptions of client `c` of
/// dispatcher `i` without propagating anything. The dispatcher's
/// aggregate filter (its table's `Local` bits) becomes the union of
/// its clients' patterns; with one client per dispatcher this is
/// exactly [`install_local_subscriptions`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn install_client_subscriptions<H: DispatcherHost>(
    hosts: &mut [H],
    clients: &[Vec<Vec<PatternId>>],
) {
    assert_eq!(hosts.len(), clients.len());
    for (h, per_client) in hosts.iter_mut().zip(clients) {
        for (c, subs) in per_client.iter().enumerate() {
            let client = crate::clients::ClientId::new(c as u32);
            for &p in subs {
                h.dispatcher_mut().client_subscribe(client, p, &[]);
            }
        }
    }
}

/// Rebuilds all subscription routes from scratch for a (possibly
/// reconfigured) topology: clears neighbor-derived state on every
/// dispatcher, then re-floods local subscriptions.
///
/// This models the *completed* state of the reconfiguration protocol
/// of the paper's reference \[7\]; the disruption window between a link
/// break and this rebuild is where events are lost.
pub fn rebuild_subscription_routes<H: DispatcherHost>(hosts: &mut [H], topology: &Topology) -> u64 {
    for h in hosts.iter_mut() {
        h.dispatcher_mut().reset_routing_state();
    }
    if topology.is_tree() {
        // The closed form reaches the same fixpoint without the
        // message-at-a-time simulation (see its docs).
        flood_subscriptions_direct(hosts, topology)
    } else {
        flood_subscriptions(hosts, topology)
    }
}

/// Computes, for each event-content pattern set, which dispatchers
/// would receive it in a loss-free network: the dispatchers locally
/// subscribed to at least one of the content's patterns.
///
/// Used by the metrics layer to know the intended recipients of every
/// published event.
pub fn intended_recipients<H: DispatcherHost>(hosts: &[H], content: &[PatternId]) -> Vec<NodeId> {
    hosts
        .iter()
        .map(DispatcherHost::dispatcher)
        .filter(|d| content.iter().any(|&p| d.table().has_local(p)))
        .map(|d| d.id())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::DispatcherConfig;
    use crate::event::Event;
    use crate::pattern::PatternSpace;
    use eps_sim::check::forall;
    use eps_sim::{Rng, RngFactory};
    use std::collections::BTreeSet;

    fn build(n: usize, seed: u64) -> (Vec<Dispatcher>, Topology) {
        let factory = RngFactory::new(seed);
        let topo = Topology::random_tree(n, 4, &mut factory.stream("topology"));
        let dispatchers: Vec<Dispatcher> = topo
            .nodes()
            .map(|id| Dispatcher::new(id, DispatcherConfig::default()))
            .collect();
        (dispatchers, topo)
    }

    /// Dispatchers over `topo` holding `subs`, flooded to quiescence.
    fn flooded(
        topo: &Topology,
        subs: &[Vec<PatternId>],
        config: DispatcherConfig,
    ) -> Vec<Dispatcher> {
        let mut ds: Vec<Dispatcher> = topo.nodes().map(|id| Dispatcher::new(id, config)).collect();
        install_local_subscriptions(&mut ds, subs);
        flood_subscriptions(&mut ds, topo);
        ds
    }

    fn random_subs(rng: &mut Rng, n: usize, pi_max: usize) -> Vec<Vec<PatternId>> {
        let space = PatternSpace::paper_default();
        (0..n)
            .map(|_| space.random_subscriptions(pi_max, rng))
            .collect()
    }

    /// Publishes `content` at `publisher` and hand-routes the event
    /// over the tree with no loss; returns it with the set of
    /// dispatchers that delivered it.
    fn publish_and_route(
        ds: &mut [Dispatcher],
        publisher: NodeId,
        content: &[PatternId],
    ) -> (Event, BTreeSet<NodeId>) {
        let mut next_hops = Vec::new();
        let (event, receipt) = ds[publisher.index()].publish(content, &mut next_hops);
        let mut delivered = BTreeSet::new();
        if receipt.delivered {
            delivered.insert(publisher);
        }
        let mut queue: VecDeque<_> = next_hops
            .iter()
            .map(|&to| (to, publisher, event.clone()))
            .collect();
        let mut hops = 0;
        while let Some((at, from, e)) = queue.pop_front() {
            hops += 1;
            assert!(hops <= 4 * ds.len(), "routing does not terminate");
            let (copy, receipt) = ds[at.index()].on_event(e, Some(from), &mut next_hops);
            if receipt.delivered {
                delivered.insert(at);
            }
            queue.extend(next_hops.iter().map(|&to| (to, at, copy.clone())));
        }
        (event, delivered)
    }

    /// After flooding, every dispatcher knows every pattern subscribed
    /// anywhere, and reports as local exactly its own subscriptions.
    #[test]
    fn flood_reaches_every_dispatcher() {
        forall("flood_reaches_every_dispatcher", 128, |rng| {
            let n = rng.random_range(2..50usize);
            let topo = Topology::random_tree(n, 4, rng);
            let pi_max = rng.random_range(1..5usize);
            let subs = random_subs(rng, n, pi_max);
            let ds = flooded(&topo, &subs, DispatcherConfig::default());
            let subscribed_anywhere: BTreeSet<PatternId> = subs.iter().flatten().copied().collect();
            for (d, own) in ds.iter().zip(&subs) {
                for &p in &subscribed_anywhere {
                    assert!(
                        d.table().knows(p),
                        "dispatcher {} does not know {p}",
                        d.id()
                    );
                }
                let locals: Vec<PatternId> = d.table().local_patterns().collect();
                assert_eq!(&locals, own);
            }
        });
    }

    #[test]
    fn flooded_tables_route_towards_the_subscriber() {
        let (mut ds, topo) = build(30, 2);
        let p = PatternId::new(5);
        let subscriber = NodeId::new(7);
        ds[subscriber.index()].subscribe_local(p, &[]);
        flood_subscriptions(&mut ds, &topo);
        // From every node, following the table for p hop by hop must
        // reach the subscriber.
        for start in topo.nodes() {
            let mut cur = start;
            let mut prev: Option<NodeId> = None;
            for _hop in 0..topo.len() {
                if cur == subscriber {
                    break;
                }
                let next = ds[cur.index()].table().neighbors_for(p, prev);
                assert_eq!(next.len(), 1, "tree route must be unique at {cur}");
                prev = Some(cur);
                cur = next[0];
            }
            assert_eq!(
                cur, subscriber,
                "route from {start} did not reach subscriber"
            );
        }
    }

    #[test]
    fn event_from_any_node_reaches_all_subscribers() {
        // ... and nobody else: an event delivers at exactly the
        // dispatchers subscribed to one of its patterns, once each.
        forall("event_from_any_node_reaches_all_subscribers", 128, |rng| {
            let n = rng.random_range(2..40usize);
            let topo = Topology::random_tree(n, 4, rng);
            let subs = random_subs(rng, n, 2);
            let mut ds = flooded(&topo, &subs, DispatcherConfig::default());
            let publisher = NodeId::new(rng.random_below(n as u64) as u32);
            let content = PatternSpace::paper_default().random_content(rng);
            let (event, delivered) = publish_and_route(&mut ds, publisher, &content);
            let expected: BTreeSet<NodeId> = topo
                .nodes()
                .filter(|node| subs[node.index()].iter().any(|p| content.contains(p)))
                .collect();
            assert_eq!(delivered, expected, "event {} mis-routed", event.id());
            for d in &ds {
                let subscribed = expected.contains(&d.id());
                assert_eq!(d.delivered_total(), u64::from(subscribed));
                assert!(!subscribed || d.has_seen(event.id()));
            }
        });
    }

    #[test]
    fn recorded_routes_match_tree_paths() {
        // Everyone subscribes to one pattern, so an event floods the
        // tree; the route each receiver recorded is the tree path.
        forall("recorded_routes_match_tree_paths", 128, |rng| {
            let n = rng.random_range(2..40usize);
            let topo = Topology::random_tree(n, 4, rng);
            let config = DispatcherConfig {
                record_routes: true,
                ..DispatcherConfig::default()
            };
            let p = PatternId::new(0);
            let mut ds = flooded(&topo, &vec![vec![p]; n], config);
            let publisher = NodeId::new(rng.random_below(n as u64) as u32);
            publish_and_route(&mut ds, publisher, &[p]);
            for node in topo.nodes().filter(|&node| node != publisher) {
                let recorded = ds[node.index()].routes().route_from(publisher);
                let expected = topo.path(publisher, node).unwrap();
                assert_eq!(recorded, Some(&expected[..]));
            }
        });
    }

    #[test]
    fn install_and_intended_recipients() {
        let (mut ds, topo) = build(10, 4);
        let subs: Vec<Vec<PatternId>> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    vec![PatternId::new(1)]
                } else {
                    vec![PatternId::new(2)]
                }
            })
            .collect();
        install_local_subscriptions(&mut ds, &subs);
        flood_subscriptions(&mut ds, &topo);
        let rx = intended_recipients(&ds, &[PatternId::new(1)]);
        assert_eq!(rx.len(), 5);
        assert!(rx.iter().all(|n| n.index() % 2 == 0));
        let both = intended_recipients(&ds, &[PatternId::new(1), PatternId::new(2)]);
        assert_eq!(both.len(), 10);
    }

    #[test]
    fn rebuild_after_reconfiguration_restores_routes() {
        let (mut ds, mut topo) = build(25, 5);
        let p = PatternId::new(3);
        ds[11].subscribe_local(p, &[]);
        flood_subscriptions(&mut ds, &topo);

        // Reconfigure: break one link, replace it.
        let mut rng = RngFactory::new(5).stream("reconfig");
        let plan = eps_overlay::plan_reconfiguration(&topo, &mut rng).unwrap();
        topo.remove_link(plan.broken).unwrap();
        topo.add_link(plan.replacement.0, plan.replacement.1)
            .unwrap();
        rebuild_subscription_routes(&mut ds, &topo);

        // Routes must again lead everywhere.
        for node in topo.nodes() {
            assert!(ds[node.index()].table().knows(p));
        }
    }

    fn fresh(topo: &Topology) -> Vec<Dispatcher> {
        topo.nodes()
            .map(|id| Dispatcher::new(id, DispatcherConfig::default()))
            .collect()
    }

    /// Runs the direct fill over a copy of `installed` (local
    /// subscriptions recorded, nothing propagated) and the
    /// message-at-a-time flood over another, and requires the same
    /// tables and the same message count — and the same again after a
    /// second fill over the filled state, which must change nothing.
    fn assert_equals_message_flood(case: &str, installed: &[Dispatcher], topo: &Topology) {
        let mut flooded = installed.to_vec();
        let mut filled = installed.to_vec();
        let flood_msgs = flood_subscriptions(&mut flooded, topo);
        for round in ["fill", "second fill"] {
            let direct_msgs = flood_subscriptions_direct(&mut filled, topo);
            assert_eq!(flood_msgs, direct_msgs, "{case}, {round}: message count");
            for node in topo.nodes() {
                let (f, d) = (&flooded[node.index()], &filled[node.index()]);
                assert_eq!(f.table(), d.table(), "{case}, {round}: table of {node}");
            }
        }
    }

    #[test]
    fn direct_fill_equals_message_flood() {
        let space = crate::pattern::PatternSpace::new(12, 3);

        // Random trees and subscription draws.
        for seed in 1..=6u64 {
            let factory = RngFactory::new(seed);
            let topo = Topology::random_tree(40, 4, &mut factory.stream("topology"));
            let mut subs_rng = factory.stream("subscriptions");
            let mut ds = fresh(&topo);
            for d in ds.iter_mut() {
                for p in space.random_subscriptions(2, &mut subs_rng) {
                    d.subscribe_local(p, &[]);
                }
            }
            assert_equals_message_flood(&format!("seed {seed}"), &ds, &topo);
        }

        // The edges the bulk pass must leave out: a pattern whose only
        // subscriber is the root (no edge carries it upwards), one
        // whose only subscriber is a leaf (no edge on the leaf's path
        // carries it downwards), alone and beside a widely subscribed
        // pattern — at word boundaries of the pattern bitset.
        let factory = RngFactory::new(7);
        let topo = Topology::random_tree(40, 4, &mut factory.stream("topology"));
        let leaf = topo
            .nodes()
            .find(|&v| v.index() != 0 && topo.degree(v) == 1)
            .expect("a tree has a leaf besides its root");
        for with_crowd in [false, true] {
            let mut ds = fresh(&topo);
            ds[0].subscribe_local(PatternId::new(63), &[]);
            ds[leaf.index()].subscribe_local(PatternId::new(64), &[]);
            if with_crowd {
                for d in ds.iter_mut().step_by(3) {
                    d.subscribe_local(PatternId::new(130), &[]);
                }
            }
            assert_equals_message_flood(
                &format!("root-only and leaf-only, crowd {with_crowd}"),
                &ds,
                &topo,
            );
        }

        // A degree-12 tree: dispatchers 1 and 2 have twelve neighbors,
        // so their tables use the wide row layout.
        let mut wide = Topology::new(40, 12);
        for i in 1..40u32 {
            wide.add_link(NodeId::new((i - 1) / 11), NodeId::new(i))
                .unwrap();
        }
        assert_eq!(wide.degree(NodeId::new(1)), 12);
        let mut subs_rng = factory.stream("subscriptions");
        let mut ds = fresh(&wide);
        for d in ds.iter_mut() {
            for p in space.random_subscriptions(2, &mut subs_rng) {
                d.subscribe_local(p, &[]);
            }
        }
        assert_equals_message_flood("degree 12", &ds, &wide);

        // Several clients per dispatcher: the fill sees the aggregate.
        let clients: Vec<Vec<Vec<PatternId>>> = (0..topo.len())
            .map(|_| {
                (0..5)
                    .map(|_| space.random_subscriptions(2, &mut subs_rng))
                    .collect()
            })
            .collect();
        let mut ds = fresh(&topo);
        install_client_subscriptions(&mut ds, &clients);
        assert_equals_message_flood("five clients", &ds, &topo);

        // Rebuilding after a link swap: dispatchers that carry the old
        // tree's routes must end where a flood of the new tree does.
        flood_subscriptions_direct(&mut ds, &topo);
        let plan = eps_overlay::plan_reconfiguration(&topo, &mut factory.stream("reconfig"))
            .expect("a 40-node tree has a link to swap");
        let mut swapped = topo.clone();
        swapped.remove_link(plan.broken).unwrap();
        swapped
            .add_link(plan.replacement.0, plan.replacement.1)
            .unwrap();
        let mut installed = fresh(&swapped);
        install_client_subscriptions(&mut installed, &clients);
        let mut flooded = installed;
        let flood_msgs = flood_subscriptions(&mut flooded, &swapped);
        assert_eq!(rebuild_subscription_routes(&mut ds, &swapped), flood_msgs);
        for node in swapped.nodes() {
            let (f, d) = (&flooded[node.index()], &ds[node.index()]);
            assert_eq!(f.table(), d.table(), "rebuild: table of {node}");
        }
    }

    #[test]
    fn flood_message_count_is_bounded_by_tree_size() {
        let (mut ds, topo) = build(50, 6);
        let p = PatternId::new(1);
        ds[0].subscribe_local(p, &[]);
        let messages = flood_subscriptions(&mut ds, &topo);
        // One subscription travelling a 50-node tree crosses exactly
        // 49 links.
        assert_eq!(messages, 49);
    }
}
