//! Network assembly helpers: instant subscription flooding.
//!
//! The paper's simulations run "with stable subscription information
//! (i.e., no (un)subscriptions are being issued)". These helpers compute
//! the state the subscription-forwarding protocol reaches at quiescence
//! *outside* of virtual time, in closed form, producing the stable
//! routing state the event workload then runs on. The same fill rebuilds
//! routes after a topological reconfiguration completes.

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

/// Roots every component of an acyclic `topology` at its lowest node
/// id, by BFS in stored neighbor order (a tree at node 0): each node's
/// parent (a root is its own) and its component's root.
///
/// # Panics
///
/// Panics if the topology has a cycle.
fn root_forest(topology: &Topology) -> (Vec<u32>, Vec<u32>) {
    let n = topology.len();
    let (mut parent, mut root) = (vec![u32::MAX; n], vec![0; n]);
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    let mut components = 0;
    for r in 0..n as u32 {
        if parent[r as usize] == u32::MAX {
            components += 1;
            (parent[r as usize], root[r as usize]) = (r, r);
            queue.push_back(NodeId::new(r));
        }
        while let Some(v) = queue.pop_front() {
            for &w in topology.neighbors(v) {
                if parent[w.index()] == u32::MAX {
                    (parent[w.index()], root[w.index()]) = (v.index() as u32, r);
                    queue.push_back(w);
                }
            }
        }
    }
    assert_eq!(
        topology.link_count() + components,
        n,
        "direct subscription fill requires an acyclic overlay"
    );
    (parent, root)
}

/// Walks, pattern by pattern, the paths from each pattern's subscribers
/// up to their roots (`locals`: sorted (pattern, subscriber) pairs), in
/// O(subscribers · depth) per pattern, and calls `visit(p, v, enclosing)`
/// once for every node `v` on them — `cnt(v) > 0` — with `enclosing`
/// when all subscribers of `v`'s component lie in `v`'s subtree.
fn walk_paths(
    locals: &[(PatternId, NodeId)],
    (parent, root): (&[u32], &[u32]),
    mut visit: impl FnMut(PatternId, usize, bool),
) {
    let mut cnt: Vec<u32> = vec![0; parent.len()];
    let mut touched: Vec<usize> = Vec::new();
    for subs in locals.chunk_by(|a, b| a.0 == b.0) {
        for &(_, s) in subs {
            let mut v = s.index();
            loop {
                touched.extend((cnt[v] == 0).then_some(v));
                cnt[v] += 1;
                if parent[v] as usize == v {
                    break;
                }
                v = parent[v] as usize;
            }
        }
        for &v in &touched {
            visit(subs[0].0, v, cnt[v] == cnt[root[v] as usize]);
        }
        for v in touched.drain(..) {
            cnt[v] = 0;
        }
    }
}

/// Turns per-node counts into the start of each node's bucket; returns
/// the total. Writing an entry at `starts[v]` and incrementing it leaves
/// `starts[v]` at the end of `v`'s bucket, the start of `v + 1`'s.
fn bucket_starts(counts: &mut [u32]) -> usize {
    let mut total = 0;
    for count in counts {
        (*count, total) = (total, total + *count);
    }
    total as usize
}

/// Computes, without exchanging any messages, the routing state the
/// subscription-forwarding protocol reaches at quiescence on an
/// *acyclic* overlay — a tree or a forest — when every dispatcher
/// announces its local subscriptions to every neighbor: each table, and
/// with it which subscriptions each dispatcher has sent (the state that
/// gates unsubscription). Returns the number of subscription messages
/// that flood would have exchanged.
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
/// of that edge; the fixpoint follows by induction along each path.) A
/// forest floods each component on its own: each gets its own root and
/// its own `total`. The fill computes both predicates directly:
///
/// 1. *Upward, pattern-major.* `cnt(v) > 0` holds only on the paths
///    from `p`'s subscribers to the root, so each pattern walks those
///    paths (O(subscribers · depth), not O(N)): each node on them is a
///    child route `(p, v)` of its parent and, where `cnt(v) = total`,
///    an exception of its own. A first walk counts them per node, a
///    second writes them into per-node buckets of two exact-size
///    arrays, each bucket in pattern order.
/// 2. *Node-major.* `total − cnt(v) > 0` holds for every pattern of
///    `v`'s component but `v`'s few exceptions: one bitset, built once
///    per component and shared as one `Arc`, is the default route of
///    every table towards its parent. Each table is then written once,
///    from its local rows, its bucket and that default
///    ([`crate::SubscriptionTable`] explains the layout).
///
/// Neither the order of the passes nor that of the writes shows in the
/// result: tables are *sets* of (pattern, neighbor) pairs, read only
/// through their contents, and each pair comes from one predicate. The
/// tables equal a message-at-a-time flood's and the count is the one it
/// would exchange; the tests pin both, and a rebuild
/// ([`rebuild_subscription_routes`]) of a filled population changes
/// nothing.
///
/// Local subscriptions must already be recorded (e.g. via
/// [`install_client_subscriptions`]), and no route learned from a
/// neighbor (a filled population is rebuilt through
/// [`rebuild_subscription_routes`]); dispatcher `i` must correspond to
/// topology node `i`.
///
/// # Panics
///
/// Panics if `hosts.len() != topology.len()`, the topology has a cycle,
/// a table already holds a neighbor, or a table would route to more
/// than [`crate::MAX_NEIGHBORS`] neighbors.
pub fn flood_subscriptions_direct<H: DispatcherHost>(hosts: &mut [H], topology: &Topology) -> u64 {
    assert_eq!(
        hosts.len(),
        topology.len(),
        "one dispatcher per topology node"
    );
    let n = hosts.len();
    let (parent, root) = root_forest(topology);
    let forest = (&parent[..], &root[..]);
    let mut locals: Vec<(PatternId, NodeId)> = Vec::new();
    for (i, h) in hosts.iter().enumerate() {
        let node = NodeId::new(i as u32);
        locals.extend(h.dispatcher().table().local_patterns().map(|p| (p, node)));
    }
    locals.sort_unstable();

    // Pass 1, pattern-major: count, then bucket, each node's child
    // routes (kept by its parent) and exceptions (its own), and the
    // patterns subscribed in each component with more than one node.
    let (mut child_end, mut except_end) = (vec![0u32; n], vec![0u32; n]);
    walk_paths(&locals, forest, |_, v, enclosing| {
        if parent[v] as usize != v {
            child_end[parent[v] as usize] += 1;
            except_end[v] += u32::from(enclosing);
        }
    });
    let mut children = vec![(PatternId::new(0), NodeId::new(0)); bucket_starts(&mut child_end)];
    let mut excepts = vec![PatternId::new(0); bucket_starts(&mut except_end)];
    let words = locals.last().map_or(0, |(p, _)| p.index() / 64 + 1);
    let mut subscribed: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    walk_paths(&locals, forest, |p, v, enclosing| {
        let u = parent[v] as usize;
        if u != v {
            children[child_end[u] as usize] = (p, NodeId::new(v as u32));
            child_end[u] += 1;
            if enclosing {
                excepts[except_end[v] as usize] = p;
                except_end[v] += 1;
            }
        } else if topology.degree(NodeId::new(v as u32)) > 0 {
            let bits = subscribed.entry(v as u32).or_insert_with(|| vec![0; words]);
            bits[p.index() / 64] |= 1 << (p.index() % 64);
        }
    });
    drop(locals);
    let subscribed: BTreeMap<u32, PatternBits> = (subscribed.into_iter())
        .map(|(r, bits)| (r, PatternBits::from(bits)))
        .collect();

    // Pass 2, node-major: each table written once, from its bucket of
    // child routes and its default route towards its parent — the
    // component's patterns minus its exceptions.
    let mut messages = children.len() as u64;
    let (mut c, mut e) = (0, 0);
    for (v, h) in hosts.iter_mut().enumerate() {
        let (own, except) = (
            &children[c..child_end[v] as usize],
            &excepts[e..except_end[v] as usize],
        );
        (c, e) = (child_end[v] as usize, except_end[v] as usize);
        let default = (subscribed.get(&root[v]))
            .filter(|_| parent[v] as usize != v)
            .map(|bits| (NodeId::new(parent[v]), bits, except));
        if let Some((_, bits, except)) = default {
            messages += (bits.count() - except.len()) as u64;
        }
        h.dispatcher_mut().table_mut().fill(own, default);
    }
    messages
}

/// Records `clients[i][c]` as the subscriptions of client `c` of
/// dispatcher `i` without propagating anything. The dispatcher's
/// aggregate filter (its table's `Local` bits) becomes the union of
/// its clients' patterns; with one client per dispatcher these are
/// exactly its patterns.
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
/// reconfigured) acyclic topology: clears neighbor-derived state on
/// every dispatcher, then fills the flooded routes of the local
/// subscriptions in closed form ([`flood_subscriptions_direct`]). While
/// overlapping breaks are unrepaired the topology is a forest, and each
/// component gets the routes of its own subscribers.
///
/// This models the *completed* state of the reconfiguration protocol
/// of the paper's reference \[7\]; the disruption window between a link
/// break and this rebuild is where events are lost.
pub fn rebuild_subscription_routes<H: DispatcherHost>(hosts: &mut [H], topology: &Topology) -> u64 {
    for h in hosts.iter_mut() {
        h.dispatcher_mut().reset_routing_state();
    }
    flood_subscriptions_direct(hosts, topology)
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

    /// The oracle of the direct fill: the subscription-forwarding
    /// protocol run message at a time to quiescence, every dispatcher's
    /// *local* subscriptions propagated until no new table entries
    /// appear. Local subscriptions must already be recorded with no
    /// neighbor routes (recording a local pattern with no neighbors
    /// sends nothing, so the flood starts by announcing each one to
    /// every neighbor). Returns the number of subscription messages
    /// exchanged.
    fn flood_subscriptions(hosts: &mut [Dispatcher], topology: &Topology) -> u64 {
        assert_eq!(hosts.len(), topology.len());
        let mut queue: VecDeque<(NodeId, NodeId, PatternId)> = VecDeque::new();
        for node in topology.nodes() {
            for p in hosts[node.index()].table().local_patterns() {
                for &to in topology.neighbors(node) {
                    queue.push_back((to, node, p));
                }
            }
        }
        let mut messages = 0u64;
        while let Some((to, from, pattern)) = queue.pop_front() {
            messages += 1;
            let neighbors = topology.neighbors(to);
            for next in hosts[to.index()].on_subscribe(pattern, from, neighbors) {
                queue.push_back((next, to, pattern));
            }
        }
        messages
    }

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
        for (d, patterns) in ds.iter_mut().zip(subs) {
            for &p in patterns {
                d.subscribe_local(p, &[]);
            }
        }
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
                let next: Vec<NodeId> = ds[cur.index()].table().neighbors_for(p, prev).collect();
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
    /// rebuild of the filled state, which must change nothing.
    fn assert_equals_message_flood(case: &str, installed: &[Dispatcher], topo: &Topology) {
        let mut flooded = installed.to_vec();
        let mut filled = installed.to_vec();
        let flood_msgs = flood_subscriptions(&mut flooded, topo);
        for round in ["fill", "rebuild"] {
            let direct_msgs = if round == "fill" {
                flood_subscriptions_direct(&mut filled, topo)
            } else {
                rebuild_subscription_routes(&mut filled, topo)
            };
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

        // A degree-12 tree: dispatchers 1 and 2 have twelve neighbors.
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
    fn direct_fill_equals_message_flood_on_a_wide_hub() {
        // Hub 1 has 63 tree neighbors, as many as a row holds: its
        // leaves 2..=63 and its parent 100 (the tree is rooted at 0,
        // behind 100), whose slot sorts after every leaf's — so the
        // hub's default route is the row's top bit.
        let mut hub = Topology::new(101, crate::MAX_NEIGHBORS);
        hub.add_link(NodeId::new(0), NodeId::new(100)).unwrap();
        hub.add_link(NodeId::new(100), NodeId::new(1)).unwrap();
        for leaf in 2..=63u32 {
            hub.add_link(NodeId::new(1), NodeId::new(leaf)).unwrap();
        }
        for deep in 64..100u32 {
            hub.add_link(NodeId::new(deep - 62), NodeId::new(deep))
                .unwrap();
        }
        assert!(hub.is_tree());
        assert_eq!(hub.degree(NodeId::new(1)), crate::MAX_NEIGHBORS);
        let space = PatternSpace::new(12, 3);
        let mut rng = RngFactory::new(8).stream("subscriptions");
        let everywhere = PatternId::new(11);
        let mut ds = fresh(&hub);
        for d in ds.iter_mut() {
            d.subscribe_local(everywhere, &[]);
            for p in space.random_subscriptions(2, &mut rng) {
                d.subscribe_local(p, &[]);
            }
        }
        assert_equals_message_flood("wide hub", &ds, &hub);
        flood_subscriptions_direct(&mut ds, &hub);
        assert_eq!(
            ds[1].table().neighbors_for(everywhere, None).count(),
            crate::MAX_NEIGHBORS
        );
    }

    #[test]
    fn direct_fill_equals_message_flood_on_a_forest() {
        // Overlapping breaks leave the routing view a forest: each
        // component floods its own subscribers, and a pattern subscribed
        // in one component is unknown in the others. Three breaks cut a
        // random tree into four parts; a fifth is a lone node.
        let factory = RngFactory::new(9);
        let mut forest = Topology::random_tree(40, 4, &mut factory.stream("topology"));
        let mut rng = factory.stream("breaks");
        for _ in 0..3 {
            let links: Vec<_> = forest.links().collect();
            forest.remove_link(*rng.choose(&links).unwrap()).unwrap();
        }
        let lone = forest
            .nodes()
            .find(|&v| forest.degree(v) == 1)
            .expect("a forest of 40 nodes has a leaf");
        let link = forest
            .links()
            .find(|l| l.a() == lone || l.b() == lone)
            .unwrap();
        forest.remove_link(link).unwrap();
        assert_eq!(forest.link_count(), 35, "five components");
        let space = PatternSpace::new(12, 3);
        let mut subs_rng = factory.stream("subscriptions");
        let mut ds = fresh(&forest);
        for d in ds.iter_mut() {
            for p in space.random_subscriptions(2, &mut subs_rng) {
                d.subscribe_local(p, &[]);
            }
        }
        // A pattern only the lone node subscribes stays local to it.
        ds[lone.index()].subscribe_local(PatternId::new(40), &[]);
        assert_equals_message_flood("forest", &ds, &forest);

        // Rebuilding on the forest from the old tree's routes.
        let tree = Topology::random_tree(40, 4, &mut factory.stream("topology"));
        flood_subscriptions_direct(&mut ds, &tree);
        let mut flooded = ds.clone();
        for d in flooded.iter_mut() {
            d.reset_routing_state();
        }
        let flood_msgs = flood_subscriptions(&mut flooded, &forest);
        assert_eq!(rebuild_subscription_routes(&mut ds, &forest), flood_msgs);
        for node in forest.nodes() {
            let (f, d) = (&flooded[node.index()], &ds[node.index()]);
            assert_eq!(f.table(), d.table(), "forest rebuild: table of {node}");
        }
        for v in forest.nodes().filter(|&v| v != lone) {
            assert!(!ds[v.index()].table().knows(PatternId::new(40)));
        }
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn direct_fill_refuses_a_cycle() {
        let mut ring = Topology::new(3, 2);
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            ring.add_link(NodeId::new(a), NodeId::new(b)).unwrap();
        }
        flood_subscriptions_direct(&mut fresh(&ring), &ring);
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
