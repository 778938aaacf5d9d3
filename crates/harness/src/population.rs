//! Shared population assembly: everything a runner needs before any
//! message flows — the overlay tree, the content model, the
//! [`SimNode`] actors with their subscriptions installed and flooded,
//! and the pattern → subscribers index.
//!
//! Hoisted out of the simulation runner so the real-socket
//! runtime (`eps-net`) boots the *identical* population for the same
//! [`ScenarioConfig`]: same seed → same topology, same subscriptions,
//! same per-node workload streams — which is what makes sim-vs-wire
//! cross-validation meaningful. Every random draw here comes from a
//! named stream of the config's master seed, so building a population
//! consumes nothing from the streams the runners use afterwards.

use eps_overlay::{NodeId, RoutingView, Topology};
use eps_pubsub::{
    flood_subscriptions_direct, install_client_subscriptions, ClientId, DispatcherConfig,
    DispatcherHost, PatternId, PatternSpace,
};
use eps_sim::RngFactory;

use crate::config::{ScenarioConfig, MAX_PATTERNS_PER_EVENT};
use crate::node::SimNode;

/// A fully assembled, quiescent population: subscriptions are
/// installed and flooded, no events have been published yet.
pub struct Population {
    /// The physical overlay graph the dispatchers live on: a tree in
    /// the paper's scenarios, possibly cyclic for the complex-network
    /// overlays. Link loss, breakage, and repair act here.
    pub topology: Topology,
    /// The routing view derived from the physical graph: the spanning
    /// tree events and subscriptions are routed on. Identical to
    /// `topology` (the identity view) when the physical graph is a
    /// tree.
    pub view: RoutingView,
    /// The content model events and subscriptions are drawn from.
    pub space: PatternSpace,
    /// One node actor per dispatcher, indexed by [`NodeId::index`].
    /// Each dispatcher holds its clients' subscriptions and, as its
    /// table's local patterns, their *aggregate* filter (the distinct
    /// union): what routing and cross-link replication see.
    pub nodes: Vec<SimNode>,
    /// Current client-subscriptions of each pattern, indexed by
    /// [`eps_pubsub::PatternId::index`]; each entry is a sorted list
    /// of `(node, client)` pairs.
    pub subscribers_of: Vec<Vec<(NodeId, ClientId)>>,
    /// Subscription messages the setup flood would have sent to reach
    /// quiescence — the wire cost of installing the aggregated
    /// filters. Grows with distinct patterns per node, not with the
    /// client count.
    pub setup_subscription_msgs: u64,
}

/// The cross-replication targets of `node`: its physical neighbors the
/// routing view does not use, each paired with that neighbor's current
/// local subscriptions (so the sender can replicate only events the
/// chord partner has an interest in). Empty on tree overlays, where
/// the view uses every physical link.
pub fn cross_targets_for(
    node: NodeId,
    graph: &Topology,
    view: &RoutingView,
    nodes: &[SimNode],
) -> Vec<(NodeId, Vec<PatternId>)> {
    view.cross_neighbors(graph, node)
        .into_iter()
        .map(|c| (c, local_patterns(&nodes[c.index()])))
        .collect()
}

/// A node's current aggregate filter: its dispatcher's local patterns,
/// ascending.
pub(crate) fn local_patterns(node: &SimNode) -> Vec<PatternId> {
    node.dispatcher().table().local_patterns().collect()
}

/// Builds the population a scenario (simulated or networked) starts
/// from. Deterministic in `config.seed`.
pub fn build_population(config: &ScenarioConfig) -> Population {
    let factory = RngFactory::new(config.seed);
    let topology = Topology::build(
        config.overlay,
        config.nodes,
        config.max_degree,
        &mut factory.stream("topology"),
    );
    let view = RoutingView::derive(&topology);
    let space = PatternSpace::with_zipf(
        config.pattern_universe,
        MAX_PATTERNS_PER_EVENT,
        config.zipf_s,
    );

    // Route recording and each cache index are only paid for when the
    // algorithm reads them.
    let dispatcher_config = DispatcherConfig {
        cache_capacity: config.buffer_size,
        record_routes: config.algorithm.needs_route_recording(),
        cache_indexes: config.algorithm.cache_indexes(),
        eviction: config.eviction,
    };

    // Tie the `Lost` capacity bound to the event-buffer size β
    // unless the scenario pinned it explicitly: there is no point
    // remembering more losses than a full cache could serve. A
    // zero β (caching disabled) keeps the library default — the
    // bound must stay positive.
    let mut gossip_config = config.gossip;
    if gossip_config.lost_capacity.is_none() && config.buffer_size > 0 {
        gossip_config.lost_capacity = Some(config.buffer_size);
    }

    // Stable subscriptions, flooded to quiescence before the
    // workload starts (the paper's setting). Drawn per client, in
    // node-major order on one stream: with one client per node this
    // consumes exactly the draws the pre-client-layer population did.
    let mut subs_rng = factory.stream("subscriptions");
    let client_subscriptions: Vec<Vec<Vec<PatternId>>> = (0..config.nodes)
        .map(|_| {
            (0..config.clients_per_node)
                .map(|_| space.random_subscriptions(config.pi_max, &mut subs_rng))
                .collect()
        })
        .collect();
    let mut nodes: Vec<SimNode> = topology
        .nodes()
        .map(|id| {
            SimNode::new(
                id,
                dispatcher_config,
                config.algorithm.build(gossip_config),
                factory.indexed_stream("workload", id.index() as u64),
                config.gossip_interval,
            )
        })
        .collect();
    // The broker-level aggregate each dispatcher routes on is the
    // distinct union of its clients' patterns, kept by its table.
    install_client_subscriptions(&mut nodes, &client_subscriptions);
    // Closed-form fixpoint: one walk of each pattern's subscriber paths
    // and one write per table instead of a message-at-a-time flood,
    // the setup-time bottleneck at 10⁵–10⁶ nodes. State-identical to
    // the flood (pinned by the eps-pubsub equivalence tests and the
    // golden suite). Routing state lives on the view, which is a tree
    // by construction even when the physical graph is cyclic. The
    // returned message count is the flood's wire cost — aggregated
    // filters only, so it measures distinct patterns, never raw
    // client-subscription volume.
    let setup_subscription_msgs = flood_subscriptions_direct(&mut nodes, view.tree());
    for id in topology.nodes() {
        let targets = cross_targets_for(id, &topology, &view, &nodes);
        nodes[id.index()].set_cross_targets(targets);
    }

    let mut subscribers_of: Vec<Vec<(NodeId, ClientId)>> =
        vec![Vec::new(); config.pattern_universe as usize];
    for (i, per_client) in client_subscriptions.iter().enumerate() {
        for (c, subs) in per_client.iter().enumerate() {
            for &p in subs {
                subscribers_of[p.index()].push((NodeId::new(i as u32), ClientId::new(c as u32)));
            }
        }
    }

    Population {
        topology,
        view,
        space,
        nodes,
        subscribers_of,
        setup_subscription_msgs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every client's subscriptions, `[node][client] -> patterns`.
    fn client_subscriptions(pop: &Population, config: &ScenarioConfig) -> Vec<Vec<Vec<PatternId>>> {
        pop.nodes
            .iter()
            .map(|node| {
                (0..config.clients_per_node as u32)
                    .map(|c| node.client_patterns(ClientId::new(c)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_population() {
        let config = ScenarioConfig {
            nodes: 12,
            ..ScenarioConfig::default()
        };
        let a = build_population(&config);
        let b = build_population(&config);
        assert_eq!(
            a.nodes.iter().map(local_patterns).collect::<Vec<_>>(),
            b.nodes.iter().map(local_patterns).collect::<Vec<_>>()
        );
        assert_eq!(a.subscribers_of, b.subscribers_of);
        let links_a: Vec<_> = a.topology.links().collect();
        let links_b: Vec<_> = b.topology.links().collect();
        assert_eq!(links_a, links_b);
    }

    #[test]
    fn population_is_flooded_and_indexed() {
        let config = ScenarioConfig {
            nodes: 12,
            ..ScenarioConfig::default()
        };
        let pop = build_population(&config);
        assert_eq!(pop.nodes.len(), 12);
        assert!(pop.topology.is_tree());
        assert!(pop.setup_subscription_msgs > 0);
        // The subscribers index matches the installed subscriptions.
        for (i, per_client) in client_subscriptions(&pop, &config).iter().enumerate() {
            for (c, subs) in per_client.iter().enumerate() {
                assert!(!subs.is_empty());
                for &p in subs {
                    assert!(pop.subscribers_of[p.index()]
                        .contains(&(NodeId::new(i as u32), ClientId::new(c as u32))));
                }
            }
        }
    }

    #[test]
    fn one_client_population_matches_the_single_subscriber_model() {
        let config = ScenarioConfig {
            nodes: 12,
            ..ScenarioConfig::default()
        };
        let pop = build_population(&config);
        // The aggregate IS the single client's list.
        for (node, per_client) in pop.nodes.iter().zip(client_subscriptions(&pop, &config)) {
            assert_eq!(per_client.len(), 1);
            assert_eq!(local_patterns(node), per_client[0]);
        }
    }

    #[test]
    fn multi_client_aggregate_is_the_distinct_union() {
        let config = ScenarioConfig {
            nodes: 8,
            clients_per_node: 6,
            ..ScenarioConfig::default()
        };
        let pop = build_population(&config);
        let clients = client_subscriptions(&pop, &config);
        for (node, per_client) in pop.nodes.iter().zip(&clients) {
            let mut expected: Vec<PatternId> = per_client.iter().flatten().copied().collect();
            expected.sort_unstable();
            expected.dedup();
            // The dispatcher's routing filter holds exactly the union.
            assert_eq!(local_patterns(node), expected);
            let aggregate: Vec<PatternId> =
                node.dispatcher().clients().aggregate_patterns().collect();
            assert_eq!(aggregate, expected);
        }
        // More clients than patterns per node: aggregation must have
        // compressed at least one node's filter below the raw count.
        let raw: usize = clients.iter().flatten().flatten().count();
        let aggregated: usize = pop.nodes.iter().map(|n| local_patterns(n).len()).sum();
        assert!(aggregated < raw);
    }
    #[test]
    fn zipf_population_skews_subscriptions() {
        let uniform = build_population(&ScenarioConfig {
            nodes: 60,
            ..ScenarioConfig::default()
        });
        let skewed = build_population(&ScenarioConfig {
            nodes: 60,
            zipf_s: 1.5,
            ..ScenarioConfig::default()
        });
        let mass_low = |pop: &Population| -> usize {
            pop.subscribers_of
                .iter()
                .take(7)
                .map(Vec::len)
                .sum::<usize>()
        };
        assert!(mass_low(&skewed) > mass_low(&uniform));
    }
}
