//! Topological reconfiguration: a link breaks and is later replaced by
//! another link that keeps the overlay connected.
//!
//! This reproduces the event-loss *generator* used by the paper's
//! Section IV-B reconfiguration scenarios (based on the protocol of
//! their reference \[7\]): a reconfiguration is "the breakage of a link,
//! and its replacement with another that maintains the network
//! connected", with the overlay repaired in 0.1 s. Reconfigurations
//! are triggered every `ρ` seconds.

use eps_sim::Rng;

use crate::node::{LinkId, NodeId};
use crate::topology::Topology;

/// A planned reconfiguration: which link breaks and which replaces it.
///
/// # Examples
///
/// ```
/// use eps_overlay::{plan_reconfiguration, Topology};
/// use eps_sim::RngFactory;
///
/// let mut rng = RngFactory::new(5).stream("reconfig");
/// let mut topo = Topology::random_tree(30, 4, &mut rng);
/// let plan = plan_reconfiguration(&topo, &mut rng).unwrap();
/// topo.remove_link(plan.broken).unwrap();
/// assert!(!topo.is_connected());
/// topo.add_link(plan.replacement.0, plan.replacement.1).unwrap();
/// assert!(topo.is_tree());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconfigPlan {
    /// The link that breaks.
    pub broken: LinkId,
    /// The endpoints of the replacement link (one per component).
    pub replacement: (NodeId, NodeId),
}

/// Plans a random reconfiguration of a tree topology.
///
/// Picks a uniformly random link to break, and a replacement link
/// joining a uniformly random spare-degree node from each of the two
/// resulting components. Returns `None` if the topology has no links
/// (a single-node overlay cannot reconfigure).
///
/// The replacement is guaranteed to restore a tree with the same
/// degree bound; a node with spare degree always exists in a component
/// of a degree-bounded tree (every component with at least two nodes
/// has a leaf, and an isolated node has degree zero).
pub fn plan_reconfiguration(topo: &Topology, rng: &mut Rng) -> Option<ReconfigPlan> {
    let broken = rng.choose_iter(topo.links())?;
    let mut scratch = topo.clone();
    scratch
        .remove_link(broken)
        .expect("chosen link exists in the topology");
    let comp_a = scratch.component_of(broken.a());
    let comp_b = scratch.component_of(broken.b());
    debug_assert_eq!(comp_a.len() + comp_b.len(), topo.len());
    let pick = |comp: &[NodeId], rng: &mut Rng| -> NodeId {
        rng.choose_iter(
            comp.iter()
                .copied()
                .filter(|&n| scratch.degree(n) < scratch.max_degree()),
        )
        .expect("a degree-bounded tree component always has a spare-degree node")
    };
    let from_a = pick(&comp_a, rng);
    let from_b = pick(&comp_b, rng);
    Some(ReconfigPlan {
        broken,
        replacement: (from_a, from_b),
    })
}

/// Plans a link that joins two of the currently disconnected
/// components, or `None` if the topology is already connected.
///
/// Used by the *overlapping* reconfiguration scenario (ρ smaller than
/// the repair delay), where a repair may fire while other links are
/// still broken: each repair event reconnects two components chosen at
/// repair time, so the overlay converges back to a tree once all
/// pending repairs have fired.
pub fn plan_reconnection(topo: &Topology, rng: &mut Rng) -> Option<(NodeId, NodeId)> {
    // Label components by BFS.
    let mut label = vec![usize::MAX; topo.len()];
    let mut count = 0usize;
    for n in topo.nodes() {
        if label[n.index()] == usize::MAX {
            for m in topo.component_of(n) {
                label[m.index()] = count;
            }
            count += 1;
        }
    }
    if count < 2 {
        return None;
    }
    // Join two distinct random components at spare-degree nodes.
    let comp_x = rng.random_range(0..count);
    let comp_y = {
        let raw = rng.random_range(0..count - 1);
        if raw >= comp_x {
            raw + 1
        } else {
            raw
        }
    };
    let pick = |comp: usize, rng: &mut Rng| -> NodeId {
        rng.choose_iter(
            topo.nodes()
                .filter(|&n| label[n.index()] == comp && topo.degree(n) < topo.max_degree()),
        )
        .expect("a degree-bounded forest component always has a spare-degree node")
    };
    Some((pick(comp_x, rng), pick(comp_y, rng)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eps_sim::check::forall;
    use eps_sim::RngFactory;

    #[test]
    fn reconnection_none_when_connected() {
        let mut rng = RngFactory::new(21).stream("reconfig");
        let topo = Topology::random_tree(20, 4, &mut rng);
        assert!(plan_reconnection(&topo, &mut rng).is_none());
    }

    #[test]
    fn reconnection_repairs_multi_break() {
        // Overlapping breaks followed by as many reconnections always
        // converge back to a tree.
        forall("reconnection_repairs_multi_break", 256, |rng| {
            let mut topo = Topology::random_tree(rng.random_range(3..80usize), 4, rng);
            let mut broken = 0;
            for _ in 0..rng.random_range(1..6usize) {
                let Some(link) = rng.choose_iter(topo.links()) else {
                    break;
                };
                topo.remove_link(link).unwrap();
                broken += 1;
            }
            assert!(!topo.is_connected());
            for _ in 0..broken {
                let (x, y) = plan_reconnection(&topo, rng).unwrap();
                topo.add_link(x, y).unwrap();
            }
            assert!(topo.is_tree());
        });
    }

    #[test]
    fn plan_restores_a_tree() {
        let mut rng = RngFactory::new(11).stream("reconfig");
        for trial in 0..50 {
            let mut topo = Topology::random_tree(50 + trial % 10, 4, &mut rng);
            let plan = plan_reconfiguration(&topo, &mut rng).unwrap();
            topo.remove_link(plan.broken).unwrap();
            assert!(!topo.is_connected());
            topo.add_link(plan.replacement.0, plan.replacement.1)
                .unwrap();
            assert!(topo.is_tree(), "trial {trial} did not restore a tree");
            assert!(topo.nodes().all(|n| topo.degree(n) <= 4));
        }
    }

    #[test]
    fn replacement_endpoints_span_the_cut() {
        let mut rng = RngFactory::new(12).stream("reconfig");
        let topo = Topology::random_tree(40, 4, &mut rng);
        let plan = plan_reconfiguration(&topo, &mut rng).unwrap();
        let mut scratch = topo.clone();
        scratch.remove_link(plan.broken).unwrap();
        let comp_a = scratch.component_of(plan.broken.a());
        let (x, y) = plan.replacement;
        assert_ne!(comp_a.contains(&x), comp_a.contains(&y));
    }

    #[test]
    fn single_node_topology_has_no_plan() {
        let mut rng = RngFactory::new(13).stream("reconfig");
        let topo = Topology::random_tree(1, 4, &mut rng);
        assert_eq!(plan_reconfiguration(&topo, &mut rng), None);
    }

    #[test]
    fn two_node_topology_replans_same_link() {
        let mut rng = RngFactory::new(14).stream("reconfig");
        let topo = Topology::random_tree(2, 4, &mut rng);
        let plan = plan_reconfiguration(&topo, &mut rng).unwrap();
        // Only one possible replacement: the same two nodes.
        let l = LinkId::new(plan.replacement.0, plan.replacement.1);
        assert_eq!(l, plan.broken);
    }

    #[test]
    fn repeated_reconfigurations_keep_invariants() {
        // A storm of any length leaves a degree-bounded tree behind.
        forall("repeated_reconfigurations_keep_invariants", 256, |rng| {
            let mut topo = Topology::random_tree(rng.random_range(2..100usize), 4, rng);
            for _ in 0..rng.random_range(0..500usize) {
                let plan = plan_reconfiguration(&topo, rng).unwrap();
                topo.remove_link(plan.broken).unwrap();
                topo.add_link(plan.replacement.0, plan.replacement.1)
                    .unwrap();
            }
            assert!(topo.is_tree());
            assert!(topo.nodes().all(|n| topo.degree(n) <= 4));
        });
    }
}
