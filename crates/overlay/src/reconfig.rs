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

use crate::node::NodeId;
use crate::topology::Topology;

/// Plans a link that joins two of the currently disconnected
/// components, or `None` if the topology is already connected.
///
/// The runner breaks a uniformly random link and, after the repair
/// delay, calls this to replace it. Under the *overlapping* scenario
/// (ρ smaller than the repair delay) a repair may fire while other
/// links are still broken: each repair event reconnects two components
/// chosen at repair time, so the overlay converges back to a tree once
/// all pending repairs have fired. Components are numbered by their
/// lowest node, and each end is a uniformly random node with spare
/// degree in its component; one exists in every component of a
/// degree-bounded forest (a component of two or more nodes has a leaf,
/// and an isolated node has degree zero).
///
/// # Examples
///
/// ```
/// use eps_overlay::{plan_reconnection, OverlayKind, Topology};
/// use eps_sim::RngFactory;
///
/// let mut rng = RngFactory::new(5).stream("reconfig");
/// let mut topo = Topology::build(OverlayKind::Tree, 30, 4, &mut rng);
/// let broken = rng.choose_iter(topo.links()).unwrap();
/// topo.remove_link(broken).unwrap();
/// let (x, y) = plan_reconnection(&topo, &mut rng).unwrap();
/// topo.add_link(x, y).unwrap();
/// assert!(topo.is_tree());
/// ```
pub fn plan_reconnection(topo: &Topology, rng: &mut Rng) -> Option<(NodeId, NodeId)> {
    let walk = topo.breadth_first(topo.nodes());
    let trees: Vec<NodeId> = walk.trees().collect();
    let count = trees.len();
    if count < 2 {
        return None;
    }
    let root = walk.roots();
    // Join two distinct random components at spare-degree nodes.
    let comp_x = rng.random_range(0..count);
    let raw = rng.random_range(0..count - 1);
    let comp_y = raw + usize::from(raw >= comp_x);
    let pick = |comp: usize, rng: &mut Rng| -> NodeId {
        rng.choose_iter(
            topo.nodes()
                .filter(|&n| root[n.index()] == trees[comp] && topo.degree(n) < topo.max_degree()),
        )
        .expect("a degree-bounded forest component always has a spare-degree node")
    };
    Some((pick(comp_x, rng), pick(comp_y, rng)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::OverlayKind;
    use eps_sim::check::forall;
    use eps_sim::RngFactory;

    fn tree(n: usize, rng: &mut Rng) -> Topology {
        Topology::build(OverlayKind::Tree, n, 4, rng)
    }

    #[test]
    fn reconnection_none_when_connected() {
        let mut rng = RngFactory::new(21).stream("reconfig");
        for n in [1, 20] {
            let topo = tree(n, &mut rng);
            assert!(plan_reconnection(&topo, &mut rng).is_none());
        }
    }

    #[test]
    fn reconnection_repairs_multi_break() {
        // Overlapping breaks followed by as many reconnections always
        // converge back to a tree.
        forall("reconnection_repairs_multi_break", 256, |rng| {
            let mut topo = tree(rng.random_range(3..80usize), rng);
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
    fn a_break_and_its_repair_keep_a_degree_bounded_tree() {
        // The runner's reconfiguration: a random link breaks, and the
        // repair joins one node on each side of the cut. A storm of any
        // length leaves a degree-bounded tree behind.
        forall("a_break_and_its_repair_keep_a_tree", 256, |rng| {
            let mut topo = tree(rng.random_range(2..100usize), rng);
            for _ in 0..rng.random_range(0..500usize) {
                let broken = rng.choose_iter(topo.links()).unwrap();
                topo.remove_link(broken).unwrap();
                assert!(!topo.is_connected());
                let (x, y) = plan_reconnection(&topo, rng).unwrap();
                let side_a = topo.breadth_first([broken.a()]).order;
                assert_ne!(side_a.contains(&x), side_a.contains(&y));
                topo.add_link(x, y).unwrap();
            }
            assert!(topo.is_tree());
            assert!(topo.nodes().all(|n| topo.degree(n) <= 4));
        });
    }

    #[test]
    fn two_node_topology_repairs_the_same_link() {
        let mut rng = RngFactory::new(14).stream("reconfig");
        let mut topo = tree(2, &mut rng);
        let broken = rng.choose_iter(topo.links()).unwrap();
        topo.remove_link(broken).unwrap();
        // Only one possible replacement: the same two nodes.
        let (x, y) = plan_reconnection(&topo, &mut rng).unwrap();
        assert_eq!(crate::LinkId::new(x, y), broken);
    }
}
