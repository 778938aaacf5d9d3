//! The routing view: the spanning tree a run's dispatchers route on,
//! derived from (and layered over) the physical overlay graph.
//!
//! The dispatcher stack — subscription flooding, reverse-path event
//! forwarding, publisher-pull's recorded routes — assumes acyclicity.
//! Rather than teach every consumer about cycles, the harness derives
//! one [`RoutingView`] per run: a deterministic BFS spanning tree of
//! the physical [`Topology`]. Everything that *routes* (events,
//! subscriptions, digest routes) reads the view; everything *physical*
//! (link loss, delay, FIFO serialization, break/repair, the gossip
//! out-of-band channel, cross-link event replication) stays on the
//! graph.
//!
//! Two contracts make this refactor safe and deterministic:
//!
//! - **Identity on trees.** When the physical graph already is a tree,
//!   the view is a verbatim clone — same links *and the same neighbor
//!   order* — so every pinned tree-overlay golden stays byte-identical.
//! - **Deterministic BFS otherwise.** The spanning tree is a BFS from
//!   node 0 that visits neighbors in stored adjacency order, which the
//!   deterministic builders fix per seed.

use std::collections::VecDeque;

use crate::node::NodeId;
use crate::topology::Topology;

/// A spanning tree over a physical [`Topology`], used for routing.
///
/// The view is itself a `Topology` (always a tree on connected
/// inputs), so the subscription-flooding and route-rebuilding helpers
/// consume it unchanged.
///
/// # Examples
///
/// ```
/// use eps_overlay::{OverlayKind, RoutingView, Topology};
/// use eps_sim::RngFactory;
///
/// let factory = RngFactory::new(7);
/// let graph = Topology::build(OverlayKind::BarabasiAlbert, 50, 4, &mut factory.stream("topology"));
/// let view = RoutingView::derive(&graph);
/// assert!(view.tree().is_tree());
/// // Every view link is a physical link; the extra physical links are chords.
/// assert!(view.tree().links().all(|l| graph.has_link(l.a(), l.b())));
/// ```
#[derive(Clone, Debug)]
pub struct RoutingView {
    tree: Topology,
    identity: bool,
}

impl RoutingView {
    /// Derives the routing view of `graph`: a verbatim clone when the
    /// graph is already a tree (preserving neighbor order exactly), a
    /// deterministic BFS spanning tree from node 0 otherwise.
    ///
    /// On a disconnected input, the view spans node 0's component and
    /// leaves the rest isolated — the repair path re-derives after
    /// reconnection.
    pub fn derive(graph: &Topology) -> Self {
        if graph.is_tree() {
            return RoutingView {
                tree: graph.clone(),
                identity: true,
            };
        }
        let mut tree = Topology::new(graph.len(), graph.max_degree());
        let mut seen = vec![false; graph.len()];
        seen[0] = true;
        let mut queue = VecDeque::from([NodeId::new(0)]);
        while let Some(v) = queue.pop_front() {
            for &w in graph.neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    tree.add_link(v, w)
                        .expect("a BFS tree never exceeds the graph's degree bound");
                    queue.push_back(w);
                }
            }
        }
        RoutingView {
            tree,
            identity: false,
        }
    }

    /// The spanning tree itself, in the shape every routing consumer
    /// already takes.
    pub fn tree(&self) -> &Topology {
        &self.tree
    }

    /// The routing neighbors of `n` — the subset of physical neighbors
    /// events and subscriptions flow over.
    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        self.tree.neighbors(n)
    }

    /// `true` if the view is a verbatim clone of the physical graph
    /// (i.e. the graph was a tree): no cross links exist.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// The cross (chord) neighbors of `n`: physically adjacent nodes
    /// the routing tree does *not* connect `n` to, in physical
    /// adjacency order. Event copies replicated over these links are
    /// what makes redundant-delivery suppression necessary on cyclic
    /// overlays.
    pub fn cross_neighbors(&self, graph: &Topology, n: NodeId) -> Vec<NodeId> {
        graph
            .neighbors(n)
            .iter()
            .copied()
            .filter(|&m| !self.tree.has_link(n, m))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::OverlayKind;
    use eps_sim::check::forall;
    use eps_sim::RngFactory;

    fn stream(name: &str) -> eps_sim::Rng {
        RngFactory::new(11).stream(name)
    }

    #[test]
    fn view_of_a_tree_is_a_verbatim_clone() {
        forall("view_of_a_tree_is_a_verbatim_clone", 128, |rng| {
            let n = rng.random_range(1..120usize);
            let tree = Topology::random_tree(n, rng.random_range(2..6usize), rng);
            let view = RoutingView::derive(&tree);
            assert!(view.is_identity());
            assert_eq!(view.tree().link_count(), tree.link_count());
            for n in tree.nodes() {
                assert_eq!(view.neighbors(n), tree.neighbors(n), "order preserved");
                assert!(view.cross_neighbors(&tree, n).is_empty());
            }
        });
    }

    #[test]
    fn view_of_a_cyclic_graph_is_a_spanning_tree_of_its_links() {
        // For every builder: the view is a spanning tree, the identity
        // exactly when the graph already is one.
        forall("view_is_a_spanning_tree_of_the_graph", 256, |rng| {
            let (kind, n, degree_floor) = OverlayKind::draw(rng, 120);
            let graph = Topology::build(kind, n, degree_floor + 1, rng);
            let view = RoutingView::derive(&graph);
            assert_eq!(view.is_identity(), graph.is_tree(), "{kind}");
            assert!(view.tree().is_tree());
            assert_eq!(view.tree().len(), n);
            assert!(view.tree().links().all(|l| graph.has_link(l.a(), l.b())));
            // Chords + tree links partition the physical adjacency.
            for n in graph.nodes() {
                let cross = view.cross_neighbors(&graph, n);
                assert_eq!(cross.len() + view.neighbors(n).len(), graph.degree(n));
                assert!(cross.iter().all(|&m| !view.tree().has_link(n, m)));
            }
        });
    }

    #[test]
    fn derivation_is_deterministic() {
        let graph = Topology::build(OverlayKind::BarabasiAlbert, 40, 4, &mut stream("g"));
        let a = RoutingView::derive(&graph);
        let b = RoutingView::derive(&graph);
        let links_a: Vec<_> = a.tree().links().collect();
        let links_b: Vec<_> = b.tree().links().collect();
        assert_eq!(links_a, links_b);
    }

    #[test]
    fn view_spans_the_root_component_of_a_disconnected_graph() {
        let mut graph = Topology::new(4, 3);
        graph.add_link(NodeId::new(0), NodeId::new(1)).unwrap();
        graph.add_link(NodeId::new(2), NodeId::new(3)).unwrap();
        let view = RoutingView::derive(&graph);
        assert!(view.tree().has_link(NodeId::new(0), NodeId::new(1)));
        assert_eq!(view.tree().degree(NodeId::new(2)), 0);
    }
}
