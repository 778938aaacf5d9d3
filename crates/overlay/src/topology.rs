//! The overlay topology: an undirected graph of dispatchers, normally
//! maintained as an unrooted tree (the paper's dispatching tree).

use std::collections::VecDeque;

use eps_sim::Rng;

use crate::node::{LinkId, NodeId};

/// Error returned by [`Topology`] mutators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TopologyError {
    /// The named node does not exist.
    UnknownNode(NodeId),
    /// The link already exists.
    DuplicateLink(LinkId),
    /// The link does not exist.
    MissingLink(LinkId),
    /// Adding the link would exceed the degree bound of a node.
    DegreeExceeded(NodeId),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::DuplicateLink(l) => write!(f, "link {l} already exists"),
            TopologyError::MissingLink(l) => write!(f, "link {l} does not exist"),
            TopologyError::DegreeExceeded(n) => {
                write!(f, "adding link would exceed degree bound at {n}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The overlay family a scenario runs on. `Tree` is the paper's
/// degree-bounded random spanning tree; the other two are the cyclic
/// complex-network overlays from Ferretti's gossip pub-sub study
/// (arXiv 1112.0416): scale-free preferential attachment and
/// small-world ring rewiring.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OverlayKind {
    /// Incremental random spanning tree ([`Topology::random_tree`]).
    #[default]
    Tree,
    /// Degree-capped Barabási–Albert preferential attachment.
    BarabasiAlbert,
    /// Watts–Strogatz small-world ring rewiring.
    WattsStrogatz,
}

impl OverlayKind {
    /// All overlay kinds, tree first.
    pub fn all() -> [OverlayKind; 3] {
        [
            OverlayKind::Tree,
            OverlayKind::BarabasiAlbert,
            OverlayKind::WattsStrogatz,
        ]
    }

    /// The canonical short name (the `--overlay` CLI value).
    pub fn name(self) -> &'static str {
        match self {
            OverlayKind::Tree => "tree",
            OverlayKind::BarabasiAlbert => "ba",
            OverlayKind::WattsStrogatz => "ws",
        }
    }

    /// `true` for the acyclic overlay: physical graph == routing view,
    /// so no cross links and no redundant deliveries exist.
    pub fn is_tree(self) -> bool {
        self == OverlayKind::Tree
    }
}

impl std::fmt::Display for OverlayKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for OverlayKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tree" => Ok(OverlayKind::Tree),
            "ba" | "barabasi-albert" => Ok(OverlayKind::BarabasiAlbert),
            "ws" | "watts-strogatz" => Ok(OverlayKind::WattsStrogatz),
            other => Err(format!(
                "unknown overlay '{other}' (expected tree, ba, or ws)"
            )),
        }
    }
}

/// Attachment edges each new node brings in a Barabási–Albert overlay
/// — the classic BA `m`, giving a mean degree of `2m = 4` (the paper's
/// tree degree bound).
pub const BA_ATTACHMENTS: usize = 2;

/// Bounded retries for one preferential (or fallback uniform) target
/// draw in the graph builders before giving up on the slot.
const BA_PREFERENTIAL_TRIES: usize = 16;

/// Bounded retries for one rewiring target draw in
/// [`Topology::watts_strogatz`] before keeping the original chord.
const WS_REWIRE_TRIES: usize = 16;

/// The default Watts–Strogatz rewiring probability used by
/// [`Topology::build`]: enough long-range chords to collapse the path
/// length while the ring clustering survives.
pub const WS_BETA: f64 = 0.2;

/// A set of node ids supporting O(1) insert, remove, and uniform
/// random draw — the spare-degree candidate pool the graph builders
/// sample attachment targets from. `pos[x]` is `x`'s index in `items`,
/// or `u32::MAX` when absent.
struct SpareSet {
    items: Vec<u32>,
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl SpareSet {
    fn empty(n: usize) -> Self {
        SpareSet {
            items: Vec::with_capacity(n),
            pos: vec![ABSENT; n],
        }
    }

    fn full(n: usize) -> Self {
        SpareSet {
            items: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
        }
    }

    fn insert(&mut self, x: u32) {
        if self.pos[x as usize] == ABSENT {
            self.pos[x as usize] = self.items.len() as u32;
            self.items.push(x);
        }
    }

    fn remove(&mut self, x: u32) {
        let p = self.pos[x as usize];
        if p == ABSENT {
            return;
        }
        self.items.swap_remove(p as usize);
        if let Some(&moved) = self.items.get(p as usize) {
            self.pos[moved as usize] = p;
        }
        self.pos[x as usize] = ABSENT;
    }

    fn draw(&self, rng: &mut Rng) -> Option<NodeId> {
        if self.items.is_empty() {
            None
        } else {
            let k = rng.random_below(self.items.len() as u64) as usize;
            Some(NodeId::new(self.items[k]))
        }
    }
}

/// An undirected overlay graph with an optional per-node degree bound.
///
/// The dispatching overlay of the paper is an *unrooted tree* with
/// degree at most four; [`Topology::random_tree`] builds exactly that.
/// During reconfiguration the graph transiently has two components
/// (after a link breaks) before a replacement link restores a tree.
///
/// # Examples
///
/// ```
/// use eps_overlay::Topology;
/// use eps_sim::RngFactory;
///
/// let mut rng = RngFactory::new(1).stream("topology");
/// let topo = Topology::random_tree(100, 4, &mut rng);
/// assert!(topo.is_tree());
/// assert!(topo.nodes().all(|n| topo.degree(n) <= 4));
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    adjacency: Vec<Vec<NodeId>>,
    max_degree: usize,
    link_count: usize,
}

impl Topology {
    /// Creates a topology of `n` isolated nodes with the given degree
    /// bound.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `max_degree < 2` (a tree with more than
    /// two nodes needs internal nodes of degree ≥ 2).
    pub fn new(n: usize, max_degree: usize) -> Self {
        assert!(n > 0, "topology needs at least one node");
        assert!(max_degree >= 2, "degree bound must be at least 2");
        Topology {
            adjacency: vec![Vec::new(); n],
            max_degree,
            link_count: 0,
        }
    }

    /// Builds a random spanning tree over `n` nodes where every node
    /// has degree at most `max_degree`.
    ///
    /// Nodes are attached one at a time to a uniformly random existing
    /// node that still has spare degree — the same incremental growth
    /// model used in the simulations of the paper's reference \[7\].
    /// The spare-degree candidates are kept in an indexed set drawn
    /// from in O(1), so construction is O(N) overall (the previous
    /// rejection-free scan of all attached nodes per step was O(N²) —
    /// minutes at 10⁵ nodes).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Topology::new`].
    pub fn random_tree(n: usize, max_degree: usize, rng: &mut Rng) -> Self {
        let mut topo = Topology::new(n, max_degree);
        let mut spare = SpareSet::empty(n);
        spare.insert(0);
        for i in 1..n {
            let parent = spare
                .draw(rng)
                .expect("a growing bounded-degree tree always has a node with spare degree");
            let node = NodeId::new(i as u32);
            topo.add_link(parent, node)
                .expect("parent was drawn from the spare-degree set");
            if topo.degree(parent) >= max_degree {
                spare.remove(parent.value());
            }
            // `max_degree >= 2`, so the fresh leaf always has spare.
            spare.insert(node.value());
        }
        topo
    }

    /// Builds the overlay of the given kind: [`Topology::random_tree`]
    /// for [`OverlayKind::Tree`], a degree-capped Barabási–Albert graph
    /// with [`BA_ATTACHMENTS`] per node for
    /// [`OverlayKind::BarabasiAlbert`], and a Watts–Strogatz rewiring at
    /// the default probability [`WS_BETA`] for
    /// [`OverlayKind::WattsStrogatz`].
    ///
    /// # Panics
    ///
    /// Panics under the respective builder's conditions.
    pub fn build(kind: OverlayKind, n: usize, max_degree: usize, rng: &mut Rng) -> Self {
        match kind {
            OverlayKind::Tree => Topology::random_tree(n, max_degree, rng),
            OverlayKind::BarabasiAlbert => Topology::barabasi_albert(n, max_degree, rng),
            OverlayKind::WattsStrogatz => Topology::watts_strogatz(n, max_degree, WS_BETA, rng),
        }
    }

    /// Builds a degree-capped Barabási–Albert scale-free graph: after a
    /// seed link `0–1`, each new node attaches to up to
    /// [`BA_ATTACHMENTS`] distinct existing nodes drawn proportionally
    /// to degree (endpoint-list sampling), restricted to nodes with
    /// spare degree. When a bounded number of preferential draws all
    /// hit saturated or duplicate targets, the draw falls back to a
    /// uniform choice over the spare-degree pool, so the cap truncates
    /// — but never stalls — the preferential hub growth.
    ///
    /// The result is connected (every node attaches at least once — at
    /// mean degree `2·BA_ATTACHMENTS ≤ max_degree` a spare node always
    /// exists by pigeonhole) and cyclic for `n ≥ 3`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Topology::new`], or if
    /// `max_degree < 2 * BA_ATTACHMENTS` (the cap must admit the mean
    /// degree, or late nodes cannot attach).
    fn barabasi_albert(n: usize, max_degree: usize, rng: &mut Rng) -> Self {
        assert!(
            max_degree >= 2 * BA_ATTACHMENTS,
            "degree cap must be at least the BA mean degree {}",
            2 * BA_ATTACHMENTS
        );
        let mut topo = Topology::new(n, max_degree);
        if n == 1 {
            return topo;
        }
        topo.add_link(NodeId::new(0), NodeId::new(1))
            .expect("seed link on fresh nodes");
        // Each link contributes both endpoints, so a uniform draw from
        // this list is a draw proportional to degree.
        let mut endpoints: Vec<u32> = vec![0, 1];
        let mut spare = SpareSet::empty(n);
        spare.insert(0);
        spare.insert(1);
        for i in 2..n {
            let node = NodeId::new(i as u32);
            let mut chosen: [Option<NodeId>; BA_ATTACHMENTS] = [None; BA_ATTACHMENTS];
            let mut picked = 0;
            for _slot in 0..BA_ATTACHMENTS.min(i) {
                let mut target = None;
                for _ in 0..BA_PREFERENTIAL_TRIES {
                    let k = rng.random_below(endpoints.len() as u64) as usize;
                    let cand = NodeId::new(endpoints[k]);
                    if cand != node
                        && topo.degree(cand) < max_degree
                        && !chosen[..picked].contains(&Some(cand))
                    {
                        target = Some(cand);
                        break;
                    }
                }
                if target.is_none() {
                    for _ in 0..BA_PREFERENTIAL_TRIES {
                        match spare.draw(rng) {
                            None => break,
                            Some(cand) if chosen[..picked].contains(&Some(cand)) => {}
                            Some(cand) => {
                                target = Some(cand);
                                break;
                            }
                        }
                    }
                }
                let Some(t) = target else { break };
                topo.add_link(t, node).expect("target has spare degree");
                endpoints.push(t.index() as u32);
                endpoints.push(i as u32);
                if topo.degree(t) >= max_degree {
                    spare.remove(t.index() as u32);
                }
                chosen[picked] = Some(t);
                picked += 1;
            }
            assert!(
                picked >= 1,
                "a spare-degree node always exists at mean degree 2·m ≤ cap"
            );
            if topo.degree(node) < max_degree {
                spare.insert(i as u32);
            }
        }
        topo
    }

    /// Builds a Watts–Strogatz small-world graph: a ring lattice where
    /// each node links to its two nearest neighbors on either side
    /// (`±1` and `±2`), then each `+2` chord is rewired with
    /// probability `beta` to a uniform random non-adjacent node with
    /// spare degree (the `±1` ring is never rewired, so the graph
    /// stays connected). A rewire that finds no admissible target
    /// after a bounded number of draws keeps the original chord.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Topology::new`], or if
    /// `n < 5` (the `±2` lattice needs five distinct nodes) or
    /// `max_degree < 5` (rewiring needs headroom above the lattice
    /// degree of 4).
    fn watts_strogatz(n: usize, max_degree: usize, beta: f64, rng: &mut Rng) -> Self {
        assert!(n >= 5, "the ±2 ring lattice needs at least 5 nodes");
        assert!(
            max_degree >= 5,
            "rewiring needs degree headroom above the lattice degree 4"
        );
        let mut topo = Topology::new(n, max_degree);
        for i in 0..n {
            let a = NodeId::new(i as u32);
            topo.add_link(a, NodeId::new(((i + 1) % n) as u32))
                .expect("ring link on fresh lattice");
        }
        for i in 0..n {
            let a = NodeId::new(i as u32);
            topo.add_link(a, NodeId::new(((i + 2) % n) as u32))
                .expect("chord link on fresh lattice");
        }
        let mut spare = SpareSet::full(n);
        for i in 0..n {
            if topo.degree(NodeId::new(i as u32)) >= max_degree {
                spare.remove(i as u32);
            }
        }
        for i in 0..n {
            let a = NodeId::new(i as u32);
            let b = NodeId::new(((i + 2) % n) as u32);
            if !rng.random_bool(beta) {
                continue;
            }
            topo.remove_link(LinkId::new(a, b))
                .expect("the +2 chord of i is only ever rewired at step i");
            spare.insert(b.index() as u32);
            if topo.degree(a) < max_degree {
                spare.insert(a.index() as u32);
            }
            let mut target = None;
            for _ in 0..WS_REWIRE_TRIES {
                match spare.draw(rng) {
                    None => break,
                    Some(t) if t == a || topo.has_link(a, t) => {}
                    Some(t) => {
                        target = Some(t);
                        break;
                    }
                }
            }
            // No admissible target — put the original chord back.
            let t = target.unwrap_or(b);
            topo.add_link(a, t).expect("target has spare degree");
            for x in [a, t] {
                if topo.degree(x) >= max_degree {
                    spare.remove(x.index() as u32);
                }
            }
        }
        topo
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// `true` if the topology has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// The degree bound.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adjacency.len()).map(|i| NodeId::new(i as u32))
    }

    /// The neighbors of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        &self.adjacency[n.index()]
    }

    /// The degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n.index()].len()
    }

    /// `true` if `a` and `b` are directly linked.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency[a.index()].contains(&b)
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// Iterator over all links in canonical order.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(i, nbrs)| {
            let a = NodeId::new(i as u32);
            nbrs.iter()
                .filter(move |&&b| a < b)
                .map(move |&b| LinkId::new(a, b))
        })
    }

    /// Adds an undirected link.
    ///
    /// # Errors
    ///
    /// Returns an error if either node is unknown, the link already
    /// exists, or it would violate the degree bound.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> Result<LinkId, TopologyError> {
        let id = LinkId::new(a, b);
        for n in [a, b] {
            if n.index() >= self.adjacency.len() {
                return Err(TopologyError::UnknownNode(n));
            }
        }
        if self.has_link(a, b) {
            return Err(TopologyError::DuplicateLink(id));
        }
        for n in [a, b] {
            if self.degree(n) >= self.max_degree {
                return Err(TopologyError::DegreeExceeded(n));
            }
        }
        self.adjacency[a.index()].push(b);
        self.adjacency[b.index()].push(a);
        self.link_count += 1;
        Ok(id)
    }

    /// Removes an undirected link.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::MissingLink`] if the link does not
    /// exist.
    pub fn remove_link(&mut self, link: LinkId) -> Result<(), TopologyError> {
        let (a, b) = (link.a(), link.b());
        if a.index() >= self.adjacency.len() || !self.has_link(a, b) {
            return Err(TopologyError::MissingLink(link));
        }
        self.adjacency[a.index()].retain(|&x| x != b);
        self.adjacency[b.index()].retain(|&x| x != a);
        self.link_count -= 1;
        Ok(())
    }

    /// The set of nodes reachable from `start` (including it), in BFS
    /// order.
    pub fn component_of(&self, start: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.len()];
        let mut queue = VecDeque::from([start]);
        let mut out = Vec::new();
        seen[start.index()] = true;
        while let Some(n) = queue.pop_front() {
            out.push(n);
            for &m in self.neighbors(n) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    queue.push_back(m);
                }
            }
        }
        out
    }

    /// `true` if every node is reachable from every other.
    pub fn is_connected(&self) -> bool {
        self.component_of(NodeId::new(0)).len() == self.len()
    }

    /// `true` if the graph is a tree: connected with exactly `n - 1`
    /// links.
    pub fn is_tree(&self) -> bool {
        self.link_count == self.len() - 1 && self.is_connected()
    }

    /// Shortest path from `a` to `b` (inclusive of both), or `None` if
    /// disconnected.
    pub fn path(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        if a == b {
            return Some(vec![a]);
        }
        let mut prev: Vec<Option<NodeId>> = vec![None; self.len()];
        let mut queue = VecDeque::from([a]);
        prev[a.index()] = Some(a);
        while let Some(n) = queue.pop_front() {
            for &m in self.neighbors(n) {
                if prev[m.index()].is_none() {
                    prev[m.index()] = Some(n);
                    if m == b {
                        let mut path = vec![b];
                        let mut cur = b;
                        while cur != a {
                            cur = prev[cur.index()].expect("predecessor chain is complete");
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(m);
                }
            }
        }
        None
    }

    /// Mean shortest-path length (in hops) over all ordered node pairs.
    /// Useful for calibrating loss compounding.
    pub fn mean_path_hops(&self) -> f64 {
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        let mut pairs = 0u64;
        for a in self.nodes() {
            // BFS distances from a.
            let mut dist: Vec<Option<u32>> = vec![None; n];
            dist[a.index()] = Some(0);
            let mut queue = VecDeque::from([a]);
            while let Some(x) = queue.pop_front() {
                let d = dist[x.index()].expect("popped nodes have distances");
                for &m in self.neighbors(x) {
                    if dist[m.index()].is_none() {
                        dist[m.index()] = Some(d + 1);
                        queue.push_back(m);
                    }
                }
            }
            for b in self.nodes() {
                if b != a {
                    if let Some(d) = dist[b.index()] {
                        total += d as u64;
                        pairs += 1;
                    }
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eps_sim::check::forall;
    use eps_sim::RngFactory;

    fn rng() -> Rng {
        RngFactory::new(42).stream("topology-test")
    }

    impl OverlayKind {
        /// A kind drawn uniformly, a size up to `n_extra` nodes above
        /// the smallest its builder admits, and the smallest admissible
        /// degree bound: BA needs room for `2 * BA_ATTACHMENTS` links
        /// per node, WS the ring lattice (degree 4) plus one spare for
        /// rewiring.
        pub(crate) fn draw(rng: &mut Rng, n_extra: usize) -> (OverlayKind, usize, usize) {
            let kind = *rng.choose(&OverlayKind::all()).unwrap();
            let (n_floor, degree_floor) = match kind {
                OverlayKind::Tree => (1, 2),
                OverlayKind::BarabasiAlbert => (BA_ATTACHMENTS + 1, 2 * BA_ATTACHMENTS),
                OverlayKind::WattsStrogatz => (5, 5),
            };
            (kind, n_floor + rng.random_range(0..n_extra), degree_floor)
        }
    }

    fn assert_links_are_symmetric(topo: &Topology) {
        for link in topo.links() {
            assert!(topo.neighbors(link.a()).contains(&link.b()));
            assert!(topo.neighbors(link.b()).contains(&link.a()));
        }
    }

    #[test]
    fn random_tree_is_a_degree_bounded_tree() {
        forall("random_tree_is_a_degree_bounded_tree", 256, |rng| {
            let n = rng.random_range(1..300usize);
            let max_degree = rng.random_range(2..8usize);
            let topo = Topology::random_tree(n, max_degree, rng);
            assert_eq!(topo.len(), n);
            assert_eq!(topo.link_count(), n - 1);
            assert!(topo.is_tree());
            assert!(topo.nodes().all(|v| topo.degree(v) <= max_degree));
            assert_links_are_symmetric(&topo);
        });
    }

    #[test]
    fn single_node_tree() {
        let topo = Topology::random_tree(1, 4, &mut rng());
        assert!(topo.is_tree());
        assert_eq!(topo.link_count(), 0);
    }

    #[test]
    fn add_link_rejects_duplicates_and_degree_violations() {
        let mut t = Topology::new(4, 2);
        let (a, b, c, d) = (
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(3),
        );
        t.add_link(a, b).unwrap();
        assert!(matches!(
            t.add_link(b, a),
            Err(TopologyError::DuplicateLink(_))
        ));
        t.add_link(a, c).unwrap();
        assert!(matches!(
            t.add_link(a, d),
            Err(TopologyError::DegreeExceeded(n)) if n == a
        ));
    }

    #[test]
    fn remove_link_splits_tree() {
        let mut t = Topology::random_tree(20, 4, &mut rng());
        let link = t.links().next().unwrap();
        t.remove_link(link).unwrap();
        assert!(!t.is_connected());
        let comp_a = t.component_of(link.a());
        let comp_b = t.component_of(link.b());
        assert_eq!(comp_a.len() + comp_b.len(), 20);
        assert!(matches!(
            t.remove_link(link),
            Err(TopologyError::MissingLink(_))
        ));
    }

    #[test]
    fn path_endpoints_and_adjacency() {
        // Tree paths run hop by hop between their endpoints, visit no
        // node twice, and read the same in both directions.
        forall("path_endpoints_and_adjacency", 256, |rng| {
            let n = rng.random_range(2..150usize);
            let t = Topology::random_tree(n, 4, rng);
            let a = NodeId::new(rng.random_below(n as u64) as u32);
            let b = NodeId::new(rng.random_below(n as u64) as u32);
            let path = t.path(a, b).unwrap();
            assert_eq!(*path.first().unwrap(), a);
            assert_eq!(*path.last().unwrap(), b);
            for w in path.windows(2) {
                assert!(t.has_link(w[0], w[1]));
            }
            let mut distinct = path.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), path.len());
            let mut reverse = t.path(b, a).unwrap();
            reverse.reverse();
            assert_eq!(reverse, path);
        });
    }

    #[test]
    fn path_to_self_is_singleton() {
        let t = Topology::random_tree(5, 4, &mut rng());
        assert_eq!(
            t.path(NodeId::new(2), NodeId::new(2)),
            Some(vec![NodeId::new(2)])
        );
    }

    #[test]
    fn path_is_none_across_components() {
        let mut t = Topology::new(2, 2);
        assert_eq!(t.path(NodeId::new(0), NodeId::new(1)), None);
        t.add_link(NodeId::new(0), NodeId::new(1)).unwrap();
        assert!(t.path(NodeId::new(0), NodeId::new(1)).is_some());
    }

    #[test]
    fn links_iterates_each_link_once() {
        let t = Topology::random_tree(30, 4, &mut rng());
        let links: Vec<LinkId> = t.links().collect();
        assert_eq!(links.len(), 29);
        let mut dedup = links.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), links.len());
    }

    #[test]
    fn mean_path_hops_is_positive_and_bounded() {
        let t = Topology::random_tree(100, 4, &mut rng());
        let hops = t.mean_path_hops();
        assert!(hops > 1.0, "hops = {hops}");
        assert!(hops < 20.0, "hops = {hops}");
    }

    #[test]
    fn every_builder_is_connected_degree_capped_and_cyclic_unless_a_tree() {
        forall("every_builder_is_connected_and_degree_capped", 256, |rng| {
            let (kind, n, degree_floor) = OverlayKind::draw(rng, 200);
            let max_degree = degree_floor + rng.random_range(0..5usize);
            let topo = Topology::build(kind, n, max_degree, rng);
            assert_eq!(topo.len(), n, "{kind}");
            assert!(topo.is_connected(), "{kind} n={n}");
            assert!(
                topo.nodes().all(|x| topo.degree(x) <= max_degree),
                "{kind} n={n}"
            );
            assert_eq!(topo.is_tree(), kind.is_tree(), "{kind} n={n}");
            assert_eq!(topo.link_count() > n - 1, !kind.is_tree(), "{kind} n={n}");
            assert_links_are_symmetric(&topo);
        });
    }

    #[test]
    fn barabasi_albert_prefers_high_degree_early_nodes() {
        let topo = Topology::barabasi_albert(400, 8, &mut rng());
        let early: usize = (0..20).map(|i| topo.degree(NodeId::new(i))).sum();
        let late: usize = (380..400).map(|i| topo.degree(NodeId::new(i))).sum();
        assert!(
            early > late,
            "preferential attachment favors old nodes: early {early} vs late {late}"
        );
    }

    #[test]
    fn watts_strogatz_is_connected_degree_capped_and_rewired() {
        let n = 100;
        let topo = Topology::watts_strogatz(n, 6, 0.2, &mut rng());
        assert!(topo.is_connected());
        assert!(topo.nodes().all(|x| topo.degree(x) <= 6));
        // The ±1 ring is never rewired.
        for i in 0..n {
            let a = NodeId::new(i as u32);
            assert!(topo.has_link(a, NodeId::new(((i + 1) % n) as u32)));
        }
        // Some +2 chord moved (β=0.2 over 100 chords).
        let moved = (0..n)
            .filter(|&i| !topo.has_link(NodeId::new(i as u32), NodeId::new(((i + 2) % n) as u32)))
            .count();
        assert!(moved > 0, "rewiring happened");
        // Rewiring conserves the link count: every removal re-adds one.
        assert_eq!(topo.link_count(), 2 * n);
    }

    #[test]
    fn builders_are_seed_deterministic() {
        // A pure function of (kind, n, max_degree, seed): the same link
        // set and the same neighbor order.
        forall("builders_are_seed_deterministic", 128, |rng| {
            let (kind, n, degree_floor) = OverlayKind::draw(rng, 120);
            let seed = rng.next_u64();
            let build = || Topology::build(kind, n, degree_floor + 1, &mut Rng::from_seed(seed));
            let (a, b) = (build(), build());
            let links_a: Vec<LinkId> = a.links().collect();
            let links_b: Vec<LinkId> = b.links().collect();
            assert_eq!(links_a, links_b, "{kind}");
            for v in a.nodes() {
                assert_eq!(a.neighbors(v), b.neighbors(v), "{kind}");
            }
        });
    }

    #[test]
    fn overlay_kind_round_trips_through_names() {
        for kind in OverlayKind::all() {
            assert_eq!(kind.name().parse::<OverlayKind>(), Ok(kind));
        }
        assert_eq!("barabasi-albert".parse(), Ok(OverlayKind::BarabasiAlbert));
        assert_eq!("WS".parse(), Ok(OverlayKind::WattsStrogatz));
        assert!("ring".parse::<OverlayKind>().is_err());
        assert!(OverlayKind::Tree.is_tree());
        assert!(!OverlayKind::BarabasiAlbert.is_tree());
    }

    #[test]
    fn tree_detection_rejects_cycles() {
        let mut t = Topology::new(3, 3);
        t.add_link(NodeId::new(0), NodeId::new(1)).unwrap();
        t.add_link(NodeId::new(1), NodeId::new(2)).unwrap();
        assert!(t.is_tree());
        t.add_link(NodeId::new(2), NodeId::new(0)).unwrap();
        assert!(!t.is_tree());
    }
}
