//! Node identifiers for the dispatching overlay.

use std::fmt;

/// Identifier of a dispatcher (a node of the overlay network).
///
/// Node ids are dense: a topology of `n` nodes uses ids `0..n`, which
/// lets higher layers index `Vec`s directly via [`NodeId::index`].
///
/// # Examples
///
/// ```
/// use eps_overlay::NodeId;
///
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "d3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node, for indexing per-node arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw id value.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// An undirected link between two overlay nodes, stored in canonical
/// (smaller id first) order so that `(a, b)` and `(b, a)` compare equal.
///
/// # Examples
///
/// ```
/// use eps_overlay::{LinkId, NodeId};
///
/// let ab = LinkId::new(NodeId::new(2), NodeId::new(1));
/// let ba = LinkId::new(NodeId::new(1), NodeId::new(2));
/// assert_eq!(ab, ba);
/// assert_eq!(ab.a(), NodeId::new(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId {
    a: NodeId,
    b: NodeId,
}

impl LinkId {
    /// Creates a canonical link id between two distinct nodes.
    ///
    /// # Panics
    ///
    /// Panics if `x == y` (self-links are not part of the model).
    pub fn new(x: NodeId, y: NodeId) -> Self {
        assert!(x != y, "self-link {x} is not allowed");
        if x < y {
            LinkId { a: x, b: y }
        } else {
            LinkId { a: y, b: x }
        }
    }

    /// The lower-id endpoint.
    pub fn a(self) -> NodeId {
        self.a
    }

    /// The higher-id endpoint.
    pub fn b(self) -> NodeId {
        self.b
    }

    /// The endpoint that initiates the TCP connection for this link in
    /// the real-socket runtime. Fixing the dialer to the lower id (and
    /// the acceptor to the higher) gives every link exactly one
    /// connection regardless of boot order — both sides derive the
    /// same role from the id pair alone, with no negotiation.
    pub fn dialer(self) -> NodeId {
        self.a
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::from(7u32);
        assert_eq!(n.index(), 7);
        assert_eq!(n.value(), 7);
    }

    #[test]
    fn link_id_is_canonical() {
        let a = NodeId::new(5);
        let b = NodeId::new(2);
        let l = LinkId::new(a, b);
        assert_eq!(l, LinkId::new(b, a));
        assert_eq!(l.a(), b);
        assert_eq!(l.b(), a);
    }

    #[test]
    fn dialer_is_the_lower_endpoint_either_way_round() {
        let l = LinkId::new(NodeId::new(7), NodeId::new(3));
        assert_eq!(l.dialer(), NodeId::new(3));
        assert_eq!(
            l.dialer(),
            LinkId::new(NodeId::new(3), NodeId::new(7)).dialer()
        );
    }

    #[test]
    #[should_panic]
    fn self_link_panics() {
        let _ = LinkId::new(NodeId::new(3), NodeId::new(3));
    }
}
