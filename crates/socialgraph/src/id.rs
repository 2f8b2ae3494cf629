// The derived `PartialOrd` below expands to a `u32::partial_cmp` call in
// this module; `u32` is totally ordered, so the ban does not apply.
#![expect(
    clippy::disallowed_methods,
    reason = "NodeId's derived PartialOrd delegates to u32's, which is total"
)]

use std::fmt;

/// Dense identifier of a node in a [`Graph`](crate::Graph).
///
/// Node ids are consecutive integers `0..num_nodes`. The newtype keeps node
/// indices from being confused with counts, degrees, or other integers.
///
/// ```
/// use socialgraph::NodeId;
/// let n = NodeId(7);
/// assert_eq!(n.index(), 7);
/// assert_eq!(n.to_string(), "7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index, for slice addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32 range"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_index() {
        assert_eq!(NodeId::from_index(42).index(), 42);
    }

    #[test]
    fn display_is_plain_number() {
        assert_eq!(format!("{}", NodeId(3)), "3");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId(1) < NodeId(2));
    }

    #[test]
    #[should_panic(expected = "node index exceeds u32 range")]
    fn from_index_rejects_overflow() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }
}
