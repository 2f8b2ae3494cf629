//! Where an extended-KL run reads the graph from.
//!
//! The §V deployment keeps the same algorithm and changes only the data
//! layout: the master holds regions, gains and the bucket list, the
//! workers hold the adjacency. [`ExtendedKl`](crate::ExtendedKl) therefore
//! reads the graph through [`AdjacencySource`] alone. An in-memory
//! [`AugmentedGraph`] is one source; a shard-backed source that prefetches
//! top-gain neighborhoods into an LRU buffer is another (`dataflow`).

use crate::{BucketList, KParam};
use rejection::{Adjacency, AugmentedGraph, Degrees, NodeId, Partition, Region};
use std::convert::Infallible;

/// The graph access one extended-KL run needs.
///
/// Every method takes `&self`: an in-memory graph is shared read-only
/// across sweep workers, and a remote source keeps its buffer and traffic
/// counters behind interior mutability.
pub trait AdjacencySource {
    /// The id type the adjacency lists are stored in.
    type Id: Copy + Into<NodeId>;
    /// A failed read; [`Infallible`] for in-memory graphs.
    type Error;

    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// An upper bound on `|gain|` of any node under `k`, which sizes the
    /// bucket array ([`gain_bound`]).
    fn gain_bound(&self, k: KParam) -> i64;

    /// Calls `f` with the adjacency lists of `u`.
    ///
    /// # Errors
    ///
    /// When the lists cannot be read.
    fn with_neighbours<R>(
        &self,
        u: NodeId,
        f: impl FnOnce(Adjacency<'_, Self::Id>) -> R,
    ) -> Result<R, Self::Error>;

    /// The switching gain of every node under `region`, indexed by id.
    ///
    /// # Errors
    ///
    /// When the gains cannot be computed.
    fn initial_gains(&self, region: &[Region], k: KParam) -> Result<Vec<i64>, Self::Error>;

    /// `(cross_friendships, cross_rejections)` of the cut `region` draws.
    ///
    /// # Errors
    ///
    /// When the counts cannot be computed.
    fn cut_counts(&self, region: &[Region]) -> Result<(u64, u64), Self::Error>;

    /// Called before each batch of pops from `bucket`; returns how many
    /// pops the batch may take. A remote source peeks at the top of the
    /// bucket and fetches what it is about to need.
    ///
    /// # Errors
    ///
    /// When the prefetch fails.
    fn prefetch(&self, bucket: &mut BucketList) -> Result<usize, Self::Error>;
}

/// The bucket-array bound for `k` over per-node [`Degrees`]: no switch can
/// move more edges than a node has, so `den·friends + num·rejections`
/// (received plus cast) bounds its gain. At least 1.
pub fn gain_bound(k: KParam, degrees: impl IntoIterator<Item = Degrees>) -> i64 {
    degrees
        .into_iter()
        .map(|d| {
            let rejections = i64::from(d.rejections_received) + i64::from(d.rejections_cast);
            k.gain((-i64::from(d.friends), rejections))
        })
        .fold(1, i64::max)
}

impl AdjacencySource for AugmentedGraph {
    type Id = NodeId;
    type Error = Infallible;

    fn num_nodes(&self) -> usize {
        AugmentedGraph::num_nodes(self)
    }

    fn gain_bound(&self, k: KParam) -> i64 {
        gain_bound(k, self.nodes().map(|u| self.degrees(u)))
    }

    #[inline]
    fn with_neighbours<R>(
        &self,
        u: NodeId,
        f: impl FnOnce(Adjacency<'_, NodeId>) -> R,
    ) -> Result<R, Infallible> {
        Ok(f(self.adjacency(u)))
    }

    fn initial_gains(&self, region: &[Region], k: KParam) -> Result<Vec<i64>, Infallible> {
        Ok(self.nodes().map(|u| k.gain(self.adjacency(u).switch_delta(u, region))).collect())
    }

    fn cut_counts(&self, region: &[Region]) -> Result<(u64, u64), Infallible> {
        let p = Partition::from_regions(self, region.to_vec());
        Ok((p.cross_friendships(), p.cross_rejections()))
    }

    /// Everything is resident: one batch drains the bucket, and the bucket
    /// is never peeked.
    fn prefetch(&self, _bucket: &mut BucketList) -> Result<usize, Infallible> {
        Ok(usize::MAX)
    }
}
