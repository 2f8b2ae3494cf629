//! The §V cluster as an adjacency source for the shared algorithm.
//!
//! [`ShardSource`] serves extended KL its neighbor slices, initial gains
//! and cut counts from worker-held shards, and its prefetch hook pulls the
//! top of the bucket list into the master's LRU buffer before each batch
//! of pops. As a sweep backend it runs a sweep's `k` values one after
//! another on the master; the sweep, its reduction and the pruning loop
//! are `rejecto_core`'s.

// Hostile-input and cut-bookkeeping arithmetic: a silently wrapping
// counter is an adversarial primitive, so `as` casts are audited here.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::cluster::{Cluster, NodeData};
use crate::{ClusterConfig, ClusterError, IoStats, LruCache};
use kl::{AdjacencySource, BucketList, KParam};
use rejection::{Adjacency, Degrees, NodeId, Region};
use rejecto_core::{JobOutcome, KJob, KResult, RunContext, SweepBackend};
use std::cell::RefCell;

/// Extended KL's view of one pruning round's [`Cluster`]: adjacency
/// through an LRU buffer that lives for one sweep (the cached graph data
/// is `k`-independent), traffic counted in [`IoStats`].
pub(crate) struct ShardSource<'c> {
    cluster: &'c Cluster,
    config: &'c ClusterConfig,
    /// The current sweep's per-node degrees, which size the bucket array.
    degrees: Vec<Degrees>,
    buffer: RefCell<LruCache<NodeData>>,
    io: RefCell<IoStats>,
}

impl<'c> ShardSource<'c> {
    pub(crate) fn new(cluster: &'c Cluster, config: &'c ClusterConfig) -> Self {
        ShardSource {
            cluster,
            config,
            degrees: Vec::new(),
            buffer: RefCell::new(LruCache::new(config.buffer_capacity)),
            io: RefCell::new(IoStats::default()),
        }
    }

    /// The traffic counted so far.
    pub(crate) fn io(&self) -> IoStats {
        *self.io.borrow()
    }
}

impl AdjacencySource for ShardSource<'_> {
    type Id = u32;
    type Error = ClusterError;

    fn num_nodes(&self) -> usize {
        self.cluster.num_nodes()
    }

    fn gain_bound(&self, k: KParam) -> i64 {
        kl::gain_bound(k, self.degrees.iter().copied())
    }

    fn with_neighbours<R>(
        &self,
        u: NodeId,
        f: impl FnOnce(Adjacency<'_, u32>) -> R,
    ) -> Result<R, ClusterError> {
        let mut buffer = self.buffer.borrow_mut();
        let mut io = self.io.borrow_mut();
        if buffer.contains(&u.0) {
            io.buffer_hits += 1;
        } else {
            // Gain updates reorder the bucket between pops, so the max can
            // fall outside the prefetched set.
            io.buffer_misses += 1;
            for (id, data) in self.cluster.fetch(&[u.0], &mut io)? {
                buffer.insert(id, data);
            }
        }
        let data = buffer.get(&u.0).ok_or_else(|| ClusterError::ProtocolViolation {
            message: format!("fetching node {u} returned no adjacency"),
        })?;
        Ok(f(data.adjacency()))
    }

    fn initial_gains(&self, region: &[Region], k: KParam) -> Result<Vec<i64>, ClusterError> {
        self.cluster.init_gains(region, k, &mut self.io.borrow_mut())
    }

    fn cut_counts(&self, region: &[Region]) -> Result<(u64, u64), ClusterError> {
        self.cluster.cut_counts(region, &mut self.io.borrow_mut())
    }

    /// Ensures the next pops are resident: the top-gain ids not yet
    /// buffered are fetched in one batch ("the prefetched nodes are those
    /// with the highest potential move gains in the bucket list").
    fn prefetch(&self, bucket: &mut BucketList) -> Result<usize, ClusterError> {
        let top = bucket.peek_top(self.config.prefetch_batch);
        let mut buffer = self.buffer.borrow_mut();
        let missing: Vec<u32> = top.iter().copied().filter(|id| !buffer.contains(id)).collect();
        if !missing.is_empty() {
            let mut io = self.io.borrow_mut();
            io.buffer_misses += u64::try_from(missing.len()).expect("a batch size fits in u64");
            for (id, data) in self.cluster.fetch(&missing, &mut io)? {
                buffer.insert(id, data);
            }
        }
        Ok(top.len())
    }
}

impl SweepBackend for ShardSource<'_> {
    type Error = ClusterError;
    type Source = Self;

    fn degrees(&mut self) -> Result<Vec<Degrees>, ClusterError> {
        let stats = self.cluster.stats(self.io.get_mut())?;
        Ok(stats
            .into_iter()
            .map(|(friends, rejections_received, rejections_cast)| Degrees {
                friends,
                rejections_received,
                rejections_cast,
            })
            .collect())
    }

    /// The master has one thread and no pool worker to detonate, so the
    /// `k` values run in order and injected worker panics are ignored.
    /// The run's fault schedule is handed to the cluster, whose fetches
    /// probe it for worker deaths. Before each `k` the watchdog is
    /// tightened to the remaining run budget and any hang scheduled for
    /// that sweep index is armed.
    fn run_ks(
        &mut self,
        degrees: &[Degrees],
        jobs: usize,
        ctx: &RunContext,
        job: &KJob<'_, Self>,
    ) -> Result<Vec<JobOutcome<KResult>>, ClusterError> {
        degrees.clone_into(&mut self.degrees);
        *self.buffer.get_mut() = LruCache::new(self.config.buffer_capacity);
        self.cluster.arm_faults(ctx.faults());
        let mut slots = Vec::with_capacity(jobs);
        for i in 0..jobs {
            if ctx.token().is_cancelled() {
                slots.resize_with(jobs, || JobOutcome::Skipped);
                break;
            }
            if let Some(remaining) = ctx.token().time_remaining() {
                self.cluster.tighten_watchdog(remaining);
            }
            if ctx.faults().take_hang(i) {
                self.cluster.arm_hang(1);
            }
            slots.push(JobOutcome::Done(job(self, i)?));
        }
        Ok(slots)
    }
}
