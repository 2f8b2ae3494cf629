//! Iterative detection on the distributed runtime (§IV-E on §V).
//!
//! [`DistributedDetector`] is `rejecto_core::IterativeDetector`'s pruning
//! loop with one change: each round's residual graph is sharded onto a
//! fresh cluster of worker threads, and the round's MAAR sweep reads it
//! through the shard-backed adjacency source. Budgets, the resource rollback,
//! checkpoints and fault injection are the core loop's own, so:
//!
//! * a run is **worker-count invariant** — the master's sweep is
//!   sequential and placement-independent, so 1 worker and 16 workers
//!   produce byte-identical reports;
//! * a run under any injected fault plan that leaves a survivor is
//!   byte-identical to the failure-free run (recovery replays requests
//!   against immutable lineage);
//! * a run resumed from a checkpoint is byte-identical to the
//!   uninterrupted run, and local and distributed checkpoints are
//!   interchangeable.
//!
//! Unlike the core detector, every entry point returns a `Result`: losing
//! all workers is a [`RuntimeError::ClusterFailed`], not a panic.

use crate::source::ShardSource;
use crate::cluster::Cluster;
use crate::{ClusterConfig, IoStats};
use rejection::{AugmentedGraph, NodeId};
use rejecto_core::checkpoint::Checkpoint;
use rejecto_core::{
    CheckpointSink, DetectionReport, IterativeDetector, RejectoConfig, RunContext, RuntimeError,
    Seeds, Termination,
};
use std::sync::Arc;

/// The iterative MAAR-cut detector running on the Spark-substitute
/// cluster.
#[derive(Debug, Clone)]
pub struct DistributedDetector {
    detector: IterativeDetector,
    cluster_config: ClusterConfig,
    obs: Option<rejecto_obs::Obs>,
}

impl DistributedDetector {
    /// Creates a detector; each pruning round spawns a cluster sized by
    /// `cluster_config` (capped at the residual graph's node count as the
    /// graph shrinks).
    pub fn new(cluster_config: ClusterConfig, config: RejectoConfig) -> Self {
        DistributedDetector { detector: IterativeDetector::new(config), cluster_config, obs: None }
    }

    /// Attaches a metrics registry, shared with the pruning loop and the
    /// sweeps. Deterministic spans and counters are the single-process
    /// detector's; the run's aggregate [`IoStats`] and cancellation polls
    /// are absorbed into the volatile `timings` section when the loop
    /// returns (they vary with worker count and fault schedules, exactly
    /// like the `detect_with_io` counters).
    pub fn set_obs(&mut self, obs: rejecto_obs::Obs) {
        self.detector.set_obs(obs.clone());
        self.obs = Some(obs);
    }

    /// Runs the full pipeline on `g`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ClusterFailed`] when the cluster configuration is
    /// invalid or every worker is lost beyond recovery.
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range of `g`.
    pub fn detect(
        &self,
        g: &AugmentedGraph,
        seeds: &Seeds,
        termination: Termination,
    ) -> Result<DetectionReport, RuntimeError> {
        Ok(self.run_with_io(g, seeds, termination, None, None)?.0)
    }

    /// [`DistributedDetector::detect`], also returning the aggregate
    /// traffic counters of the whole run. The counters live outside the
    /// report on purpose: they vary with worker count and fault schedules
    /// while the report must stay byte-identical across both.
    ///
    /// # Errors
    ///
    /// As [`DistributedDetector::detect`].
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range of `g`.
    pub fn detect_with_io(
        &self,
        g: &AugmentedGraph,
        seeds: &Seeds,
        termination: Termination,
    ) -> Result<(DetectionReport, IoStats), RuntimeError> {
        self.run_with_io(g, seeds, termination, None, None)
    }

    /// [`DistributedDetector::detect`], calling `sink` with a
    /// [`Checkpoint`] after every completed pruning round.
    ///
    /// # Errors
    ///
    /// As [`DistributedDetector::detect`].
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range of `g`.
    pub fn detect_with_checkpoints(
        &self,
        g: &AugmentedGraph,
        seeds: &Seeds,
        termination: Termination,
        sink: CheckpointSink<'_>,
    ) -> Result<DetectionReport, RuntimeError> {
        Ok(self.run_with_io(g, seeds, termination, None, Some(sink))?.0)
    }

    /// Any of the detect/resume × with/without-checkpoints modes: resumes
    /// from `resume_from` when given and checkpoints every completed round
    /// into `sink` when given.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::CheckpointMismatch`] (and friends) when
    /// `resume_from` does not describe `g`;
    /// [`RuntimeError::ClusterFailed`] as in [`DistributedDetector::detect`].
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range of `g`.
    pub fn run(
        &self,
        g: &AugmentedGraph,
        seeds: &Seeds,
        termination: Termination,
        resume_from: Option<&Checkpoint>,
        sink: Option<CheckpointSink<'_>>,
    ) -> Result<DetectionReport, RuntimeError> {
        if let Some(checkpoint) = resume_from {
            checkpoint.validate_against(g)?;
        }
        Ok(self.run_with_io(g, seeds, termination, resume_from, sink)?.0)
    }

    /// The core pruning loop, each round solved on a fresh cluster sharding
    /// the residual graph — the distributed analogue of re-deriving the
    /// RDDs after a prune. The loop arms the fault plan once per run; each
    /// round's sweep hands that one schedule to its cluster, so every
    /// schedule fires exactly once per run.
    fn run_with_io(
        &self,
        g: &AugmentedGraph,
        seeds: &Seeds,
        termination: Termination,
        resume_from: Option<&Checkpoint>,
        sink: Option<CheckpointSink<'_>>,
    ) -> Result<(DetectionReport, IoStats), RuntimeError> {
        let mut io = IoStats::default();
        let mut solve_round =
            |current: &AugmentedGraph, legit: &[NodeId], spammer: &[NodeId], ctx: &RunContext| {
                // Worker count is capped by the shrinking graph.
                let round_config = ClusterConfig {
                    num_workers: self.cluster_config.num_workers.min(current.num_nodes().max(1)),
                    ..self.cluster_config
                };
                let cluster = Cluster::new(Arc::new(current.clone()), &round_config)?;
                let mut source = ShardSource::new(&cluster, &round_config);
                let outcome = self.detector.solver().solve_with(&mut source, legit, spammer, ctx);
                io.merge(&source.io());
                outcome
            };
        let report =
            self.detector.run_rounds(g, seeds, termination, resume_from, sink, &mut solve_round)?;
        if let Some(obs) = &self.obs {
            absorb_io(obs, &io);
        }
        Ok((report, io))
    }
}

/// Feeds a run's aggregate [`IoStats`] into the **volatile** section of the
/// metrics document — every one of these counters varies with worker count
/// and fault schedules, so none may land next to the byte-compared
/// counters. The exhaustive destructuring mirrors [`IoStats::merge`]:
/// adding a field without deciding its metrics path is a compile error.
fn absorb_io(obs: &rejecto_obs::Obs, io: &IoStats) {
    let IoStats {
        fetch_batches,
        nodes_fetched,
        buffer_hits,
        buffer_misses,
        init_jobs,
        worker_restarts,
        shards_rebalanced,
        hangs_absorbed,
    } = *io;
    obs.volatile_incr("io/fetch_batches", fetch_batches);
    obs.volatile_incr("io/nodes_fetched", nodes_fetched);
    obs.volatile_incr("io/buffer_hits", buffer_hits);
    obs.volatile_incr("io/buffer_misses", buffer_misses);
    obs.volatile_incr("io/init_jobs", init_jobs);
    obs.volatile_incr("io/worker_restarts", worker_restarts);
    obs.volatile_incr("io/shards_rebalanced", shards_rebalanced);
    obs.volatile_incr("io/hangs_absorbed", hangs_absorbed);
}
