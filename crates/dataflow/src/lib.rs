//! In-memory distributed-dataflow substrate — the Spark substitute for the
//! paper's §V prototype and Table-II scalability experiment.
//!
//! The paper runs the same geometric-`k` sweep of extended KL on Spark and
//! changes only the data layout:
//!
//! * the **master** keeps what must be touched on every move — node status
//!   (region), potential switching gains, and the bucket list;
//! * the **workers** hold the sharded social-graph structure (friend and
//!   rejection adjacency) as resilient distributed datasets;
//! * moving a node requires its adjacency, so the master **prefetches**
//!   the top-gain nodes from the bucket list in batches into an LRU buffer,
//!   turning per-move network round trips into one round trip per batch.
//!
//! This crate reproduces that layout in-process as a second adjacency
//! source for the algorithm in `kl` and `rejecto_core`:
//!
//! * [`DistributedDetector`] — `rejecto_core::IterativeDetector`'s pruning
//!   loop with each round's residual graph sharded onto a fresh cluster
//!   sized by a [`ClusterConfig`]; the only way onto the cluster;
//! * the cluster itself (crate-private): long-lived worker threads holding
//!   graph shards, with [`IoStats`] counting simulated master↔worker
//!   traffic and a [`ClusterError`]-based failure model (respawn from
//!   lineage, watchdog for hung workers, shard rebalancing onto survivors)
//!   instead of panics;
//! * [`LruCache`] — the prefetch buffer with LRU eviction;
//! * a shard-backed `kl::AdjacencySource` over a cluster and one LRU
//!   buffer per sweep, and the `rejecto_core::SweepBackend` that runs a
//!   sweep's `k` values on the master against it.

// A library fails through typed errors or `.expect("<invariant>")`,
// never by panicking (DESIGN.md §12); tests may panic.
#![deny(
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

mod cluster;
mod detect;
mod error;
mod lru;
mod source;

pub use cluster::{ClusterConfig, IoStats};
pub use detect::DistributedDetector;
pub use error::ClusterError;
pub use lru::LruCache;
