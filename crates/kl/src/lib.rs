//! Extended Kernighan–Lin partitioning (the paper's §IV-C/D).
//!
//! Three layers:
//!
//! * [`BucketList`] — the Fiduccia–Mattheyses gain structure: an array of
//!   intrusive doubly-linked lists indexed by integer gain, giving `O(1)`
//!   insert/remove/update and amortized-`O(1)` max-gain extraction. This is
//!   the optimization the paper cites for making KL effectively linear-time
//!   (§IV-C, \[21\]).
//! * [`AdjacencySource`] — the only way a KL run reads the graph:
//!   neighbor slices, initial gains, cut counts, and a prefetch hook before
//!   each batch of pops. An in-memory [`rejection::AugmentedGraph`] is one
//!   source; the §V cluster's shard-backed LRU buffer (`dataflow`) is
//!   another, so the algorithm exists once for both deployments.
//! * [`ExtendedKl`] — the paper's Algorithm 1: single-node switches on a
//!   rejection-augmented graph, minimizing the weighted objective
//!   `|F(Ū,U)| − k·|R⟨Ū,U⟩|` with friendships at weight 1 and rejections at
//!   weight −k, seed nodes pinned, and the max-gain-prefix commit rule,
//!   generic over the [`AdjacencySource`].
//!
//! The parameter `k` is a rational [`KParam`] (`num/den`), which keeps every
//! gain an exact integer `num·ΔR − den·ΔF` — no floating-point tie-break
//! instability in the bucket list.

// A library fails through typed errors or `.expect("<invariant>")`,
// never by panicking (DESIGN.md §12); tests may panic.
#![deny(
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]
// Kernel arithmetic converts with `From`/`TryFrom`; an `as` cast states
// its range invariant in an `#[expect]` reason.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

mod bucket;
mod cancel;
mod extended;
pub(crate) mod invariants;
mod kparam;
mod source;

pub use bucket::BucketList;
pub use cancel::{CancelReason, CancelToken};
pub use extended::{ExtendedKl, ExtendedKlConfig, KlOutcome};
pub use kparam::KParam;
pub use source::{gain_bound, AdjacencySource};
