//! VoteTrust (Xue et al., INFOCOM 2013) — the baseline the paper compares
//! against (§VI).
//!
//! VoteTrust ranks users on the **directed friend-request graph** in two
//! cascaded steps:
//!
//! 1. **Vote assignment** ([`VoteTrust::votes`]): a PageRank-like random
//!    walk with restart at trusted seeds, following request edges
//!    `sender → recipient`. A user's *votes* measure how much request
//!    attention flows to them from the trusted part of the network; fakes,
//!    who receive requests almost exclusively from other fakes, get few.
//! 2. **Vote aggregation** ([`VoteTrust::ratings`]): each user's *rating*
//!    is the weighted average of the responses their requests received —
//!    1 for accepted, 0 for rejected — where a request's weight is the
//!    recipient's votes times the recipient's current rating. The
//!    computation iterates to a fixed point.
//!
//! Users are declared suspicious from the bottom of the rating order
//! ([`VoteTrustRanking::bottom`]).
//!
//! The paper identifies (and our Fig 10/13/14 harnesses reproduce) the
//! design's two weaknesses: the rating leans on *individual* acceptance
//! rates, so collusion dilutes it, and fakes that send no requests keep the
//! default rating and are missed entirely.

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

mod request_graph;
mod trust;

pub use request_graph::RequestGraph;
pub use trust::{VoteTrust, VoteTrustConfig, VoteTrustRanking};
