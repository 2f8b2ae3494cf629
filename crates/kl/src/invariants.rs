//! Release-strength structural checks, compiled only under the
//! `debug-invariants` feature.
//!
//! The hot-path bookkeeping in [`BucketList`] guards its preconditions
//! with `debug_assert!` (the kernel sits inside every worker's sweep and
//! must not abort release runs on a recoverable slip). The functions
//! here are the counterweight: full-structure walks that re-derive every
//! summary the `O(1)` operations maintain incrementally, and `assert!`
//! hard when the structure is corrupted. This module is the sanctioned
//! home for such aborts — a corrupted structure has no degraded answer
//! to give — so `cargo xtask check`'s `assert!` ban skips `*invariants*`
//! modules by path, and the crate's `as` audit stops here.

#![cfg(feature = "debug-invariants")]
#![expect(clippy::as_conversions, reason = "checker-only index arithmetic over node ids < 2^32")]

use crate::bucket::{BucketList, NIL};

/// Walks every gain chain of `b` and checks:
///
/// * each chained node is marked present and filed under the bucket its
///   recorded gain maps to, with correct back-links;
/// * the chains reach exactly `len` nodes (no orphans, no cycles);
/// * no bucket above the high-water mark is non-empty;
/// * the present-flag population equals `len`.
///
/// # Panics
///
/// Panics on the first structural inconsistency.
pub fn assert_bucket_consistent(b: &BucketList) {
    let mut reached = 0usize;
    for (bi, &head) in b.heads.iter().enumerate() {
        assert!(
            bi <= b.high || head == NIL,
            "bucket {bi} non-empty above high-water mark {}",
            b.high
        );
        let mut prev = NIL;
        let mut cur = head;
        while cur != NIL {
            let i = cur as usize;
            assert!(b.present[i], "chained node {cur} not marked present");
            assert_eq!(
                b.gain[i] - b.min_gain,
                bi as i64,
                "node {cur} with gain {} filed in bucket {bi}",
                b.gain[i]
            );
            assert_eq!(b.prev[i], prev, "broken back-link at node {cur}");
            reached += 1;
            assert!(reached <= b.len, "cycle or orphan chain in bucket {bi}");
            prev = cur;
            cur = b.next[i];
        }
    }
    assert_eq!(reached, b.len, "{reached} nodes reachable but len = {}", b.len);
    let present = b.present.iter().filter(|&&p| p).count();
    assert_eq!(present, b.len, "{present} present flags but len = {}", b.len);
}

/// Checks the gain index against gains recomputed from scratch: the chain
/// structure must be sound ([`assert_bucket_consistent`]) and every node
/// still indexed must carry exactly its recomputed gain. `fresh` is `None`
/// when the adjacency source could not recompute the gains.
///
/// # Panics
///
/// Panics on structural corruption, on the first indexed node whose gain
/// disagrees, or when there is nothing to check against.
pub fn assert_gains_match(b: &BucketList, fresh: Option<&[i64]>) {
    assert_bucket_consistent(b);
    let fresh = fresh.expect("gain index check: the adjacency source could not recompute gains");
    for (u, &fresh) in (0u32..).zip(fresh) {
        if !b.contains(u) {
            continue;
        }
        let indexed = b.gain_of(u);
        assert_eq!(
            indexed, fresh,
            "gain index corrupt: node {u} indexed at {indexed}, recomputed {fresh}"
        );
    }
}

/// Checks incrementally committed `(cross_friendships, cross_rejections)`
/// against the adjacency source's recount (`None` when it could not
/// recount).
///
/// # Panics
///
/// Panics when the counters drifted or there is nothing to check against.
pub fn assert_cut_counts_match(counted: (u64, u64), fresh: Option<(u64, u64)>) {
    let fresh = fresh.expect("cut check: the adjacency source could not recount the cut");
    assert_eq!(counted, fresh, "committed cut counters drifted from the recount");
}
