//! Debug-build invariant checkers for the detection pipeline, compiled only
//! under the `debug-invariants` feature.
//!
//! Two bookkeeping schemes are incremental and therefore corruptible by a
//! wrong delta: a [`rejection::Partition`]'s cross-edge counters (kept
//! through `switch`, or committed move by move by extended KL), and the
//! disjoint spammer groups [`crate::IterativeDetector::detect`] accumulates
//! across pruning rounds. The checkers here re-derive both from scratch and
//! panic on the first disagreement. The report checker is wired into the
//! pruning loop (extended KL checks its own committed counters through its
//! adjacency source); both are public so tests (and `cargo xtask check`'s
//! determinism harness) can apply them to arbitrary outputs.

use crate::DetectionReport;
use rejection::{AugmentedGraph, Partition};

/// Re-derives a partition's incremental cut counters from the graph and
/// asserts they match: coverage (`p` assigns a region to exactly the nodes
/// of `g`), the suspect count, `cross_friendships` (friendships with
/// endpoints in different regions), and `cross_rejections` (rejections cast
/// by the legit region on the suspect region).
///
/// # Panics
///
/// Panics on the first counter that disagrees with recomputation.
pub fn assert_partition_bookkeeping(g: &AugmentedGraph, p: &Partition) {
    assert_eq!(
        p.len(),
        g.num_nodes(),
        "partition covers {} nodes, graph has {}",
        p.len(),
        g.num_nodes()
    );
    let fresh = Partition::from_regions(g, p.regions().to_vec());
    assert_eq!(
        p.suspect_count(),
        fresh.suspect_count(),
        "suspect_count {} but {} nodes are in the suspect region",
        p.suspect_count(),
        fresh.suspect_count()
    );
    assert_eq!(
        p.cross_friendships(),
        fresh.cross_friendships(),
        "cross_friendships counter {} but {} friendships cross the cut",
        p.cross_friendships(),
        fresh.cross_friendships()
    );
    assert_eq!(
        p.cross_rejections(),
        fresh.cross_rejections(),
        "cross_rejections counter {} but {} rejections cross the cut",
        p.cross_rejections(),
        fresh.cross_rejections()
    );
}

/// Checks the pruning loop's accumulated state on the *original* graph `g`:
/// groups must be pairwise disjoint (a pruned node can never resurface),
/// every member must name a node of `g`, round numbers must be recorded in
/// order, and every group's acceptance rate must be a valid rate in
/// `[0, 1]`.
///
/// Per-round acceptance rates are deliberately NOT asserted monotone.
/// §IV-E's prune-and-repeat intuition (each round removes the currently
/// most-rejected group, so the residual graph looks more legitimate) holds
/// on the paper's spam scenarios and is pinned by scenario-level tests,
/// but it is not an invariant of the algorithm: the k-sweep runs a *local*
/// search, so a later round can surface a low-rate pocket the earlier
/// sweep missed — random small graphs with noise rejections produce
/// counterexamples (found by the checkpoint round-trip proptest).
///
/// # Panics
///
/// Panics on the first violated property.
pub fn assert_report_bookkeeping(g: &AugmentedGraph, report: &DetectionReport) {
    let mut seen = vec![false; g.num_nodes()];
    for group in &report.groups {
        assert!(
            group.round >= 1 && group.round <= report.rounds,
            "group round {} outside 1..={}",
            group.round,
            report.rounds
        );
        for &u in &group.nodes {
            assert!(
                u.index() < g.num_nodes(),
                "detected node {u} out of range ({} nodes)",
                g.num_nodes()
            );
            assert!(!seen[u.index()], "node {u} detected in two groups");
            seen[u.index()] = true;
        }
    }
    for group in &report.groups {
        assert!(
            (0.0..=1.0).contains(&group.acceptance_rate),
            "acceptance rate out of range in round {}: {}",
            group.round,
            group.acceptance_rate
        );
    }
    for w in report.groups.windows(2) {
        assert!(
            w[0].round < w[1].round,
            "group rounds out of order: {} then {}",
            w[0].round,
            w[1].round
        );
    }
}
