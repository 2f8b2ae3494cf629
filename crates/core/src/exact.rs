//! Exact MAAR solving by exhaustive enumeration — a test oracle.
//!
//! The MAAR problem is NP-hard (§IV-B), so this is only feasible for tiny
//! graphs; it exists to validate the extended-KL sweep (does the heuristic
//! find the true optimum?) and to demonstrate Theorem 1 concretely (the
//! optimal cut is the minimizer of the linear objective at `k = k*`).

use rejection::{AugmentedGraph, NodeId, Partition, Region};

/// Hard limit on the exhaustive search (2^n cuts).
pub const EXACT_NODE_LIMIT: usize = 20;

/// The exact minimum-aggregate-acceptance-rate cut of `g`, enumerating all
/// non-trivial suspect sets with `|U| <= max_suspects`. Returns `None` when
/// no cut carries any request (friendship or rejection) across it.
///
/// Ties are broken toward the lexicographically smallest suspect bitmask,
/// which makes the oracle deterministic.
///
/// # Panics
///
/// Panics if `g` has more than [`EXACT_NODE_LIMIT`] nodes.
pub fn exact_maar_cut(g: &AugmentedGraph, max_suspects: usize) -> Option<(Partition, f64)> {
    let n = g.num_nodes();
    assert!(
        n <= EXACT_NODE_LIMIT,
        "exhaustive MAAR is limited to {EXACT_NODE_LIMIT} nodes, got {n}"
    );
    let mut best: Option<(u32, Partition, f64)> = None;
    for mask in 1u32..(1u32 << n) {
        #[expect(
            clippy::as_conversions,
            reason = "a u32 popcount is at most 32 and always fits usize"
        )]
        if (mask.count_ones() as usize) > max_suspects {
            continue;
        }
        let regions: Vec<Region> = (0..n)
            .map(|i| {
                if mask & (1 << i) != 0 {
                    Region::Suspect
                } else {
                    Region::Legit
                }
            })
            .collect();
        let p = Partition::from_regions(g, regions);
        let Some(ac) = p.acceptance_rate() else { continue };
        let better = match &best {
            None => true,
            Some((_, _, b)) => ac < *b - 1e-15,
        };
        if better {
            best = Some((mask, p, ac));
        }
    }
    best.map(|(_, p, ac)| (p, ac))
}

/// Theorem-1 check: the exact minimizer of the *linear* objective
/// `|F| − k·|R|` over all cuts, for a rational `k = num/den`. Used by tests
/// to verify that the MAAR cut is the zero of the linear family at
/// `k = k*`.
///
/// Returns `(suspect_ids, objective_value_scaled_by_den)`.
///
/// # Panics
///
/// Panics if `g` has more than [`EXACT_NODE_LIMIT`] nodes.
pub fn exact_linear_cut(g: &AugmentedGraph, num: i64, den: i64) -> (Vec<NodeId>, i64) {
    let n = g.num_nodes();
    assert!(
        n <= EXACT_NODE_LIMIT,
        "exhaustive search is limited to {EXACT_NODE_LIMIT} nodes, got {n}"
    );
    let mut best_mask = 0u32;
    let mut best_obj = 0i64; // empty cut
    for mask in 1u32..(1u32 << n) {
        let regions: Vec<Region> = (0..n)
            .map(|i| {
                if mask & (1 << i) != 0 {
                    Region::Suspect
                } else {
                    Region::Legit
                }
            })
            .collect();
        let p = Partition::from_regions(g, regions);
        let cf = i64::try_from(p.cross_friendships()).expect("edge count fits in i64");
        let cr = i64::try_from(p.cross_rejections()).expect("edge count fits in i64");
        let obj = den * cf - num * cr;
        if obj < best_obj {
            best_obj = obj;
            best_mask = mask;
        }
    }
    let suspects = (0..n)
        .filter(|i| best_mask & (1 << i) != 0)
        .map(NodeId::from_index)
        .collect();
    (suspects, best_obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MaarSolver, RejectoConfig};
    use rejection::AugmentedGraphBuilder;

    fn spam_graph() -> AugmentedGraph {
        // 4 legit (clique-ish), 3 fakes (triangle), 1 attack edge,
        // 5 rejections onto the fakes.
        let mut b = AugmentedGraphBuilder::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)] {
            b.add_friendship(NodeId(u), NodeId(v));
        }
        for (u, v) in [(4, 5), (5, 6), (4, 6)] {
            b.add_friendship(NodeId(u), NodeId(v));
        }
        b.add_friendship(NodeId(3), NodeId(4));
        for (r, s) in [(0, 4), (1, 5), (2, 6), (1, 4), (3, 6)] {
            b.add_rejection(NodeId(r), NodeId(s));
        }
        b.build()
    }

    #[test]
    fn exact_oracle_finds_the_fake_triangle() {
        let g = spam_graph();
        let (p, ac) = exact_maar_cut(&g, 3).expect("cut exists");
        assert_eq!(p.suspects(), vec![NodeId(4), NodeId(5), NodeId(6)]);
        assert!((ac - 1.0 / 6.0).abs() < 1e-12); // 1 friendship vs 5 rejections
    }

    #[test]
    fn heuristic_sweep_matches_the_oracle() {
        let g = spam_graph();
        let (exact, exact_ac) = exact_maar_cut(&g, 3).expect("cut exists");
        let heur = MaarSolver::new(RejectoConfig::default())
            .solve(&g, &[], &[])
            .expect("heuristic cut");
        assert_eq!(heur.suspects(), exact.suspects());
        assert!((heur.acceptance_rate - exact_ac).abs() < 1e-12);
    }

    #[test]
    fn theorem1_zero_at_k_star() {
        // The MAAR cut has F=1, R=5 ⇒ k* = 1/5. At k = k*, the linear
        // objective of the optimal cut is exactly zero and no cut is
        // negative; just below k*, every cut is positive (empty wins);
        // just above, the MAAR cut's objective goes negative.
        let g = spam_graph();
        let (at_star, obj_star) = exact_linear_cut(&g, 1, 5);
        assert_eq!(obj_star, 0, "objective at k* must be zero");
        // The zero may be attained by the empty cut or the MAAR cut; both
        // are admissible minimizers at exactly k*.
        assert!(at_star.is_empty() || at_star == vec![NodeId(4), NodeId(5), NodeId(6)]);

        let (below, obj_below) = exact_linear_cut(&g, 1, 6); // k < k*
        assert_eq!(obj_below, 0);
        assert!(below.is_empty(), "below k* the empty cut is strictly optimal");

        let (above, obj_above) = exact_linear_cut(&g, 1, 4); // k > k*
        assert!(obj_above < 0);
        assert_eq!(above, vec![NodeId(4), NodeId(5), NodeId(6)]);
    }

    #[test]
    fn no_requests_no_cut() {
        let mut b = AugmentedGraphBuilder::new(3);
        b.add_friendship(NodeId(0), NodeId(1));
        let g = b.build();
        // Friendship-only graphs have no rejection to cut; every candidate
        // has AC = 1 which is still "a cut", so the oracle returns the
        // best available (AC 1.0).
        let (_, ac) = exact_maar_cut(&g, 3).expect("friendship cut exists");
        assert_eq!(ac, 1.0);
    }

    #[test]
    #[should_panic(expected = "limited")]
    fn oracle_refuses_large_graphs() {
        let g = AugmentedGraphBuilder::new(25).build();
        let _ = exact_maar_cut(&g, 5);
    }
}
