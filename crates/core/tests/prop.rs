//! Property-based validation of the MAAR heuristic against the exhaustive
//! oracle on small random graphs.

#![deny(clippy::unwrap_used)]

use proptest::prelude::*;
use rejecto_core::{exact, MaarSolver, RejectoConfig};
use rejection::{AugmentedGraph, AugmentedGraphBuilder, NodeId};

/// Random small "spam-shaped" instance: a legit cluster with internal
/// friendships, a fake cluster, some attack edges, and rejections from
/// legit onto fakes (plus optional noise rejections among legit).
fn spam_instance() -> impl Strategy<Value = AugmentedGraph> {
    (
        3usize..7,                                             // legit count
        2usize..5,                                             // fake count
        proptest::collection::vec((0u32..7, 0u32..7), 2..12),  // legit friendships
        proptest::collection::vec((0u32..5, 0u32..5), 1..6),   // fake friendships
        proptest::collection::vec((0u32..7, 0u32..5), 0..3),   // attack edges
        proptest::collection::vec((0u32..7, 0u32..5), 2..10),  // rejections legit→fake
        proptest::collection::vec((0u32..7, 0u32..7), 0..2),   // noise rejections
    )
        .prop_map(|(nl, nf, lf, ff, attack, rej, noise)| {
            let mut b = AugmentedGraphBuilder::new(nl + nf);
            let l = |x: u32| NodeId(x % nl as u32);
            let f = |x: u32| NodeId(nl as u32 + (x % nf as u32));
            for (u, v) in lf {
                b.add_friendship(l(u), l(v));
            }
            for (u, v) in ff {
                b.add_friendship(f(u), f(v));
            }
            for (u, v) in attack {
                b.add_friendship(l(u), f(v));
            }
            for (r, s) in rej {
                b.add_rejection(l(r), f(s));
            }
            for (r, s) in noise {
                b.add_rejection(l(r), l(s));
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feasibility: the heuristic's cut never beats the exhaustive
    /// optimum over its own feasible family (suspect regions within the
    /// size cap).
    #[test]
    fn heuristic_never_beats_the_oracle(g in spam_instance()) {
        let config = RejectoConfig { k_factor: 1.2, ..RejectoConfig::default() };
        let cap = (config.max_suspect_fraction * g.num_nodes() as f64).floor() as usize;
        if cap == 0 { return Ok(()); }
        let heur = MaarSolver::new(config).solve(&g, &[], &[]);
        if let (Some(h), Some((_, best_ac))) = (heur, exact::exact_maar_cut(&g, cap)) {
            prop_assert!(
                h.acceptance_rate >= best_ac - 1e-12,
                "heuristic beat the oracle: {} < {}", h.acceptance_rate, best_ac
            );
            prop_assert!(h.partition.suspect_count() <= cap);
        }
    }

    /// Completeness (unconstrained): with the size cap disabled, whenever
    /// the oracle finds a genuinely rejection-heavy cut (low AC), the
    /// k-sweep finds a cut of comparable quality.
    #[test]
    fn unconstrained_sweep_tracks_the_oracle(g in spam_instance()) {
        let config = RejectoConfig {
            k_factor: 1.2,
            max_suspect_fraction: 1.0,
            ..RejectoConfig::default()
        };
        let n = g.num_nodes();
        let heur = MaarSolver::new(config).solve(&g, &[], &[]);
        let oracle = exact::exact_maar_cut(&g, n - 1);
        match (heur, oracle) {
            (Some(h), Some((_, best_ac))) => {
                prop_assert!(h.acceptance_rate >= best_ac - 1e-12);
                // Local search should land close to the optimum on
                // instances this small.
                prop_assert!(
                    h.acceptance_rate <= best_ac + 0.34,
                    "heuristic too far from optimum: {} vs {}",
                    h.acceptance_rate, best_ac
                );
            }
            (None, Some((p, ac))) => {
                // Friendship-only "cuts" (AC ≈ 1) are rightly rejected as
                // not spam-shaped (positive objective for every k).
                prop_assert!(
                    ac > 0.9,
                    "heuristic missed a strong cut: AC {} on suspects {:?}",
                    ac, p.suspects()
                );
            }
            _ => {}
        }
    }

    /// Any cut the heuristic reports is internally consistent: its
    /// acceptance rate recomputes from the partition it returns.
    #[test]
    fn reported_rate_matches_partition(g in spam_instance()) {
        if let Some(cut) = MaarSolver::new(RejectoConfig::default()).solve(&g, &[], &[]) {
            let recomputed = cut.partition.acceptance_rate().expect("cut carries requests");
            prop_assert!((recomputed - cut.acceptance_rate).abs() < 1e-12);
            let cap = (RejectoConfig::default().max_suspect_fraction
                * g.num_nodes() as f64)
                .floor() as usize;
            prop_assert!(cut.partition.suspect_count() <= cap);
        }
    }
}
