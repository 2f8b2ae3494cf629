//! Property-based round-trip validation of checkpoint/resume.
//!
//! The contract under test: for ANY graph, halting a run after its first
//! pruning round, serializing the checkpoint through its JSON wire
//! format, and resuming from the deserialized copy must reproduce the
//! uninterrupted run's report exactly — at both `threads = 1` (the exact
//! serial path) and `threads = 4` (a real worker pool).

#![deny(clippy::unwrap_used)]

use proptest::prelude::*;
use rejecto_core::{Checkpoint, DetectionReport, IterativeDetector, RejectoConfig, Seeds, Termination};
use rejection::{AugmentedGraph, AugmentedGraphBuilder, NodeId};

/// Random small "spam-shaped" instance, mirroring `tests/prop.rs`: a
/// legit cluster with internal friendships, a fake cluster, attack edges,
/// and rejections from legit onto fakes (plus noise rejections).
fn spam_instance() -> impl Strategy<Value = AugmentedGraph> {
    (
        3usize..7,                                            // legit count
        2usize..5,                                            // fake count
        proptest::collection::vec((0u32..7, 0u32..7), 2..12), // legit friendships
        proptest::collection::vec((0u32..5, 0u32..5), 1..6),  // fake friendships
        proptest::collection::vec((0u32..7, 0u32..5), 0..3),  // attack edges
        proptest::collection::vec((0u32..7, 0u32..5), 2..10), // rejections legit→fake
        proptest::collection::vec((0u32..7, 0u32..7), 0..2),  // noise rejections
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

fn detector(threads: usize, max_rounds: Option<usize>) -> IterativeDetector {
    let mut config = RejectoConfig { threads, ..RejectoConfig::default() };
    config.budget.max_rounds = max_rounds;
    IterativeDetector::new(config)
}

fn run(det: &IterativeDetector, g: &AugmentedGraph) -> DetectionReport {
    det.detect(g, &Seeds::default(), Termination::SuspectBudget(g.num_nodes()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// save → to_json → from_json → resume equals the uninterrupted run,
    /// for random graphs at threads ∈ {1, 4}. Graphs whose run finishes
    /// within the one-round budget exercise the degenerate case instead:
    /// the halted run must already equal the full run.
    #[test]
    fn json_round_trip_then_resume_matches_uninterrupted_run(g in spam_instance()) {
        for threads in [1usize, 4] {
            let full = run(&detector(threads, None), &g);
            let halted = run(&detector(threads, Some(1)), &g);

            if !halted.is_partial() {
                // The run needed at most one round; a checkpoint taken at
                // the budget boundary has nothing left to resume.
                prop_assert_eq!(&halted, &full, "threads={}", threads);
                continue;
            }

            let captured = Checkpoint::capture(&g, &halted);
            let json = captured.to_json();
            let restored = Checkpoint::from_json(&json);
            prop_assert!(
                restored.is_ok(),
                "checkpoint JSON did not round-trip: {:?}\n{}", restored.err(), json
            );
            let restored = restored.expect("checked is_ok above");
            prop_assert_eq!(&restored, &captured, "wire format lost information");

            let resumed = detector(threads, None)
                .run(
                    &g,
                    &Seeds::default(),
                    Termination::SuspectBudget(g.num_nodes()),
                    Some(&restored),
                    None,
                );
            prop_assert!(
                resumed.is_ok(),
                "resume rejected a checkpoint captured from its own graph: {:?}", resumed.err()
            );
            prop_assert_eq!(
                &resumed.expect("checked is_ok above"), &full,
                "threads={}: resumed run diverged from the uninterrupted run", threads
            );
        }
    }

    /// A captured checkpoint always validates against the graph it was
    /// captured from, and its structural summary matches the report.
    #[test]
    fn captured_checkpoint_validates_and_summarizes(g in spam_instance()) {
        let report = run(&detector(1, Some(1)), &g);
        let ckpt = Checkpoint::capture(&g, &report);
        prop_assert!(ckpt.validate_against(&g).is_ok());
        prop_assert_eq!(ckpt.num_nodes, g.num_nodes());
        prop_assert_eq!(ckpt.rounds, report.rounds);
        prop_assert_eq!(ckpt.groups.len(), report.groups.len());
    }
}
