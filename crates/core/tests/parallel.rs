//! Serial-vs-parallel equivalence of the full iterative detector.
//!
//! The `k` sweep's worker pool must be invisible in the output: the
//! reduction is ordered by sweep index, every per-`k` KL run is a pure
//! function of `(graph, k, seeds, placement)`, and the pruning loop is
//! driven entirely by the per-round winner. So `threads = 1` (the exact
//! serial code path, no pool at all) and `threads = 4` must produce
//! *identical* `DetectionReport`s — same groups, same rounds, same
//! bit-exact acceptance rates — on a full simulated scenario, not just a
//! hand-built toy graph. `cargo xtask check --determinism` enforces the
//! same contract in-process on every CI run.

#![deny(clippy::unwrap_used)]

use rejecto_core::{DetectionReport, IterativeDetector, RejectoConfig, Seeds, Termination};
use simulator::{Scenario, ScenarioConfig, SimOutput};
use socialgraph::surrogates::Surrogate;

fn simulated_scenario(seed: u64) -> SimOutput {
    let host = Surrogate::Facebook.generate_scaled(seed, 0.02);
    let config = ScenarioConfig { num_fakes: 50, ..ScenarioConfig::default() };
    Scenario::new(config).run(&host, seed)
}

fn detect_with_threads(sim: &SimOutput, threads: usize) -> DetectionReport {
    let config = RejectoConfig { threads, ..RejectoConfig::default() };
    IterativeDetector::new(config).detect(
        &sim.graph,
        &Seeds::default(),
        Termination::SuspectBudget(50),
    )
}

/// Field-by-field comparison with bit-exact float checks, so a mismatch
/// names the offending group instead of dumping two whole reports.
fn assert_reports_identical(serial: &DetectionReport, parallel: &DetectionReport, label: &str) {
    assert_eq!(serial.rounds, parallel.rounds, "{label}: round counts differ");
    assert_eq!(serial.groups.len(), parallel.groups.len(), "{label}: group counts differ");
    for (i, (s, p)) in serial.groups.iter().zip(&parallel.groups).enumerate() {
        assert_eq!(s.nodes, p.nodes, "{label}: group {i} members differ");
        assert_eq!(s.round, p.round, "{label}: group {i} rounds differ");
        assert_eq!(s.k, p.k, "{label}: group {i} winning k differs");
        assert_eq!(
            s.acceptance_rate.to_bits(),
            p.acceptance_rate.to_bits(),
            "{label}: group {i} acceptance rates differ ({} vs {})",
            s.acceptance_rate,
            p.acceptance_rate
        );
    }
    assert_eq!(
        serial.completion, parallel.completion,
        "{label}: completion states differ"
    );
    assert_eq!(serial.failures, parallel.failures, "{label}: failure records differ");
    // Belt and braces: the derived PartialEq must agree with the
    // field-by-field walk above.
    assert_eq!(serial, parallel, "{label}: reports differ");
}

#[test]
fn four_threads_match_serial_on_a_simulated_scenario() {
    let sim = simulated_scenario(11);
    let serial = detect_with_threads(&sim, 1);
    assert!(
        !serial.groups.is_empty(),
        "scenario must actually exercise the detector (no groups found)"
    );
    let parallel = detect_with_threads(&sim, 4);
    assert_reports_identical(&serial, &parallel, "threads=4");
}

#[test]
fn oversubscribed_pool_matches_serial() {
    // More workers than sweep points: the pool clamps to the job count and
    // the result must still be identical.
    let sim = simulated_scenario(23);
    let serial = detect_with_threads(&sim, 1);
    let parallel = detect_with_threads(&sim, 64);
    assert_reports_identical(&serial, &parallel, "threads=64");
}

#[test]
fn auto_thread_count_matches_serial() {
    // threads = 0 resolves to available parallelism; whatever the machine
    // offers, the answer must not move.
    let sim = simulated_scenario(37);
    let serial = detect_with_threads(&sim, 1);
    let auto = detect_with_threads(&sim, 0);
    assert_reports_identical(&serial, &auto, "threads=auto");
}
