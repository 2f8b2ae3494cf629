//! Determinism contract of the observability layer (DESIGN.md §13).
//!
//! Everything a detector records outside the `timings` section — spans,
//! counters, histograms — must be a pure function of `(graph, seeds,
//! termination)`: byte-identical JSON at every thread count, and
//! unchanged when an injected fault is absorbed by the retry path. The
//! `timings` section is the one sanctioned wall-clock sink, and
//! [`rejecto_obs::strip_timings`] must recover the deterministic
//! document from the full rendering.

#![deny(clippy::unwrap_used)]

use rejecto_core::{FaultPlan, IterativeDetector, RejectoConfig, Seeds, Termination};
use simulator::{Scenario, ScenarioConfig, SimOutput};
use socialgraph::surrogates::Surrogate;

fn simulated_scenario(seed: u64) -> SimOutput {
    let host = Surrogate::Facebook.generate_scaled(seed, 0.02);
    let config = ScenarioConfig { num_fakes: 50, ..ScenarioConfig::default() };
    Scenario::new(config).run(&host, seed)
}

fn metrics_with(sim: &SimOutput, threads: usize, faults: Option<&str>) -> String {
    let mut config = RejectoConfig { threads, ..RejectoConfig::default() };
    if let Some(spec) = faults {
        config.faults = FaultPlan::parse(spec).expect("valid fault spec");
    }
    let mut det = IterativeDetector::new(config);
    let obs = rejecto_obs::Obs::default();
    det.set_obs(obs.clone());
    det.detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(50));
    obs.deterministic_json()
}

#[test]
fn metrics_are_byte_identical_across_thread_counts() {
    let sim = simulated_scenario(11);
    let serial = metrics_with(&sim, 1, None);
    let parallel = metrics_with(&sim, 4, None);
    assert!(serial.contains("\"kl/moves_committed\""), "{serial}");
    assert!(serial.contains("\"detect/rounds\""), "{serial}");
    assert_eq!(serial, parallel, "metrics must not depend on the thread count");
}

#[test]
fn an_absorbed_panic_leaves_no_trace_in_the_metrics() {
    let sim = simulated_scenario(12);
    let clean = metrics_with(&sim, 2, None);
    let faulted = metrics_with(&sim, 2, Some("worker_panic@k=3"));
    assert_eq!(clean, faulted, "a retried panic must not leak into the metrics");
}

#[test]
fn strip_timings_recovers_the_deterministic_document() {
    let sim = simulated_scenario(13);
    let mut det = IterativeDetector::new(RejectoConfig::default());
    let obs = rejecto_obs::Obs::default();
    det.set_obs(obs.clone());
    det.detect(&sim.graph, &Seeds::default(), Termination::SuspectBudget(50));
    assert_eq!(rejecto_obs::strip_timings(&obs.to_json()), obs.deterministic_json());
}
