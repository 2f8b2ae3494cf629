//! Accuracy gate: what Rejecto detects on two fixed instances, pinned.
//!
//! A refactor or a speedup must not trade detection quality away. Each
//! instance is run by the single-process detector at threads 1 and 4 and
//! by the distributed detector at workers 1 and 4, and every run must hit
//! the same pinned precision and recall (exact counts against the
//! simulator's ground truth) and the same CRC32 digest of its groups
//! (round, exact winning `k`, acceptance-rate bits, node ids).
//!
//! The instances are the determinism harness's: the Facebook surrogate at
//! 2% scale with 60 fakes, seed 7, plain and under the self-rejection
//! attack. A change that moves a pin changes what the detector finds; the
//! pins are only updated together with an explanation of why.

use rejecto::dataflow::{ClusterConfig, DistributedDetector};
use rejecto::rejecto_core::store::crc32;
use rejecto::rejecto_core::{DetectionReport, IterativeDetector, RejectoConfig, Seeds, Termination};
use rejecto::simulator::{Scenario, ScenarioConfig, SelfRejectionConfig, SimOutput};
use rejecto::socialgraph::surrogates::Surrogate;
use std::fmt::Write as _;

const SCALE: f64 = 0.02;
const FAKES: usize = 60;
const SEED: u64 = 7;

/// Expected accuracy of one instance: precision is
/// `true_positives / declared`, recall is `true_positives / actual`.
struct Pin {
    true_positives: usize,
    declared: usize,
    actual: usize,
    digest: u32,
}

fn simulate(self_rejection: Option<SelfRejectionConfig>) -> SimOutput {
    let host = Surrogate::Facebook.generate_scaled(SEED, SCALE);
    let config = ScenarioConfig { num_fakes: FAKES, self_rejection, ..ScenarioConfig::default() };
    Scenario::new(config).run(&host, SEED)
}

/// CRC32 of the report's groups, with `k` as its exact rational and the
/// acceptance rate by its bits.
fn digest(report: &DetectionReport) -> u32 {
    let mut out = String::new();
    for g in &report.groups {
        let _ = writeln!(
            out,
            "round={} k={}/{} ac_bits={:016x} nodes={:?}",
            g.round,
            g.k.num(),
            g.k.den(),
            g.acceptance_rate.to_bits(),
            g.nodes
        );
    }
    crc32(out.as_bytes())
}

/// Runs the instance on both runtimes at two parallelism levels and checks
/// every report against `pin`.
fn assert_pinned(name: &str, sim: &SimOutput, pin: &Pin) {
    let budget = Termination::SuspectBudget(FAKES);
    let mut runs: Vec<(String, DetectionReport)> = Vec::new();
    for threads in [1, 4] {
        let det = IterativeDetector::new(RejectoConfig { threads, ..RejectoConfig::default() });
        let report = det.detect(&sim.graph, &Seeds::default(), budget);
        runs.push((format!("threads={threads}"), report));
    }
    for workers in [1, 4] {
        let cluster = ClusterConfig { num_workers: workers, ..ClusterConfig::default() };
        let report = DistributedDetector::new(cluster, RejectoConfig::default())
            .detect(&sim.graph, &Seeds::default(), budget)
            .expect("a healthy cluster detects");
        runs.push((format!("workers={workers}"), report));
    }
    for (leg, report) in &runs {
        let suspects: Vec<usize> =
            report.suspects_top(FAKES, &sim.graph).iter().map(|s| s.index()).collect();
        let pr = rejecto::eval::precision_recall(&suspects, &sim.is_fake);
        assert_eq!(
            (pr.true_positives, pr.declared, pr.actual),
            (pin.true_positives, pin.declared, pin.actual),
            "{name} {leg}: precision {} recall {} moved off the pin",
            pr.precision(),
            pr.recall()
        );
        assert_eq!(digest(report), pin.digest, "{name} {leg}: report digest moved off the pin");
    }
}

#[test]
fn plain_attack_accuracy_is_pinned() {
    let pin = Pin { true_positives: 60, declared: 60, actual: 60, digest: 0xc976_eacb };
    assert_pinned("plain", &simulate(None), &pin);
}

#[test]
fn self_rejection_attack_accuracy_is_pinned() {
    let attack = SelfRejectionConfig {
        whitewashed: 30,
        requests_per_sender: 20,
        rejection_rate: 0.95,
    };
    let pin = Pin { true_positives: 59, declared: 60, actual: 60, digest: 0xceb7_24a8 };
    assert_pinned("self-rejection", &simulate(Some(attack)), &pin);
}
