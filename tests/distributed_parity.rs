//! Cross-validation of the distributed runtime against the single-process
//! detector: identical reports, every round, on varied scenarios, cluster
//! shapes, and buffer configurations.

use rejecto::dataflow::{ClusterConfig, DistributedDetector};
use rejecto::rejection::{AugmentedGraphBuilder, NodeId};
use rejecto::rejecto_core::{IterativeDetector, RejectoConfig, Seeds, Termination};
use rejecto::simulator::{Scenario, ScenarioConfig, SelfRejectionConfig};
use rejecto::socialgraph::surrogates::Surrogate;

fn check_parity(cfg: ScenarioConfig, cluster: ClusterConfig, seed: u64) {
    let host = Surrogate::Facebook.generate_scaled(seed, 0.04);
    let termination = Termination::SuspectBudget(cfg.num_fakes);
    let sim = Scenario::new(cfg).run(&host, seed);
    let rejecto = RejectoConfig::default();
    let local = IterativeDetector::new(rejecto.clone()).detect(
        &sim.graph,
        &Seeds::default(),
        termination,
    );
    let dist = DistributedDetector::new(cluster, rejecto)
        .detect(&sim.graph, &Seeds::default(), termination)
        .expect("healthy cluster must detect");
    assert!(!local.groups.is_empty(), "fixture degenerated: no group found (seed {seed})");
    assert_eq!(dist, local, "report mismatch (seed {seed})");
}

#[test]
fn parity_on_baseline_attack() {
    check_parity(
        ScenarioConfig { num_fakes: 400, ..ScenarioConfig::default() },
        ClusterConfig::default(),
        21,
    );
}

#[test]
fn parity_under_collusion() {
    check_parity(
        ScenarioConfig { num_fakes: 400, fake_intra_edges: 30, ..ScenarioConfig::default() },
        ClusterConfig { num_workers: 3, ..ClusterConfig::default() },
        22,
    );
}

#[test]
fn parity_under_self_rejection() {
    check_parity(
        ScenarioConfig {
            num_fakes: 400,
            self_rejection: Some(SelfRejectionConfig {
                whitewashed: 200,
                requests_per_sender: 20,
                rejection_rate: 0.85,
            }),
            ..ScenarioConfig::default()
        },
        ClusterConfig { num_workers: 7, ..ClusterConfig::default() },
        23,
    );
}

#[test]
fn parity_with_pathological_buffer() {
    // A one-entry buffer with single-node batches must still be correct.
    check_parity(
        ScenarioConfig { num_fakes: 300, ..ScenarioConfig::default() },
        ClusterConfig {
            num_workers: 2,
            prefetch_batch: 1,
            buffer_capacity: 1,
            ..ClusterConfig::default()
        },
        24,
    );
}

#[test]
fn parity_with_more_workers_than_meaningful_shards() {
    check_parity(
        ScenarioConfig { num_fakes: 100, ..ScenarioConfig::default() },
        ClusterConfig { num_workers: 64, ..ClusterConfig::default() },
        25,
    );
}

#[test]
fn tiny_graph_suspect_cap_clamps_to_one_on_the_cluster() {
    // Triangle 0–1–2; node 3 rejected by all three. With
    // max_suspect_fraction 0.2 an unclamped cap floors 0.2 · 4 to 0 and
    // discards even this single blatant spammer.
    let mut b = AugmentedGraphBuilder::new(4);
    b.add_friendship(NodeId(0), NodeId(1));
    b.add_friendship(NodeId(1), NodeId(2));
    b.add_friendship(NodeId(0), NodeId(2));
    for r in 0..3u32 {
        b.add_rejection(NodeId(r), NodeId(3));
    }
    let g = b.build();
    let config = RejectoConfig { max_suspect_fraction: 0.2, ..RejectoConfig::default() };
    let cluster = ClusterConfig { num_workers: 2, ..ClusterConfig::default() };

    let termination = Termination::SuspectBudget(1);
    let local_report =
        IterativeDetector::new(config.clone()).detect(&g, &Seeds::default(), termination);
    assert_eq!(local_report.suspects(), vec![NodeId(3)]);
    let dist_report = DistributedDetector::new(cluster, config)
        .detect(&g, &Seeds::default(), termination)
        .expect("healthy cluster must detect");
    assert_eq!(dist_report.suspects(), vec![NodeId(3)]);
    assert_eq!(dist_report, local_report);
}
