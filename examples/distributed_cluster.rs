//! The distributed deployment (§V): run one detection round — a single
//! MAAR sweep — on the master/worker runtime and compare against the
//! single-process detector: identical report, plus simulated
//! network-traffic accounting.
//!
//! ```sh
//! cargo run --release --example distributed_cluster
//! ```

use rejecto::dataflow::{ClusterConfig, DistributedDetector};
use rejecto::rejecto_core::{IterativeDetector, RejectoConfig, RunBudget, Seeds, Termination};
use rejecto::simulator::{Scenario, ScenarioConfig};
use rejecto::socialgraph::surrogates::Surrogate;
use std::time::Instant;

fn main() {
    let host = Surrogate::Facebook.generate_scaled(9, 0.5);
    let sim = Scenario::new(ScenarioConfig {
        num_fakes: 5_000,
        ..ScenarioConfig::default()
    })
    .run(&host, 23);
    println!(
        "graph: {} users, {} friendships, {} rejections",
        sim.graph.num_nodes(),
        sim.graph.num_friendships(),
        sim.graph.num_rejections()
    );

    let rejecto = RejectoConfig {
        budget: RunBudget { max_rounds: Some(1), ..RunBudget::unlimited() },
        ..RejectoConfig::default()
    };
    let termination = Termination::SuspectBudget(sim.fakes.len());

    #[expect(clippy::disallowed_methods, reason = "the example prints wall-clock time")]
    let t0 = Instant::now();
    let local = IterativeDetector::new(rejecto.clone()).detect(
        &sim.graph,
        &Seeds::default(),
        termination,
    );
    let group = local.groups.first().expect("a cut exists");
    println!(
        "single-process: {} suspects, acceptance rate {:.4}, {:?}",
        group.nodes.len(),
        group.acceptance_rate,
        t0.elapsed()
    );

    for workers in [1, 2, 4, 8] {
        let cluster = ClusterConfig { num_workers: workers, ..ClusterConfig::default() };
        #[expect(clippy::disallowed_methods, reason = "the example prints wall-clock time")]
    let t0 = Instant::now();
        let (report, io) = DistributedDetector::new(cluster, rejecto.clone())
            .detect_with_io(&sim.graph, &Seeds::default(), termination)
            .expect("healthy cluster must detect");
        assert_eq!(report, local, "distributed report must match");
        println!(
            "{workers} worker(s): same report in {:?} — {} fetch batches, \
             {} nodes shipped, {} buffer hits",
            t0.elapsed(),
            io.fetch_batches,
            io.nodes_fetched,
            io.buffer_hits
        );
    }
    println!("\nThe prefetching LRU buffer turns per-move fetches into one round trip per batch.");
}
