//! Table II: Rejecto's execution time against input graph size on the
//! distributed runtime (the paper: 0.5M–10M users on a 5-node Spark/EC2
//! cluster with 300 GB aggregate RAM).
//!
//! We run the same detection — the iterative cut-and-prune loop, each
//! round a geometric-`k` MAAR sweep with the §V data layout (master:
//! status + gains + bucket list; workers: sharded adjacency; prefetch
//! through an LRU buffer), each round's residual graph re-sharded onto a
//! fresh cluster — on in-process worker threads, until as many suspects
//! as injected fakes are declared. Sizes scale with `--scale` (1.0
//! reproduces the paper's row sizes; the default harness run uses a
//! laptop-friendly scale and the trend across sizes is the claim under
//! test). Simulated master↔worker traffic and precision/recall against
//! the injected fakes are reported alongside wall time, and every row's
//! report is checked against the single-process detector's.

use bench::Harness;
use dataflow::{ClusterConfig, DistributedDetector};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rejecto_core::{IterativeDetector, RejectoConfig, Seeds, Termination};
use serde::Serialize;
use simulator::{Scenario, ScenarioConfig};
use socialgraph::generators::BarabasiAlbert;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct Row {
    users: usize,
    edges: u64,
    rejections: u64,
    workers: usize,
    seconds: f64,
    fetch_batches: u64,
    nodes_fetched: u64,
    worker_restarts: u64,
    shards_rebalanced: u64,
    rounds: usize,
    suspects: usize,
    precision: f64,
    recall: f64,
}

fn main() {
    let h = Harness::from_env("table2_scalability");
    // Paper sizes: 0.5M, 1M, 2M, 5M, 10M users at ~16 edges/user.
    let paper_users = [500_000usize, 1_000_000, 2_000_000, 5_000_000, 10_000_000];
    // A shorter sweep keeps per-size runs affordable; the trend across
    // sizes is what the table shows.
    let rejecto = RejectoConfig { k_factor: 2.5, max_kl_passes: 8, ..RejectoConfig::default() };

    let mut rows = Vec::new();
    for users in paper_users {
        let n = h.n(users);
        if n < 1_000 {
            continue;
        }
        // ~90% legit / 10% fakes, average degree ≈ 16 like the paper's
        // edge budget.
        let legit = n * 9 / 10;
        let fakes = n - legit;
        let mut rng = ChaCha8Rng::seed_from_u64(h.seed);
        let host = BarabasiAlbert::new(legit, 8).generate(&mut rng);
        let sim = Scenario::new(ScenarioConfig {
            num_fakes: fakes,
            ..ScenarioConfig::default()
        })
        .run(&host, h.seed);

        // The paper provisions the master's memory to the graph ("provided
        // that the aggregate memory of the cluster suffices"); size the
        // prefetch buffer accordingly so Table II measures scaling, not
        // buffer thrash (the ablation_prefetch harness studies constrained
        // buffers).
        let cluster = ClusterConfig {
            num_workers: 4,
            prefetch_batch: 512,
            buffer_capacity: n.max(1024),
            ..ClusterConfig::default()
        };
        let mut detector = DistributedDetector::new(cluster, rejecto.clone());
        detector.set_obs(h.obs.clone());
        #[expect(clippy::disallowed_methods, reason = "the experiment reports wall-clock time")]
        let start = Instant::now();
        let (report, io) = detector
            .detect_with_io(&sim.graph, &Seeds::default(), Termination::SuspectBudget(fakes))
            .expect("healthy cluster must detect");
        let elapsed = start.elapsed();
        // Both runtimes run one pruning loop, so they must report the same.
        let local = IterativeDetector::new(rejecto.clone()).detect(
            &sim.graph,
            &Seeds::default(),
            Termination::SuspectBudget(fakes),
        );
        assert_eq!(report, local, "distributed and single-process reports differ at {n} users");
        let suspects: Vec<usize> = report.suspects().iter().map(|u| u.index()).collect();
        let pr = eval::precision_recall(&suspects, &sim.is_fake);
        eprintln!(
            "  users={n} edges={} time={elapsed:.2?} rounds={} batches={} fetched={} \
             precision={:.4} recall={:.4}",
            sim.graph.num_friendships(),
            report.rounds,
            io.fetch_batches,
            io.nodes_fetched,
            pr.precision(),
            pr.recall()
        );
        rows.push(Row {
            users: n,
            edges: sim.graph.num_friendships(),
            rejections: sim.graph.num_rejections(),
            workers: cluster.num_workers,
            seconds: elapsed.as_secs_f64(),
            fetch_batches: io.fetch_batches,
            nodes_fetched: io.nodes_fetched,
            worker_restarts: io.worker_restarts,
            shards_rebalanced: io.shards_rebalanced,
            rounds: report.rounds,
            suspects: suspects.len(),
            precision: pr.precision(),
            recall: pr.recall(),
        });
    }
    let mut t = eval::table::Table::new([
        "users",
        "edges",
        "rejections",
        "workers",
        "time(s)",
        "rounds",
        "fetch_batches",
        "nodes_fetched",
        "suspects",
        "precision",
        "recall",
    ]);
    for r in &rows {
        t.row([
            r.users.to_string(),
            r.edges.to_string(),
            r.rejections.to_string(),
            r.workers.to_string(),
            format!("{:.2}", r.seconds),
            r.rounds.to_string(),
            r.fetch_batches.to_string(),
            r.nodes_fetched.to_string(),
            r.suspects.to_string(),
            format!("{:.4}", r.precision),
            format!("{:.4}", r.recall),
        ]);
    }
    h.emit(&t, &rows);
}
