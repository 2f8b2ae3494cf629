//! Ablation (§V): the master's prefetch buffer — batch size and LRU
//! capacity vs simulated master↔worker traffic and wall time.
//!
//! The paper's claim: fetching per-node on demand incurs prohibitive
//! network I/O; prefetching the bucket list's top-gain nodes in batches
//! removes round trips. `batch=1, capacity=1` approximates the naive
//! implementation. Each variant runs one detection round
//! (`max_rounds: Some(1)`), i.e. one MAAR solve.

use bench::Harness;
use dataflow::{ClusterConfig, DistributedDetector};
use rejecto_core::{RejectoConfig, RunBudget, Seeds, Termination};
use serde::Serialize;
use simulator::ScenarioConfig;
use socialgraph::surrogates::Surrogate;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct Row {
    batch: usize,
    capacity: usize,
    fetch_batches: u64,
    nodes_fetched: u64,
    buffer_hits: u64,
    seconds: f64,
}

fn main() {
    let h = Harness::from_env("ablation_prefetch");
    let host = h.host(Surrogate::Facebook);
    let sim = h.simulate(&host, ScenarioConfig::default());
    let rejecto = RejectoConfig {
        k_factor: 2.5,
        max_kl_passes: 8,
        budget: RunBudget { max_rounds: Some(1), ..RunBudget::unlimited() },
        ..RejectoConfig::default()
    };
    let termination = Termination::SuspectBudget(sim.fakes.len());

    let variants: Vec<(usize, usize)> = vec![
        (1, 1),          // naive: on-demand, no reuse
        (1, 1 << 16),    // cache without batching
        (64, 1 << 16),
        (256, 1 << 16),  // default
        (1024, 1 << 16),
        (256, 1 << 10),  // small buffer, eviction pressure
    ];

    let mut rows = Vec::new();
    let mut baseline: Option<rejecto_core::DetectionReport> = None;
    for (batch, capacity) in variants {
        let cfg = ClusterConfig {
            prefetch_batch: batch,
            buffer_capacity: capacity,
            num_workers: 4,
            ..ClusterConfig::default()
        };
        #[expect(clippy::disallowed_methods, reason = "the experiment reports wall-clock time")]
        let start = Instant::now();
        let (report, io) = DistributedDetector::new(cfg, rejecto.clone())
            .detect_with_io(&sim.graph, &Seeds::default(), termination)
            .expect("healthy cluster must solve");
        let elapsed = start.elapsed();
        // The buffer is an optimization: every variant must find the same cut.
        match &baseline {
            None => baseline = Some(report),
            Some(b) => assert_eq!(b, &report, "buffering changed the cut"),
        }
        eprintln!(
            "  batch={batch} cap={capacity}: batches {} fetched {} hits {} in {elapsed:.2?}",
            io.fetch_batches, io.nodes_fetched, io.buffer_hits
        );
        rows.push(Row {
            batch,
            capacity,
            fetch_batches: io.fetch_batches,
            nodes_fetched: io.nodes_fetched,
            buffer_hits: io.buffer_hits,
            seconds: elapsed.as_secs_f64(),
        });
    }

    let mut t = eval::table::Table::new([
        "batch", "capacity", "fetch_batches", "nodes_fetched", "buffer_hits", "time(s)",
    ]);
    for r in &rows {
        t.row([
            r.batch.to_string(),
            r.capacity.to_string(),
            r.fetch_batches.to_string(),
            r.nodes_fetched.to_string(),
            r.buffer_hits.to_string(),
            format!("{:.2}", r.seconds),
        ]);
    }
    h.emit(&t, &rows);
}
