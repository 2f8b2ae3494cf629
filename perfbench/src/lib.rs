//! The Rejecto end-to-end benchmark: seeded workload generation and one
//! timed ingest → detect → report run.
//!
//! A run makes the same public calls `rejecto detect` makes — open the
//! `.rjg`, `read_augmented_guarded`, an `IterativeDetector` (optionally
//! checkpointing through a `CheckpointStore`) or a `DistributedDetector`,
//! then the `--json true` report rendering — and times them from the
//! outside. Nothing inside the program is instrumented beyond the spans
//! and counters it already records when an `Obs` is attached.
//!
//! `run.py` next to this crate drives the `rjbench` binary: it generates a
//! workload from a seed, runs detections in fresh processes (so each one's
//! peak RSS is its own), checks every report, and prints the metrics.

use dataflow::{ClusterConfig, DistributedDetector, IoStats};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rejection::{AugmentedGraph, NodeId};
use rejecto_core::store::crc32;
use rejecto_core::{
    Checkpoint, CheckpointStore, DetectionReport, IterativeDetector, RejectoConfig, ResourceBudget,
    Seeds, Termination,
};
use rejecto_obs::{Obs, Stopwatch};
use simulator::{Scenario, ScenarioConfig, SelfRejectionConfig, SimOutput};
use socialgraph::generators::BarabasiAlbert;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// A benchmark failure: an I/O problem, a loader error or a runtime error,
/// rendered with its context.
#[derive(Debug)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

fn io_err(what: &str, path: &Path, e: impl fmt::Display) -> BenchError {
    BenchError(format!("{what} {}: {e}", path.display()))
}

/// Which detector a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// `IterativeDetector` with `threads` sweep workers; `checkpoint`
    /// routes every round through the durable `CheckpointStore`.
    Local { threads: usize, checkpoint: bool },
    /// `DistributedDetector` on the in-process §V cluster.
    Distributed {
        workers: usize,
        prefetch_batch: usize,
        buffer_capacity: usize,
    },
}

/// One benchmark workload: the Table II generator (Barabási–Albert host,
/// m = 8, plus the §VI-A default attack) at a fixed size, optionally under
/// the self-rejection (whitewashing) attack, and the runtime detecting it.
///
/// A seed expands into `instances` independent inputs of that shape. The
/// number of pruning rounds differs from input to input (2 to 4 on the
/// plain attack), so a single input per seed would make the benchmark's
/// figures depend on which seed it was given; the mean over many inputs
/// barely does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub legit: usize,
    pub fakes: usize,
    /// Fakes hidden behind sacrificed ones (`rejecto simulate
    /// --whitewashed`); `None` is the plain attack.
    pub whitewashed: Option<usize>,
    pub runtime: Runtime,
    /// Inputs generated per seed.
    pub instances: usize,
}

/// Every workload `rjbench` knows. `tiny` exists for the self-tests and is
/// not part of `BENCHMARK.json`.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serial-10k",
        legit: 9_000,
        fakes: 1_000,
        whitewashed: None,
        runtime: Runtime::Local {
            threads: 1,
            checkpoint: false,
        },
        instances: 22,
    },
    Workload {
        name: "whitewash-10k",
        legit: 9_000,
        fakes: 1_000,
        whitewashed: Some(500),
        runtime: Runtime::Local {
            threads: 2,
            checkpoint: true,
        },
        instances: 16,
    },
    Workload {
        name: "dist-thrash-3k",
        legit: 2_700,
        fakes: 300,
        whitewashed: None,
        // The buffer holds 0.82 of the graph: the ratio the CLI's default
        // 65,536-node buffer has to an 80k-user graph.
        runtime: Runtime::Distributed {
            workers: 2,
            prefetch_batch: 256,
            buffer_capacity: 2_460,
        },
        instances: 24,
    },
    Workload {
        name: "tiny",
        legit: 1_800,
        fakes: 200,
        whitewashed: Some(100),
        runtime: Runtime::Local {
            threads: 1,
            checkpoint: true,
        },
        instances: 2,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The suspect budget: the fake population, as `pipeline::rejecto_suspects`
    /// declares it.
    pub fn budget(&self) -> usize {
        self.fakes
    }

    /// Threads the MAAR sweep runs its `k` values on: the local pool size,
    /// or 1 for the distributed runtime, whose master walks the sweep in
    /// order.
    pub fn sweep_threads(&self) -> usize {
        match self.runtime {
            Runtime::Local { threads, .. } => threads,
            Runtime::Distributed { .. } => 1,
        }
    }

    /// Whether detection runs on a single CPU. The distributed runtime
    /// hands every prefetch batch from the master to a worker thread and
    /// back; spread over two CPUs, each hand-off pays a cross-CPU wake-up
    /// whose latency swings 2-3x with load from outside the benchmark, and
    /// that, not the runtime's own work, would set its wall time.
    pub fn single_cpu(&self) -> bool {
        matches!(self.runtime, Runtime::Distributed { .. })
    }

    /// The attack: §VI-A defaults, plus the `rejecto simulate` defaults for
    /// self-rejection (10 requests per sacrificed fake, rejection rate 0.9)
    /// when the workload whitewashes.
    pub fn scenario(&self) -> ScenarioConfig {
        ScenarioConfig {
            num_fakes: self.fakes,
            self_rejection: self.whitewashed.map(|w| SelfRejectionConfig {
                whitewashed: w,
                requests_per_sender: 10,
                rejection_rate: 0.9,
            }),
            ..ScenarioConfig::default()
        }
    }

    /// The seeds of the inputs `seed` expands into: `seed` itself first,
    /// then further draws from a ChaCha8 stream seeded with it.
    pub fn instance_seeds(&self, seed: u64) -> Vec<u64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut seeds = vec![seed];
        seeds.extend((1..self.instances).map(|_| rng.next_u64()));
        seeds
    }

    /// Generates the host and runs the attack on it, both from `seed`
    /// (the Table II harness seeds them the same way).
    pub fn simulate(&self, seed: u64) -> SimOutput {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let host = BarabasiAlbert::new(self.legit, 8).generate(&mut rng);
        Scenario::new(self.scenario()).run(&host, seed)
    }
}

/// A generated workload input.
#[derive(Debug, Clone)]
pub struct Input {
    /// The `.rjg` bytes the program under test receives.
    pub rjg: Vec<u8>,
    /// Ground truth: every fake's id.
    pub fakes: Vec<NodeId>,
    pub nodes: usize,
    pub friendships: u64,
    pub rejections: u64,
}

/// Generates `w` from `seed` and serializes it as `.rjg` bytes.
///
/// # Errors
///
/// Only if serialization fails, which an in-memory writer never does.
pub fn generate(w: &Workload, seed: u64) -> Result<Input, BenchError> {
    let sim = w.simulate(seed);
    let mut rjg = Vec::new();
    rejection::io::write_augmented(&sim.graph, &mut rjg)
        .map_err(|e| BenchError(format!("serializing the workload: {e}")))?;
    Ok(Input {
        rjg,
        fakes: sim.fakes,
        nodes: sim.graph.num_nodes(),
        friendships: sim.graph.num_friendships(),
        rejections: sim.graph.num_rejections(),
    })
}

/// Generates `w` from `seed` and writes `<stem>.rjg`, returning the input
/// and the set-up time (generation plus the `.rjg` write).
///
/// # Errors
///
/// On a failed write.
pub fn generate_to(w: &Workload, seed: u64, stem: &Path) -> Result<(Input, Duration), BenchError> {
    let clock = Stopwatch::start();
    let input = generate(w, seed)?;
    let path = stem.with_extension("rjg");
    std::fs::write(&path, &input.rjg).map_err(|e| io_err("writing", &path, e))?;
    Ok((input, clock.elapsed()))
}

/// Writes the ground truth next to the input as `<stem>.truth`, one fake id
/// a line (the `rejecto simulate` format).
///
/// # Errors
///
/// On a failed write.
pub fn write_truth(stem: &Path, fakes: &[NodeId]) -> Result<(), BenchError> {
    let mut buf = String::new();
    for f in fakes {
        buf.push_str(&f.to_string());
        buf.push('\n');
    }
    let path = stem.with_extension("truth");
    std::fs::write(&path, buf).map_err(|e| io_err("writing", &path, e))
}

/// Reads `<stem>.truth` back.
///
/// # Errors
///
/// On a failed read or a malformed line.
pub fn read_truth(stem: &Path) -> Result<Vec<NodeId>, BenchError> {
    let path = stem.with_extension("truth");
    let text = std::fs::read_to_string(&path).map_err(|e| io_err("reading", &path, e))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.trim()
                .parse::<u32>()
                .map(NodeId)
                .map_err(|_| io_err("bad node id in", &path, format!("{l:?}")))
        })
        .collect()
}

/// The report's group and failure rows exactly as `rejecto detect --json
/// true` prints them. A partial run's row is left out: completion is
/// checked on its own.
pub fn render_report(report: &DetectionReport) -> Vec<u8> {
    let mut out = Vec::new();
    for group in &report.groups {
        let ids: Vec<u32> = group.nodes.iter().map(|n| n.0).collect();
        let row = serde_json::json!({
            "round": group.round,
            "acceptance_rate": group.acceptance_rate,
            "k": serde_json::json!({
                "num": group.k.num(),
                "den": group.k.den(),
                "value": group.k.value(),
            }),
            "nodes": ids,
        });
        let _ = writeln!(out, "{row}");
    }
    for failure in &report.failures {
        let _ = writeln!(
            out,
            "{}",
            serde_json::json!({ "failure": failure.to_string() })
        );
    }
    out
}

/// Layer times of one run, measured around the public calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    /// Opening the `.rjg` to the report file being written.
    pub wall: Duration,
    /// `read_augmented_guarded`, file open included.
    pub read: Duration,
    /// Inside the checkpoint sink (`CheckpointStore::save`), summed.
    pub save: Duration,
    /// Report rendering plus the report write.
    pub render: Duration,
}

/// Everything one ingest → detect → report run produced.
#[derive(Debug)]
pub struct RunOutcome {
    pub graph: AugmentedGraph,
    pub report: DetectionReport,
    /// The rendered report, as written to the report file.
    pub rendered: Vec<u8>,
    pub times: Times,
    /// Bytes of the `.rjg` read.
    pub read_bytes: u64,
    /// Checkpoint generations saved.
    pub saves: u64,
    /// Master↔worker traffic (distributed runtime only).
    pub io: Option<IoStats>,
}

/// Runs ingest → detect → report for `w` on `rjg`, writing the rendered
/// report to `report_path` and checkpoints (when the workload keeps them)
/// under `ckpt_stem`. `obs`, when given, is attached through `set_obs`.
///
/// # Errors
///
/// On an unreadable or malformed input, a failed report write, or a
/// runtime error from the distributed detector.
pub fn run_detection(
    w: &Workload,
    rjg: &Path,
    report_path: &Path,
    ckpt_stem: &Path,
    obs: Option<&Obs>,
) -> Result<RunOutcome, BenchError> {
    let termination = Termination::SuspectBudget(w.budget());
    let seeds = Seeds::default();
    let mut times = Times::default();
    let mut saves = 0u64;
    let mut io = None;

    let wall = Stopwatch::start();
    let clock = Stopwatch::start();
    let file = File::open(rjg).map_err(|e| io_err("opening", rjg, e))?;
    let read_bytes = file.metadata().map_err(|e| io_err("stat", rjg, e))?.len();
    let graph =
        rejection::io::read_augmented_guarded(file, ResourceBudget::default().ingest_guards())
            .map_err(|e| BenchError(e.in_file(rjg.display().to_string()).to_string()))?;
    times.read = clock.elapsed();

    let report = match w.runtime {
        Runtime::Local {
            threads,
            checkpoint,
        } => {
            let mut detector = IterativeDetector::new(RejectoConfig {
                threads,
                ..RejectoConfig::default()
            });
            if let Some(obs) = obs {
                detector.set_obs(obs.clone());
            }
            if checkpoint {
                let mut store = CheckpointStore::new(ckpt_stem);
                if let Some(obs) = obs {
                    store = store.with_obs(obs.clone());
                }
                let mut sink = |ckpt: &Checkpoint| {
                    let clock = Stopwatch::start();
                    let saved = store.save(ckpt).map_err(std::io::Error::other);
                    times.save += clock.elapsed();
                    saves += 1;
                    saved
                };
                detector.detect_with_checkpoints(&graph, &seeds, termination, &mut sink)
            } else {
                detector.detect(&graph, &seeds, termination)
            }
        }
        Runtime::Distributed {
            workers,
            prefetch_batch,
            buffer_capacity,
        } => {
            let cluster = ClusterConfig {
                num_workers: workers,
                prefetch_batch,
                buffer_capacity,
                ..ClusterConfig::default()
            };
            let mut detector = DistributedDetector::new(cluster, RejectoConfig::default());
            if let Some(obs) = obs {
                detector.set_obs(obs.clone());
            }
            let (report, stats) = detector
                .detect_with_io(&graph, &seeds, termination)
                .map_err(|e| BenchError(e.to_string()))?;
            io = Some(stats);
            report
        }
    };

    let clock = Stopwatch::start();
    let rendered = render_report(&report);
    std::fs::write(report_path, &rendered).map_err(|e| io_err("writing", report_path, e))?;
    times.render = clock.elapsed();
    times.wall = wall.elapsed();

    Ok(RunOutcome {
        graph,
        report,
        rendered,
        times,
        read_bytes,
        saves,
        io,
    })
}

/// The report digest every run is checked against: CRC32 of the rendered
/// report, as eight hex digits.
pub fn digest(rendered: &[u8]) -> String {
    format!("{:08x}", crc32(rendered))
}

/// Precision and recall of the top `budget` suspects against the fakes —
/// the `pipeline::rejecto_suspects` protocol.
pub fn score(outcome: &RunOutcome, fakes: &[NodeId], budget: usize) -> (f64, f64) {
    let mut is_fake = vec![false; outcome.graph.num_nodes()];
    for f in fakes {
        if let Some(slot) = is_fake.get_mut(f.index()) {
            *slot = true;
        }
    }
    let suspects = outcome.report.suspects_top(budget, &outcome.graph);
    let idx: Vec<usize> = suspects.iter().map(|s| s.index()).collect();
    let pr = eval::precision_recall(&idx, &is_fake);
    (pr.precision(), pr.recall())
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> &'static Workload {
        workload("tiny").expect("tiny workload is defined")
    }

    #[test]
    fn same_seed_gives_byte_identical_rjg() {
        let a = generate(tiny(), 42).expect("generates");
        let b = generate(tiny(), 42).expect("generates");
        assert_eq!(a.rjg, b.rjg);
        assert_eq!(a.fakes, b.fakes);
        let c = generate(tiny(), 43).expect("generates");
        assert_ne!(a.rjg, c.rjg, "another seed must give another input");
    }

    #[test]
    fn workloads_have_the_documented_sizes() {
        for w in WORKLOADS {
            assert_eq!(w.fakes * 9, w.legit, "{}: 10% fakes", w.name);
            let seeds = w.instance_seeds(42);
            assert_eq!(seeds.len(), w.instances);
            assert_eq!(seeds[0], 42);
            assert_eq!(seeds, w.instance_seeds(42));
        }
        assert!(workload("serial-10k").is_some());
        assert!(workload("nope").is_none());
    }

    #[test]
    fn tiny_run_is_complete_and_deterministic() {
        let dir = std::env::temp_dir().join(format!("rjbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let stem = dir.join("input");
        let (input, _) = generate_to(tiny(), 7, &stem).expect("generates");
        let rjg = stem.with_extension("rjg");
        let a =
            run_detection(tiny(), &rjg, &dir.join("a.jsonl"), &dir.join("a"), None).expect("runs");
        let obs = Obs::new();
        let b = run_detection(
            tiny(),
            &rjg,
            &dir.join("b.jsonl"),
            &dir.join("b"),
            Some(&obs),
        )
        .expect("runs");
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(a.report.completion, rejecto_core::Completion::Complete);
        assert!(a.report.failures.is_empty());
        assert_eq!(
            digest(&a.rendered),
            digest(&b.rendered),
            "tracing changed the report"
        );
        assert!(a.saves > 0, "the tiny workload checkpoints");
        assert_eq!(obs.span_count("detect"), 1);
        let (p, r) = score(&a, &input.fakes, tiny().budget());
        assert!(p > 0.8 && r > 0.8, "precision {p}, recall {r}");
    }
}
