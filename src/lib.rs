//! # Rejecto — Combating Friend Spam Using Social Rejections
//!
//! A from-scratch reproduction of *"Combating Friend Spam Using Social
//! Rejections"* (Cao, Sirivianos, Yang, Munagala — ICDCS 2015): a system
//! that detects fake OSN accounts used for friend spam by partitioning a
//! rejection-augmented social graph at the cut with the **minimum aggregate
//! acceptance rate** (MAAR), solved with an extended Kernighan–Lin
//! heuristic and hardened against the collusion and self-rejection attack
//! strategies.
//!
//! This facade crate re-exports the workspace and offers the end-to-end
//! [`pipeline`] the examples and experiment harnesses drive:
//!
//! | crate | contents |
//! |---|---|
//! | [`socialgraph`] | graph substrate: storage, generators, sampling, metrics, I/O |
//! | [`rejection`] | the augmented graph `G = (V, F, R⃗)` and cut bookkeeping |
//! | [`kl`] | bucket list and the paper's extended KL over an adjacency source |
//! | [`rejecto_core`] | MAAR solver, iterative detection, seeds |
//! | [`votetrust`] | the VoteTrust baseline (INFOCOM'13) |
//! | [`sybilrank`] | SybilRank (NSDI'12) for the defense-in-depth pipeline |
//! | [`simulator`] | the §VI-A attack/workload simulator |
//! | [`eval`] | precision/recall, ROC/AUC, CDFs |
//! | [`dataflow`] | the Spark-substitute master/worker runtime (§V): a shard-backed adjacency source |
//!
//! # Quickstart
//!
//! ```
//! use rejecto::pipeline::{self, PipelineConfig};
//! use rejecto::simulator::{Scenario, ScenarioConfig};
//! use rejecto::socialgraph::surrogates::Surrogate;
//!
//! // A small Facebook-like host graph with 50 injected fakes.
//! let host = Surrogate::Facebook.generate_scaled(1, 0.05);
//! let sim = Scenario::new(ScenarioConfig {
//!     num_fakes: 50,
//!     ..ScenarioConfig::default()
//! })
//! .run(&host, 7);
//!
//! let cfg = PipelineConfig::default();
//! let suspects = pipeline::rejecto_suspects(&sim, &cfg, 50);
//! let accuracy = pipeline::precision(&suspects, &sim.is_fake);
//! assert!(accuracy > 0.9, "precision {accuracy}");
//! ```

pub use dataflow;
pub use eval;
pub use kl;
pub use rejection;
pub use rejecto_core;
pub use simulator;
pub use socialgraph;
pub use sybilrank;
pub use votetrust;

pub mod cli;
pub mod pipeline;
