use crate::faults::trigger_injected_panic;
use crate::pool::JobOutcome;
use crate::runtime::{RunContext, RuntimeError};
use crate::{InitialPlacement, RejectoConfig};
use kl::{AdjacencySource, ExtendedKl, ExtendedKlConfig, KParam};
use rejection::{AugmentedGraph, Degrees, NodeId, Partition, Region};
use std::convert::Infallible;

/// A minimum-aggregate-acceptance-rate cut found by [`MaarSolver`].
#[derive(Debug, Clone, PartialEq)]
pub struct MaarCut {
    /// The partition; its suspect region is the detected group.
    pub partition: Partition,
    /// `AC⟨U,Ū⟩` of the cut.
    pub acceptance_rate: f64,
    /// The sweep value of `k` that produced the winning cut.
    pub k: KParam,
}

impl MaarCut {
    /// The detected suspect group, ascending by node id.
    pub fn suspects(&self) -> Vec<NodeId> {
        self.partition.suspects()
    }
}

/// What one `k` of a sweep produced.
#[derive(Debug)]
pub enum KResult {
    /// A converged, admissible cut.
    Cut(MaarCut),
    /// Converged, but the cut was degenerate or inadmissible.
    NoCut,
    /// The KL run was stopped by the cancel token before convergence; its
    /// partition is discarded (a half-optimized cut must never compete in
    /// the reduction).
    Interrupted,
}

/// The per-`k` job a sweep backend runs: sweep index in, result out, the
/// graph read through the backend's adjacency source.
pub type KJob<'j, S> =
    dyn Fn(&S, usize) -> Result<KResult, <S as AdjacencySource>::Error> + Sync + 'j;

/// Where a sweep's extended-KL runs execute. The sweep itself — warm
/// start, suspect cap, admissibility, reduction and fallback — is
/// [`MaarSolver::solve_with`]; a backend only supplies the graph and runs
/// the per-`k` jobs. The in-process backend runs them on the worker pool
/// over an [`AugmentedGraph`]; the §V cluster (`dataflow`) runs them on
/// the master against worker-held shards.
pub trait SweepBackend {
    /// A failed graph read.
    type Error;
    /// The adjacency source every `k`'s extended-KL run reads through.
    type Source: AdjacencySource<Error = Self::Error>;

    /// Per-node degrees of the graph, read once at the start of every
    /// solve (the warm start ranks nodes by rejection ratio).
    ///
    /// # Errors
    ///
    /// When the degrees cannot be read.
    fn degrees(&mut self) -> Result<Vec<Degrees>, Self::Error>;

    /// Runs `job` for every sweep index in `0..jobs` and returns the
    /// outcomes slotted by index. Once `ctx`'s token trips, unstarted jobs
    /// are [`JobOutcome::Skipped`]. `degrees` is what [`Self::degrees`]
    /// returned for this solve.
    ///
    /// # Errors
    ///
    /// The first graph-read failure; the sweep is abandoned.
    fn run_ks(
        &mut self,
        degrees: &[Degrees],
        jobs: usize,
        ctx: &RunContext,
        job: &KJob<'_, Self::Source>,
    ) -> Result<Vec<JobOutcome<KResult>>, Self::Error>;
}

/// Everything one monitored sweep (or its warm-start fallback pair)
/// produced, for the pruning loop's bookkeeping.
#[derive(Debug, PartialEq)]
pub struct SweepOutcome {
    /// The winning cut, when the sweep ran to completion and found one.
    pub cut: Option<MaarCut>,
    /// Sweep indices whose runs converged (including successfully retried
    /// ones), ascending. On interruption this is the progress record a
    /// `Partial` report carries.
    pub completed_k_indices: Vec<usize>,
    /// Persistent per-`k` failures: the worker panicked *and* its
    /// deterministic serial retry panicked again, so the index was skipped.
    pub failures: Vec<RuntimeError>,
    /// Whether the cancel token stopped the sweep before every `k`
    /// converged. When set, `cut` is `None`.
    pub interrupted: bool,
}

/// The in-process backend: `k` runs on the fixed-size worker pool
/// ([`crate::pool::run_indexed`]) over one shared immutable graph.
struct PoolBackend<'g> {
    g: &'g AugmentedGraph,
    threads: usize,
}

impl SweepBackend for PoolBackend<'_> {
    type Error = Infallible;
    type Source = AugmentedGraph;

    fn degrees(&mut self) -> Result<Vec<Degrees>, Infallible> {
        Ok(self.g.nodes().map(|u| self.g.degrees(u)).collect())
    }

    /// Each run's result lands in its own sweep-index slot, so thread count
    /// cannot change the reduction. Panicked slots are retried *serially in
    /// index order*: a transient panic therefore yields the answer the
    /// clean sweep would have produced, and only a panic that reproduces on
    /// retry stays [`JobOutcome::Panicked`].
    fn run_ks(
        &mut self,
        _: &[Degrees],
        jobs: usize,
        ctx: &RunContext,
        job: &KJob<'_, AugmentedGraph>,
    ) -> Result<Vec<JobOutcome<KResult>>, Infallible> {
        let solve_one = |i: usize| -> KResult {
            if ctx.faults.should_panic(i) {
                trigger_injected_panic(i);
            }
            match job(self.g, i) {
                Ok(result) => result,
                Err(never) => match never {},
            }
        };
        let mut slots = crate::pool::run_indexed(self.threads, jobs, &ctx.token, solve_one);
        for (i, slot) in slots.iter_mut().enumerate() {
            if let JobOutcome::Panicked(_) = slot {
                *slot = crate::pool::run_one(&solve_one, i);
            }
        }
        Ok(slots)
    }
}

/// Solves the MAAR problem on one augmented graph by sweeping `k` over a
/// geometric sequence and keeping the extended-KL cut with the lowest
/// aggregate acceptance rate (§IV-D, Theorem 1).
#[derive(Debug, Clone)]
pub struct MaarSolver {
    config: RejectoConfig,
}

impl MaarSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: RejectoConfig) -> Self {
        MaarSolver { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RejectoConfig {
        &self.config
    }

    /// Finds the best cut on `g`. `legit_seeds` are pinned to the
    /// legitimate region and `spammer_seeds` to the suspect region for the
    /// whole search (§IV-F). Returns `None` when no non-degenerate cut
    /// exists (i.e., every candidate leaves the suspect region empty or
    /// cuts no requests at all).
    ///
    /// This is the unmonitored entry point: no budgets, no fault
    /// injection. [`crate::IterativeDetector`] goes through the monitored
    /// path instead.
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range.
    pub fn solve(
        &self,
        g: &AugmentedGraph,
        legit_seeds: &[NodeId],
        spammer_seeds: &[NodeId],
    ) -> Option<MaarCut> {
        self.solve_monitored(g, legit_seeds, spammer_seeds, &RunContext::unmonitored()).cut
    }

    /// [`MaarSolver::solve`] under a [`RunContext`], on the worker pool:
    /// the context's cancel token can interrupt the sweep at KL pass
    /// boundaries, its injector can detonate workers, and the outcome
    /// records per-`k` progress and failures instead of panicking or
    /// silently skipping.
    pub(crate) fn solve_monitored(
        &self,
        g: &AugmentedGraph,
        legit_seeds: &[NodeId],
        spammer_seeds: &[NodeId],
        ctx: &RunContext,
    ) -> SweepOutcome {
        let mut backend = PoolBackend { g, threads: self.config.effective_threads() };
        match self.solve_with(&mut backend, legit_seeds, spammer_seeds, ctx) {
            Ok(outcome) => outcome,
            Err(never) => match never {},
        }
    }

    /// The monitored solve on any [`SweepBackend`]: the primary sweep from
    /// the configured placement, then — when the warm start found nothing
    /// and started from a region other than the all-legit one — the
    /// all-legit fallback sweep. Seed ids are in the backend's graph.
    ///
    /// # Errors
    ///
    /// The backend's first graph-read failure.
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range.
    pub fn solve_with<B: SweepBackend>(
        &self,
        backend: &mut B,
        legit_seeds: &[NodeId],
        spammer_seeds: &[NodeId],
        ctx: &RunContext,
    ) -> Result<SweepOutcome, B::Error> {
        let degrees = backend.degrees()?;
        let cap = self.suspect_cap(degrees.len());
        let regions = |placement| {
            self.initial_regions(&degrees, legit_seeds, spammer_seeds, placement, cap)
        };
        let start = regions(self.config.initial_placement);
        let all_legit = regions(InitialPlacement::AllLegit);
        let locked = [legit_seeds, spammer_seeds].concat();
        let first = self.sweep(backend, &degrees, cap, &locked, &start, ctx)?;
        // A warm start that placed no node beyond the seeds *is* the
        // all-legit start, and a fallback from it would replay the primary
        // sweep move for move (same graph, start, locks, k list and cap).
        if first.cut.is_some() || first.interrupted || start == all_legit {
            return Ok(first);
        }
        // The warm start can steer every k toward a cut larger than the
        // admissible suspect region (KL optimizes unconstrained); fall back
        // to the all-legit start, whose best-prefix mechanism grows cuts
        // incrementally and stays small when small cuts suffice.
        let mut fallback = self.sweep(backend, &degrees, cap, &locked, &all_legit, ctx)?;
        // Failures from the primary sweep stay on the record: a skipped k
        // degrades the primary sweep's answer whether or not the fallback
        // ran cleanly.
        let mut failures = first.failures;
        failures.append(&mut fallback.failures);
        fallback.failures = failures;
        Ok(fallback)
    }

    /// The largest admissible suspect-region size on an `n`-node residual
    /// graph. Clamped to at least 1: on small graphs
    /// `floor(max_suspect_fraction · n)` rounds to 0, which would silently
    /// reject *every* candidate cut — even a single blatant spammer.
    #[expect(
        clippy::as_conversions,
        reason = "n < 2^53 converts exactly and the floored fraction lies in [0, n]"
    )]
    fn suspect_cap(&self, n: usize) -> usize {
        ((self.config.max_suspect_fraction * n as f64).floor() as usize).max(1)
    }

    /// Sweeps every `k`, each an independent extended-KL run from `start`
    /// with the `locked` seeds pinned, and reduces to the admissible cut
    /// (at most `cap` suspects) with the lowest acceptance rate. The
    /// reduction scans slots in sweep order and keeps a candidate only when
    /// *strictly* better — lowest acceptance rate, earliest sweep index
    /// wins — so neither thread count nor deployment can change the winner.
    fn sweep<B: SweepBackend>(
        &self,
        backend: &mut B,
        degrees: &[Degrees],
        cap: usize,
        locked: &[NodeId],
        start: &[Region],
        ctx: &RunContext,
    ) -> Result<SweepOutcome, B::Error> {
        let _sweep_span = ctx.obs.as_ref().map(|o| o.span("detect/round/sweep"));
        let ks = self.config.k_sweep();
        let job = |src: &B::Source, i: usize| -> Result<KResult, B::Error> {
            // Opened inside the job: a detonated pool worker must record
            // nothing, so its deterministic serial retry leaves the metrics
            // identical to a clean run's.
            let _k_span = ctx.obs.as_ref().map(|o| o.span("detect/round/sweep/k_index"));
            let k = ks[i];
            let mut kl =
                ExtendedKl::new(src, ExtendedKlConfig { k, max_passes: self.config.max_kl_passes });
            kl.set_cancel(ctx.token.clone());
            if let Some(obs) = &ctx.obs {
                kl.set_obs(obs.clone());
            }
            for &s in locked {
                kl.lock(s);
            }
            let out = kl.try_run(start.to_vec())?;
            if out.interrupted {
                return Ok(KResult::Interrupted);
            }
            let p = out.partition;
            if p.suspect_count() == 0 || p.suspect_count() > cap {
                return Ok(KResult::NoCut);
            }
            Ok(match p.acceptance_rate() {
                Some(ac) => KResult::Cut(MaarCut { partition: p, acceptance_rate: ac, k }),
                None => KResult::NoCut,
            })
        };
        let slots = backend.run_ks(degrees, ks.len(), ctx, &job)?;

        let mut completed_k_indices = Vec::new();
        let mut failures = Vec::new();
        let mut interrupted = false;
        let mut best: Option<MaarCut> = None;
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                JobOutcome::Done(KResult::Interrupted) | JobOutcome::Skipped => interrupted = true,
                JobOutcome::Done(result) => {
                    completed_k_indices.push(i);
                    if let KResult::Cut(cut) = result {
                        if best.as_ref().is_none_or(|b| cut.acceptance_rate < b.acceptance_rate) {
                            best = Some(cut);
                        }
                    }
                }
                // A panic that survived its retry is a recorded failure,
                // not a candidate.
                JobOutcome::Panicked(message) => failures.push(RuntimeError::WorkerFailed {
                    round: ctx.round,
                    k_index: i,
                    message,
                }),
            }
        }
        Ok(SweepOutcome {
            cut: if interrupted { None } else { best },
            completed_k_indices,
            failures,
            interrupted,
        })
    }

    /// The region every `k` starts from: all legit, or the warm start —
    /// nodes at or above the rejection-ratio threshold, capped at the
    /// admissible suspect-region size (highest ratios first, ties by id) so
    /// the warm start never starts outside the feasible family. Seeds
    /// override the placement.
    fn initial_regions(
        &self,
        degrees: &[Degrees],
        legit_seeds: &[NodeId],
        spammer_seeds: &[NodeId],
        placement: InitialPlacement,
        cap: usize,
    ) -> Vec<Region> {
        let mut region = vec![Region::Legit; degrees.len()];
        if let InitialPlacement::RejectionRatio(threshold) = placement {
            let mut candidates: Vec<(f64, usize)> = degrees
                .iter()
                .enumerate()
                .filter_map(|(u, d)| {
                    d.rejection_ratio().filter(|&r| r >= threshold).map(|r| (r, u))
                })
                .collect();
            candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            for (_, u) in candidates.into_iter().take(cap) {
                region[u] = Region::Suspect;
            }
        }
        for &s in legit_seeds {
            region[s.index()] = Region::Legit;
        }
        for &s in spammer_seeds {
            region[s.index()] = Region::Suspect;
        }
        region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use rejection::AugmentedGraphBuilder;

    /// 5 legit users in a ring; 3 fakes in a triangle; 2 attack edges;
    /// heavy rejections toward the fakes.
    fn scenario() -> AugmentedGraph {
        let mut b = AugmentedGraphBuilder::new(8);
        for i in 0..5u32 {
            b.add_friendship(NodeId(i), NodeId((i + 1) % 5));
        }
        b.add_friendship(NodeId(5), NodeId(6));
        b.add_friendship(NodeId(6), NodeId(7));
        b.add_friendship(NodeId(5), NodeId(7));
        b.add_friendship(NodeId(0), NodeId(5)); // attack edges
        b.add_friendship(NodeId(1), NodeId(6));
        for (r, s) in [(0, 6), (1, 5), (2, 5), (2, 7), (3, 6), (3, 7), (4, 5), (4, 7)] {
            b.add_rejection(NodeId(r), NodeId(s));
        }
        b.build()
    }

    #[test]
    fn finds_the_fake_triangle() {
        let g = scenario();
        let cut = MaarSolver::new(RejectoConfig::default()).solve(&g, &[], &[]).expect("scenario admits a cut");
        assert_eq!(cut.suspects(), vec![NodeId(5), NodeId(6), NodeId(7)]);
        // 2 attack friendships, 8 rejections → AC = 2/10.
        assert!((cut.acceptance_rate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn all_legit_initialization_agrees() {
        let g = scenario();
        let config = RejectoConfig {
            initial_placement: InitialPlacement::AllLegit,
            ..RejectoConfig::default()
        };
        let cut = MaarSolver::new(config).solve(&g, &[], &[]).expect("scenario admits a cut");
        assert_eq!(cut.suspects(), vec![NodeId(5), NodeId(6), NodeId(7)]);
    }

    #[test]
    fn no_rejections_means_no_cut() {
        let mut b = AugmentedGraphBuilder::new(4);
        b.add_friendship(NodeId(0), NodeId(1));
        b.add_friendship(NodeId(2), NodeId(3));
        let g = b.build();
        assert!(MaarSolver::new(RejectoConfig::default()).solve(&g, &[], &[]).is_none());
    }

    #[test]
    fn legit_seed_pin_overrides_warm_start() {
        let g = scenario();
        // Deliberately bad warm start marks node 0 suspect via seeds:
        // a legit seed on node 0 must keep it out of any detected group.
        let cut = MaarSolver::new(RejectoConfig::default())
            .solve(&g, &[NodeId(0)], &[NodeId(5)])
            .expect("scenario admits a cut");
        assert!(!cut.suspects().contains(&NodeId(0)));
        assert!(cut.suspects().contains(&NodeId(5)));
    }

    #[test]
    fn tiny_graph_cap_clamps_to_one() {
        // 3 legit users, 1 obvious spammer, rejected by everyone. With
        // max_suspect_fraction = 0.2 the unclamped cap would floor to 0
        // (0.2 · 4 = 0.8) and every candidate cut would be discarded.
        let mut b = AugmentedGraphBuilder::new(4);
        b.add_friendship(NodeId(0), NodeId(1));
        b.add_friendship(NodeId(1), NodeId(2));
        b.add_friendship(NodeId(0), NodeId(2));
        for r in 0..3u32 {
            b.add_rejection(NodeId(r), NodeId(3));
        }
        let g = b.build();
        let config = RejectoConfig { max_suspect_fraction: 0.2, ..RejectoConfig::default() };
        let cut = MaarSolver::new(config)
            .solve(&g, &[], &[])
            .expect("the clamped cap must admit the single-spammer cut");
        assert_eq!(cut.suspects(), vec![NodeId(3)]);
    }

    #[test]
    fn thread_count_does_not_change_the_cut() {
        let g = scenario();
        let serial = MaarSolver::new(RejectoConfig { threads: 1, ..RejectoConfig::default() })
            .solve(&g, &[], &[])
            .expect("scenario admits a cut");
        for threads in [2, 4, 7] {
            let config = RejectoConfig { threads, ..RejectoConfig::default() };
            let cut = MaarSolver::new(config)
                .solve(&g, &[], &[])
                .expect("scenario admits a cut");
            assert_eq!(cut.suspects(), serial.suspects(), "threads={threads}");
            assert_eq!(cut.k, serial.k, "threads={threads}");
            assert_eq!(
                cut.acceptance_rate.to_bits(),
                serial.acceptance_rate.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn reports_the_winning_k() {
        let g = scenario();
        let cut = MaarSolver::new(RejectoConfig::default()).solve(&g, &[], &[]).expect("scenario admits a cut");
        // The winning cut's friends-to-rejections ratio is 2/8 = 0.25.
        // The winning k need not equal it, but must be a sweep member.
        let sweep = RejectoConfig::default().k_sweep();
        assert!(sweep.contains(&cut.k));
    }

    #[test]
    fn one_shot_injected_panic_is_retried_to_the_clean_answer() {
        let g = scenario();
        let clean = MaarSolver::new(RejectoConfig::default())
            .solve(&g, &[], &[])
            .expect("scenario admits a cut");
        for threads in [1, 4] {
            let plan = FaultPlan::parse("worker_panic@k=3").expect("spec is well-formed");
            let config = RejectoConfig { threads, faults: plan, ..RejectoConfig::default() };
            let solver = MaarSolver::new(config);
            let ctx = RunContext::armed(solver.config(), None);
            let out = solver.solve_monitored(&g, &[], &[], &ctx);
            assert!(out.failures.is_empty(), "threads={threads}: retry must clear the failure");
            assert!(!out.interrupted);
            let cut = out.cut.expect("retried sweep still finds the cut");
            assert_eq!(cut.suspects(), clean.suspects(), "threads={threads}");
            assert_eq!(cut.acceptance_rate.to_bits(), clean.acceptance_rate.to_bits());
        }
    }

    /// The sweep's outcome under `config` at `threads`, and how many
    /// sweeps it ran.
    fn solve_counting_sweeps(
        g: &AugmentedGraph,
        config: &RejectoConfig,
        threads: usize,
    ) -> (SweepOutcome, u64) {
        let solver = MaarSolver::new(RejectoConfig { threads, ..config.clone() });
        let obs = rejecto_obs::Obs::new();
        let ctx = RunContext::armed(solver.config(), Some(obs.clone()));
        let out = solver.solve_monitored(g, &[], &[], &ctx);
        (out, obs.span_count("detect/round/sweep"))
    }

    #[test]
    fn warm_start_that_places_nobody_skips_the_replayed_fallback() {
        // A rejection-free ring: no node reaches the 0.5 warm-start
        // threshold, so the warm start is the all-legit start, and no k
        // finds a cut.
        let mut b = AugmentedGraphBuilder::new(5);
        for i in 0..5u32 {
            b.add_friendship(NodeId(i), NodeId((i + 1) % 5));
        }
        let g = b.build();
        let warm = RejectoConfig::default();
        let all_legit =
            RejectoConfig { initial_placement: InitialPlacement::AllLegit, ..warm.clone() };
        for threads in [1, 4] {
            let (out, sweeps) = solve_counting_sweeps(&g, &warm, threads);
            assert!(out.cut.is_none(), "threads={threads}: the fixture admits no cut");
            assert_eq!(sweeps, 1, "threads={threads}: the fallback would replay the primary");
            let (reference, _) = solve_counting_sweeps(&g, &all_legit, threads);
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn warm_start_that_finds_nothing_still_falls_back() {
        // Nodes 0, 1, 3, 4 and 5 all sit at rejection ratio 0.5, and the
        // cap of 2 suspects (0.4 · 6) warm-starts nodes 0 and 1; no k
        // converges to an admissible cut from there, while the all-legit
        // start finds {3, 5}.
        let mut b = AugmentedGraphBuilder::new(6);
        for (u, v) in [(3, 5), (0, 4), (1, 2)] {
            b.add_friendship(NodeId(u), NodeId(v));
        }
        for (r, s) in [(2, 5), (3, 1), (5, 4), (4, 3), (2, 0)] {
            b.add_rejection(NodeId(r), NodeId(s));
        }
        let g = b.build();
        let warm = RejectoConfig { max_suspect_fraction: 0.4, ..RejectoConfig::default() };
        let all_legit =
            RejectoConfig { initial_placement: InitialPlacement::AllLegit, ..warm.clone() };
        for threads in [1, 4] {
            let (out, sweeps) = solve_counting_sweeps(&g, &warm, threads);
            assert_eq!(sweeps, 2, "threads={threads}: the primary sweep found nothing");
            let (fallback, _) = solve_counting_sweeps(&g, &all_legit, threads);
            assert_eq!(out, fallback, "threads={threads}: the fallback's cut is the answer");
            let cut = out.cut.expect("the all-legit start finds a cut");
            assert_eq!(cut.suspects(), vec![NodeId(3), NodeId(5)], "threads={threads}");
        }
    }

    #[test]
    fn persistent_injected_panic_degrades_deterministically() {
        let g = scenario();
        let mut reference: Option<(Vec<NodeId>, Vec<usize>)> = None;
        for threads in [1, 4] {
            let plan = FaultPlan::parse("worker_panic@k=3:always").expect("spec is well-formed");
            let config = RejectoConfig { threads, faults: plan, ..RejectoConfig::default() };
            let solver = MaarSolver::new(config);
            let mut ctx = RunContext::armed(solver.config(), None);
            ctx.round = 1;
            let out = solver.solve_monitored(&g, &[], &[], &ctx);
            assert!(!out.interrupted, "a failed slot is a skip, not an interruption");
            assert_eq!(out.failures.len(), 1, "threads={threads}");
            match &out.failures[0] {
                RuntimeError::WorkerFailed { round, k_index, message } => {
                    assert_eq!(*round, 1);
                    assert_eq!(*k_index, 3);
                    assert!(message.contains("injected worker panic"));
                }
                other => panic!("threads={threads}: unexpected failure {other:?}"),
            }
            assert!(
                !out.completed_k_indices.contains(&3),
                "failed index must not count as completed"
            );
            let suspects = out.cut.as_ref().map(MaarCut::suspects).unwrap_or_default();
            match &reference {
                None => reference = Some((suspects, out.completed_k_indices.clone())),
                Some((ref_suspects, ref_completed)) => {
                    assert_eq!(&suspects, ref_suspects, "threads={threads}");
                    assert_eq!(&out.completed_k_indices, ref_completed, "threads={threads}");
                }
            }
        }
    }
}
