//! Deterministic fault injection for the detection runtime.
//!
//! The fault-tolerance contract (worker panics become
//! [`crate::RuntimeError::WorkerFailed`], lost checkpoints become
//! [`crate::RuntimeError::CheckpointIo`], deadlines become `Partial`
//! reports) is only trustworthy if it is *exercised*, and real faults are
//! rare and nondeterministic. This module arms synthetic faults that fire
//! at exact, reproducible points — a named sweep index, a named pruning
//! round, a fixed deadline — so `crates/core/tests/faults.rs` and the CI
//! fault matrix can assert the degraded outputs byte-for-byte.
//!
//! A plan is declarative ([`FaultPlan`], parsed from
//! `--inject worker_panic@k=3,io_error@round=2,deadline=50ms`) and carried
//! in [`crate::RejectoConfig::faults`]. [`crate::RunContext::armed`] arms
//! it once per run as a [`FaultInjector`], which every injection point —
//! sweep pool, checkpoint sink, durable store, cluster master — probes.
//! An empty plan is free: every probe is a single branch.

use std::fmt;
#[expect(
    clippy::disallowed_types,
    reason = "the armed fault table is shared by every pool worker and cluster probe of one run; a one-shot fault must fire exactly once"
)]
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One synthetic fault at a deterministic trigger point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// Panic inside the sweep worker solving sweep index `k_index`.
    /// One-shot by default (the deterministic retry then succeeds, proving
    /// retry-equality); `persistent` also panics on every retry (proving
    /// the degraded-report path).
    WorkerPanic {
        /// Sweep index whose worker panics.
        k_index: usize,
        /// Whether the retry panics too.
        persistent: bool,
    },
    /// Fail the checkpoint write after pruning round `round` (1-based)
    /// with a synthetic I/O error.
    CheckpointIoError {
        /// Round whose checkpoint write fails.
        round: usize,
    },
    /// Arm a wall-clock deadline of `millis` milliseconds on the run, as
    /// if [`crate::RunBudget::deadline`] had been set.
    Deadline {
        /// Deadline in milliseconds.
        millis: u64,
    },
    /// Kill a distributed worker immediately before the cluster's
    /// `fetch`-numbered fetch batch (1-based), `deaths` times in a row —
    /// each lineage respawn dies again until the schedule is spent, so
    /// `deaths` larger than the cluster's respawn budget exercises shard
    /// rebalancing. Parsed from `worker_death@fetch=<n>[:x<m>]`.
    WorkerDeath {
        /// 1-based fetch batch at which the schedule starts firing.
        fetch: u64,
        /// Consecutive deaths (respawns that die again); at least 1.
        deaths: u32,
    },
    /// Make one master↔worker request during sweep index `k_index` hang
    /// (the request is swallowed, the worker never answers), so the
    /// per-request watchdog — not channel disconnection — must detect it.
    /// One-shot. Parsed from `worker_hang@k=<i>`.
    WorkerHang {
        /// Sweep index during which one request hangs.
        k_index: usize,
    },
    /// Tear the durable write of the checkpoint generation for round
    /// `round` (1-based): only the first half of the framed bytes reach
    /// disk, as if the process died mid-write on a filesystem without the
    /// atomic-rename protocol. Parsed from `torn_write@round=<r>`;
    /// consumed by the checkpoint store ([`FaultInjector::take_mangle`]).
    TornWrite {
        /// 1-based round whose generation file is truncated.
        round: usize,
    },
    /// Flip one bit in the middle of the framed checkpoint generation for
    /// round `round` (1-based) before it reaches disk — silent media
    /// corruption that only the CRC32 envelope can catch. Parsed from
    /// `bit_flip@round=<r>`; consumed like [`Fault::TornWrite`].
    BitFlip {
        /// 1-based round whose generation file is corrupted.
        round: usize,
    },
}

impl Fault {
    /// The injection point this fault occupies, as a `(kind, position)`
    /// key. [`FaultPlan::parse`] rejects two directives with the same key:
    /// which one "wins" would otherwise be silent order-dependence. Both
    /// store mangles share a key — the checkpoint store consumes exactly
    /// one mangle per generation write, so `torn_write` and `bit_flip` at
    /// the same round *conflict* rather than compose. Likewise only one
    /// deadline directive is admitted; "tightest wins" stays documented
    /// behavior for plans built programmatically via [`FaultPlan::push`].
    pub(crate) fn injection_point(&self) -> (&'static str, u64) {
        match *self {
            Fault::WorkerPanic { k_index, .. } => {
                ("worker_panic", u64::try_from(k_index).expect("sweep index fits in u64"))
            }
            Fault::CheckpointIoError { round } => {
                ("io_error", u64::try_from(round).expect("round fits in u64"))
            }
            Fault::Deadline { .. } => ("deadline", 0),
            Fault::WorkerDeath { fetch, .. } => ("worker_death", fetch),
            Fault::WorkerHang { k_index } => {
                ("worker_hang", u64::try_from(k_index).expect("sweep index fits in u64"))
            }
            Fault::TornWrite { round } | Fault::BitFlip { round } => {
                ("store mangle", u64::try_from(round).expect("round fits in u64"))
            }
        }
    }
}

impl fmt::Display for Fault {
    /// Renders the exact [`FaultPlan::parse`] grammar, so plans round-trip:
    /// `parse(plan.to_string()) == plan` for every parseable plan.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::WorkerPanic { k_index, persistent: false } => {
                write!(f, "worker_panic@k={k_index}")
            }
            Fault::WorkerPanic { k_index, persistent: true } => {
                write!(f, "worker_panic@k={k_index}:always")
            }
            Fault::CheckpointIoError { round } => write!(f, "io_error@round={round}"),
            Fault::Deadline { millis } => write!(f, "deadline={millis}ms"),
            Fault::WorkerDeath { fetch, deaths: 1 } => write!(f, "worker_death@fetch={fetch}"),
            Fault::WorkerDeath { fetch, deaths } => {
                write!(f, "worker_death@fetch={fetch}:x{deaths}")
            }
            Fault::WorkerHang { k_index } => write!(f, "worker_hang@k={k_index}"),
            Fault::TornWrite { round } => write!(f, "torn_write@round={round}"),
            Fault::BitFlip { round } => write!(f, "bit_flip@round={round}"),
        }
    }
}

/// A declarative list of faults to arm for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl fmt::Display for FaultPlan {
    /// The comma-separated [`FaultPlan::parse`] syntax; the empty plan
    /// renders as the empty string.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned faults, in plan order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Adds a fault to the plan. Unlike [`FaultPlan::parse`], `push` does
    /// not police injection-point conflicts: programmatic plans may rely
    /// on documented runtime semantics (e.g. tightest-deadline-wins).
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// [`FaultPlan::push`] for parsed directives: rejects a fault whose
    /// injection point an earlier directive already claimed, instead of
    /// the silent last-wins (or first-wins, depending on the consumer)
    /// order-dependence the plan text would otherwise have.
    fn push_directive(&mut self, fault: Fault, part: &str) -> Result<(), String> {
        let key = fault.injection_point();
        if let Some(prior) = self.faults.iter().find(|f| f.injection_point() == key) {
            return Err(format!(
                "conflicting directive `{part}`: `{prior}` already arms the \
                 {} injection point",
                key.0
            ));
        }
        self.faults.push(fault);
        Ok(())
    }

    /// Parses the `--inject` syntax: a comma-separated list of
    /// `worker_panic@k=<i>`, `worker_panic@k=<i>:always`,
    /// `io_error@round=<r>`, `deadline=<ms>ms`, the distributed forms
    /// `worker_death@fetch=<n>[:x<m>]` (a repeated-death schedule) and
    /// `worker_hang@k=<i>`, and the durable-store forms
    /// `torn_write@round=<r>` and `bit_flip@round=<r>`. An empty string
    /// parses to the empty plan.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed spec.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some(rest) = part.strip_prefix("worker_panic@k=") {
                let (num, persistent) = match rest.strip_suffix(":always") {
                    Some(n) => (n, true),
                    None => (rest, false),
                };
                let k_index = num.parse::<usize>().map_err(|_| {
                    format!("bad sweep index in `{part}`: expected worker_panic@k=<index>")
                })?;
                plan.push_directive(Fault::WorkerPanic { k_index, persistent }, part)?;
            } else if let Some(rest) = part.strip_prefix("io_error@round=") {
                let round = rest.parse::<usize>().map_err(|_| {
                    format!("bad round in `{part}`: expected io_error@round=<round>")
                })?;
                if round == 0 {
                    return Err(format!("bad round in `{part}`: rounds are 1-based"));
                }
                plan.push_directive(Fault::CheckpointIoError { round }, part)?;
            } else if let Some(rest) = part.strip_prefix("deadline=") {
                let digits = rest.strip_suffix("ms").unwrap_or(rest);
                let millis = digits.parse::<u64>().map_err(|_| {
                    format!("bad deadline in `{part}`: expected deadline=<millis>ms")
                })?;
                plan.push_directive(Fault::Deadline { millis }, part)?;
            } else if let Some(rest) = part.strip_prefix("worker_death@fetch=") {
                let (num, deaths) = match rest.split_once(":x") {
                    Some((n, m)) => {
                        let deaths = m.parse::<u32>().map_err(|_| {
                            format!(
                                "bad repeat count in `{part}`: expected \
                                 worker_death@fetch=<n>:x<m>"
                            )
                        })?;
                        if deaths == 0 {
                            return Err(format!(
                                "bad repeat count in `{part}`: at least one death"
                            ));
                        }
                        (n, deaths)
                    }
                    None => (rest, 1),
                };
                let fetch = num.parse::<u64>().map_err(|_| {
                    format!(
                        "bad fetch number in `{part}`: expected \
                         worker_death@fetch=<n> or worker_death@fetch=<n>:x<m>"
                    )
                })?;
                if fetch == 0 {
                    return Err(format!("bad fetch number in `{part}`: fetches are 1-based"));
                }
                plan.push_directive(Fault::WorkerDeath { fetch, deaths }, part)?;
            } else if let Some(rest) = part.strip_prefix("worker_hang@k=") {
                let k_index = rest.parse::<usize>().map_err(|_| {
                    format!("bad sweep index in `{part}`: expected worker_hang@k=<index>")
                })?;
                plan.push_directive(Fault::WorkerHang { k_index }, part)?;
            } else if let Some(rest) = part.strip_prefix("torn_write@round=") {
                let round = rest.parse::<usize>().map_err(|_| {
                    format!("bad round in `{part}`: expected torn_write@round=<round>")
                })?;
                if round == 0 {
                    return Err(format!("bad round in `{part}`: rounds are 1-based"));
                }
                plan.push_directive(Fault::TornWrite { round }, part)?;
            } else if let Some(rest) = part.strip_prefix("bit_flip@round=") {
                let round = rest.parse::<usize>().map_err(|_| {
                    format!("bad round in `{part}`: expected bit_flip@round=<round>")
                })?;
                if round == 0 {
                    return Err(format!("bad round in `{part}`: rounds are 1-based"));
                }
                plan.push_directive(Fault::BitFlip { round }, part)?;
            } else {
                return Err(format!(
                    "unknown fault `{part}`: expected worker_panic@k=<i>[:always], \
                     io_error@round=<r>, deadline=<ms>ms, \
                     worker_death@fetch=<n>[:x<m>], worker_hang@k=<i>, \
                     torn_write@round=<r>, or bit_flip@round=<r>"
                ));
            }
        }
        Ok(plan)
    }
}

/// How an armed store fault corrupts a just-encoded frame. The store
/// applies it to the in-memory bytes right before the atomic write, so the
/// corruption is deterministic and the write path itself stays honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mangle {
    /// Keep only the first half of the bytes (a torn write).
    TornWrite,
    /// XOR the low bit of the middle byte (silent media corruption).
    BitFlip,
}

/// The armed faults in plan order, each with whether it has been spent.
#[expect(
    clippy::disallowed_types,
    reason = "the armed fault table is shared by every pool worker and cluster probe of one run; a one-shot fault must fire exactly once"
)]
type Table = Mutex<Vec<(Fault, bool)>>;

/// A [`FaultPlan`] armed for one run: one shared table of `(fault, spent)`
/// entries plus the tightest injected deadline. Every injection point
/// probes this one type — the sweep pool, the checkpoint sink, the durable
/// store and the §V cluster master — and each probe reads only the entries
/// of its own kind, so the local runtime never sees cluster faults and the
/// master never sees pool panics.
///
/// Clones share the table, so a one-shot fault fires exactly once per run
/// no matter how many workers, rounds or per-round clusters probe it. The
/// empty plan arms no table: every probe is then a single branch.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    table: Option<Arc<Table>>,
    deadline: Option<Duration>,
}

impl FaultInjector {
    /// Arms every fault in `plan` for one run.
    pub fn new(plan: &FaultPlan) -> Self {
        let deadline = plan
            .faults()
            .iter()
            .filter_map(|f| match *f {
                Fault::Deadline { millis } => Some(Duration::from_millis(millis)),
                _ => None,
            })
            .min();
        #[expect(clippy::disallowed_types, reason = "builds the shared fault table")]
        let table = (!plan.is_empty())
            .then(|| Arc::new(Mutex::new(plan.faults().iter().map(|&f| (f, false)).collect())));
        FaultInjector { table, deadline }
    }

    /// The injected wall-clock deadline (the tightest, if the plan armed
    /// several).
    pub(crate) fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Fires the first unspent entry, in plan order, that `pick` selects
    /// and returns what `pick` made of it. Every fault is one-shot except
    /// a persistent worker panic, which stays armed.
    fn take<T>(&self, pick: impl Fn(Fault) -> Option<T>) -> Option<T> {
        let mut table = self.table.as_ref()?.lock().expect("fault-table mutex poisoned");
        table.iter_mut().filter(|(_, spent)| !*spent).find_map(|(fault, spent)| {
            let fired = pick(*fault)?;
            *spent = !matches!(fault, Fault::WorkerPanic { persistent: true, .. });
            Some(fired)
        })
    }

    /// [`FaultInjector::take`] for probes that only ask whether a fault
    /// fired.
    fn fires(&self, hit: impl Fn(Fault) -> bool) -> bool {
        self.take(|f| hit(f).then_some(())).is_some()
    }

    /// Whether the pool worker solving sweep index `k_index` should panic
    /// now.
    pub fn should_panic(&self, k_index: usize) -> bool {
        self.fires(|f| matches!(f, Fault::WorkerPanic { k_index: k, .. } if k == k_index))
    }

    /// Whether the checkpoint write after `round` should fail.
    pub fn should_fail_checkpoint(&self, round: usize) -> bool {
        self.fires(|f| f == Fault::CheckpointIoError { round })
    }

    /// Consecutive worker deaths scheduled to start at the cluster's fetch
    /// batch `fetch_seq` (1-based): every schedule due there, summed. Each
    /// fires for exactly one fetch batch per run.
    pub fn deaths_at(&self, fetch_seq: u64) -> u32 {
        std::iter::from_fn(|| {
            self.take(|f| match f {
                Fault::WorkerDeath { fetch, deaths } if fetch == fetch_seq => Some(deaths),
                _ => None,
            })
        })
        .sum()
    }

    /// Whether one cluster request of sweep index `k_index` should hang.
    pub fn take_hang(&self, k_index: usize) -> bool {
        self.fires(|f| f == Fault::WorkerHang { k_index })
    }

    /// The mangle armed for the checkpoint generation of `round`, if any.
    pub fn take_mangle(&self, round: usize) -> Option<Mangle> {
        self.take(|f| match f {
            Fault::TornWrite { round: r } if r == round => Some(Mangle::TornWrite),
            Fault::BitFlip { round: r } if r == round => Some(Mangle::BitFlip),
            _ => None,
        })
    }
}

/// Trips an injected worker panic. The single sanctioned `panic!` of the
/// runtime path: it exists to *test* the panic-catching machinery, and the
/// pool converts it straight back into a [`crate::RuntimeError`].
#[expect(
    clippy::panic,
    reason = "fault injection: the pool's catch_unwind turns it back into a RuntimeError"
)]
pub(crate) fn trigger_injected_panic(k_index: usize) -> ! {
    panic!("injected worker panic at sweep index {k_index}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_syntax() {
        let plan = FaultPlan::parse("worker_panic@k=3,io_error@round=2,deadline=50ms")
            .expect("spec is well-formed");
        assert_eq!(
            plan.faults(),
            &[
                Fault::WorkerPanic { k_index: 3, persistent: false },
                Fault::CheckpointIoError { round: 2 },
                Fault::Deadline { millis: 50 },
            ]
        );
    }

    #[test]
    fn parses_persistent_panics_and_bare_deadlines() {
        let plan =
            FaultPlan::parse("worker_panic@k=0:always, deadline=120").expect("spec is well-formed");
        assert_eq!(
            plan.faults(),
            &[
                Fault::WorkerPanic { k_index: 0, persistent: true },
                Fault::Deadline { millis: 120 },
            ]
        );
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        assert!(FaultPlan::parse("").expect("empty spec parses").is_empty());
        assert!(FaultPlan::parse(" , ").expect("blank items parse").is_empty());
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "worker_panic@k=x",
            "io_error@round=0",
            "io_error@round=",
            "boom",
            "deadline=fast",
            "worker_death@fetch=0",
            "worker_death@fetch=x",
            "worker_death@fetch=3:x0",
            "worker_death@fetch=3:xq",
            "worker_hang@k=",
            "torn_write@round=0",
            "torn_write@round=x",
            "bit_flip@round=0",
            "bit_flip@round=",
        ] {
            let err = FaultPlan::parse(bad).expect_err("spec must be rejected");
            assert!(err.contains(bad.split('=').next().unwrap_or(bad)), "{bad}: {err}");
        }
    }

    #[test]
    fn parses_the_distributed_forms() {
        let plan = FaultPlan::parse("worker_death@fetch=7,worker_death@fetch=2:x5,worker_hang@k=3")
            .expect("spec is well-formed");
        assert_eq!(
            plan.faults(),
            &[
                Fault::WorkerDeath { fetch: 7, deaths: 1 },
                Fault::WorkerDeath { fetch: 2, deaths: 5 },
                Fault::WorkerHang { k_index: 3 },
            ]
        );
    }

    #[test]
    fn parses_the_store_forms() {
        let plan = FaultPlan::parse("torn_write@round=2,bit_flip@round=3")
            .expect("spec is well-formed");
        assert_eq!(
            plan.faults(),
            &[Fault::TornWrite { round: 2 }, Fault::BitFlip { round: 3 }]
        );
    }

    #[test]
    fn store_faults_are_one_shot_and_shared() {
        let plan = FaultPlan::parse("torn_write@round=2,bit_flip@round=4")
            .expect("spec is well-formed");
        let faults = FaultInjector::new(&plan);
        let clone = faults.clone();
        assert_eq!(faults.take_mangle(1), None);
        assert_eq!(clone.take_mangle(2), Some(Mangle::TornWrite));
        assert_eq!(faults.take_mangle(2), None, "clone must consume the shared mangle");
        assert_eq!(faults.take_mangle(4), Some(Mangle::BitFlip));
    }

    /// What every probe reports at sweep index, round and fetch batch 2.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Probes {
        panic: bool,
        io_error: bool,
        deaths: u32,
        hang: bool,
        mangle: Option<Mangle>,
        deadline: Option<Duration>,
    }

    fn probe_all(faults: &FaultInjector) -> Probes {
        Probes {
            panic: faults.should_panic(2),
            io_error: faults.should_fail_checkpoint(2),
            deaths: faults.deaths_at(2),
            hang: faults.take_hang(2),
            mangle: faults.take_mangle(2),
            deadline: faults.deadline(),
        }
    }

    #[test]
    fn each_fault_kind_fires_only_its_own_probe() {
        let quiet = Probes {
            panic: false,
            io_error: false,
            deaths: 0,
            hang: false,
            mangle: None,
            deadline: None,
        };
        assert_eq!(probe_all(&FaultInjector::default()), quiet, "the empty plan");
        for (fault, fires) in [
            (Fault::WorkerPanic { k_index: 2, persistent: false }, Probes { panic: true, ..quiet }),
            (Fault::CheckpointIoError { round: 2 }, Probes { io_error: true, ..quiet }),
            (
                Fault::Deadline { millis: 2 },
                Probes { deadline: Some(Duration::from_millis(2)), ..quiet },
            ),
            (Fault::WorkerDeath { fetch: 2, deaths: 3 }, Probes { deaths: 3, ..quiet }),
            (Fault::WorkerHang { k_index: 2 }, Probes { hang: true, ..quiet }),
            (Fault::TornWrite { round: 2 }, Probes { mangle: Some(Mangle::TornWrite), ..quiet }),
            (Fault::BitFlip { round: 2 }, Probes { mangle: Some(Mangle::BitFlip), ..quiet }),
        ] {
            let mut plan = FaultPlan::none();
            plan.push(fault);
            assert_eq!(probe_all(&FaultInjector::new(&plan)), fires, "{fault}");
        }
    }

    #[test]
    fn cluster_faults_consume_death_schedules_once() {
        let plan = FaultPlan::parse("worker_death@fetch=2:x3").expect("spec is well-formed");
        let faults = FaultInjector::new(&plan);
        assert_eq!(faults.deaths_at(1), 0);
        assert_eq!(faults.deaths_at(2), 3);
        assert_eq!(faults.deaths_at(2), 0, "a schedule fires for one fetch batch only");
    }

    #[test]
    fn cluster_faults_hangs_are_one_shot_and_shared() {
        let plan = FaultPlan::parse("worker_hang@k=4,deadline=30ms").expect("spec is well-formed");
        let faults = FaultInjector::new(&plan);
        let clone = faults.clone();
        assert_eq!(faults.deadline(), Some(Duration::from_millis(30)));
        assert!(!faults.take_hang(3));
        assert!(clone.take_hang(4));
        assert!(!faults.take_hang(4), "clone must consume the shared hang");
    }

    #[test]
    fn one_shot_panic_fires_exactly_once() {
        let plan = FaultPlan::parse("worker_panic@k=2").expect("spec is well-formed");
        let inj = FaultInjector::new(&plan);
        assert!(!inj.should_panic(1));
        assert!(inj.should_panic(2));
        assert!(!inj.should_panic(2), "one-shot fault must be consumed");
    }

    #[test]
    fn persistent_panic_keeps_firing() {
        let plan = FaultPlan::parse("worker_panic@k=2:always").expect("spec is well-formed");
        let inj = FaultInjector::new(&plan);
        assert!(inj.should_panic(2));
        assert!(inj.should_panic(2));
    }

    #[test]
    fn clones_share_consumption_state() {
        let plan = FaultPlan::parse("io_error@round=1").expect("spec is well-formed");
        let inj = FaultInjector::new(&plan);
        let clone = inj.clone();
        assert!(clone.should_fail_checkpoint(1));
        assert!(!inj.should_fail_checkpoint(1), "clone must consume the shared fault");
    }

    #[test]
    fn tightest_injected_deadline_wins() {
        // parse() rejects duplicate deadline directives, so multi-deadline
        // plans can only be built programmatically; the injector still
        // keeps the tightest.
        let mut plan = FaultPlan::none();
        plan.push(Fault::Deadline { millis: 80 });
        plan.push(Fault::Deadline { millis: 50 });
        plan.push(Fault::Deadline { millis: 90 });
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.deadline(), Some(Duration::from_millis(50)));
    }

    #[test]
    fn duplicate_directives_for_one_injection_point_are_rejected() {
        for spec in [
            "worker_panic@k=3,worker_panic@k=3:always",
            "io_error@round=2,io_error@round=2",
            "deadline=80ms,deadline=50ms",
            "worker_death@fetch=2,worker_death@fetch=2:x5",
            "worker_hang@k=1,worker_hang@k=1",
            "torn_write@round=2,torn_write@round=2",
            "bit_flip@round=3,bit_flip@round=3",
            // torn_write and bit_flip share the store's one-mangle-per-
            // round injection point, so they conflict rather than compose.
            "torn_write@round=2,bit_flip@round=2",
        ] {
            let err = FaultPlan::parse(spec).expect_err("conflicting spec must be rejected");
            assert!(err.contains("conflicting directive"), "{spec}: {err}");
            assert!(err.contains("already arms"), "{spec}: {err}");
        }
    }

    #[test]
    fn distinct_injection_points_do_not_conflict() {
        let plan = FaultPlan::parse(
            "worker_panic@k=1,worker_panic@k=2,io_error@round=1,io_error@round=2,\
             torn_write@round=1,bit_flip@round=2",
        )
        .expect("distinct points are fine");
        assert_eq!(plan.faults().len(), 6);
    }

    #[test]
    fn worker_death_hint_names_both_forms() {
        let err = FaultPlan::parse("worker_death@fetch=nope").expect_err("malformed");
        assert!(err.contains("worker_death@fetch=<n>"), "{err}");
        assert!(err.contains("worker_death@fetch=<n>:x<m>"), "{err}");
    }

    #[test]
    fn display_renders_the_parse_grammar() {
        let spec = "worker_panic@k=3:always,io_error@round=2,deadline=50ms,\
                    worker_death@fetch=7,worker_death@fetch=2:x5,worker_hang@k=3,\
                    torn_write@round=1,bit_flip@round=4";
        let plan = FaultPlan::parse(spec).expect("spec is well-formed");
        assert_eq!(plan.to_string(), spec.replace(char::is_whitespace, ""));
        assert_eq!(FaultPlan::none().to_string(), "");
    }

    proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Render ↔ parse round-trip: any conflict-free plan survives
        /// `parse(render(plan))` exactly.
        #[test]
        fn display_parse_round_trips(plan in arbitrary_plan()) {
            let rendered = plan.to_string();
            let reparsed = FaultPlan::parse(&rendered)
                .map_err(|e| format!("rendered plan must reparse: {rendered}: {e}"))?;
            prop_assert_eq!(&reparsed, &plan, "{}", rendered);
        }
    }

    use proptest::prelude::*;

    /// A conflict-free random plan: distinct injection points by
    /// construction (indices are spread across disjoint ranges per kind).
    fn arbitrary_plan() -> impl Strategy<Value = FaultPlan> {
        proptest::collection::vec((0u8..7, 1u64..9, any::<bool>()), 0..8).prop_map(|specs| {
            let mut plan = FaultPlan::none();
            for (kind, at, flag) in specs {
                let fault = match kind {
                    0 => Fault::WorkerPanic {
                        k_index: usize::try_from(at).expect("small index"),
                        persistent: flag,
                    },
                    1 => Fault::CheckpointIoError {
                        round: usize::try_from(at).expect("small round"),
                    },
                    2 => Fault::Deadline { millis: at },
                    3 => Fault::WorkerDeath {
                        fetch: at,
                        deaths: if flag { 3 } else { 1 },
                    },
                    4 => Fault::WorkerHang { k_index: usize::try_from(at).expect("small index") },
                    5 => Fault::TornWrite { round: usize::try_from(at).expect("small round") },
                    _ => Fault::BitFlip { round: usize::try_from(at).expect("small round") },
                };
                let key = fault.injection_point();
                if !plan.faults().iter().any(|f| f.injection_point() == key) {
                    plan.push(fault);
                }
            }
            plan
        })
    }
}
