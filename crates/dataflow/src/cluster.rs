//! The master/worker deployment of Rejecto (§V).
//!
//! Long-lived worker threads hold contiguous shards of the augmented
//! graph's adjacency; the master holds node status, gains, and the bucket
//! list, and pulls node neighborhoods through a prefetching LRU buffer.
//! Every master↔worker exchange is counted in [`IoStats`], so the Table-II
//! harness can report both wall time and simulated network traffic.
//!
//! # Failure model
//!
//! The cluster keeps the source graph as its **lineage** (the RDD model)
//! and degrades through three tiers before ever failing a request:
//!
//! 1. **Respawn**: a dead worker (broken channel) or a *hung* worker
//!    (no answer within [`ClusterConfig::request_deadline`], detected by
//!    the per-request watchdog) is rebuilt from lineage after a
//!    deterministic exponential backoff, and the in-flight request is
//!    replayed ([`IoStats::worker_restarts`]).
//! 2. **Rebalance**: a worker that keeps dying through the whole
//!    [`ClusterConfig::max_respawns`] budget has its shard merged onto an
//!    adjacent survivor ([`IoStats::shards_rebalanced`]); the algorithm
//!    sees the same data from fewer workers.
//! 3. **Structured failure**: only when no survivor remains does a
//!    [`ClusterError`] surface — never a panic.
//!
//! Because recovery replays requests against byte-identical lineage data,
//! any fault schedule that leaves at least one worker alive yields results
//! byte-identical to the failure-free run.

use crate::error::ClusterError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use kl::KParam;
use rejection::{Adjacency, AugmentedGraph, NodeId, Region};
use rejecto_core::FaultInjector;
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Never tighten the per-request watchdog below this, even when the run
/// deadline is about to expire: a healthy worker that needs a few
/// milliseconds must not be misdiagnosed as hung and respawned in a loop.
const WATCHDOG_FLOOR: Duration = Duration::from_millis(250);

/// Per-node adjacency shipped from a worker to the master.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeData {
    friends: Vec<u32>,
    /// Users whose requests this node rejected.
    rejected_by: Vec<u32>,
    /// Users who rejected this node's requests.
    rejectors_of: Vec<u32>,
}

impl NodeData {
    /// The slice view the cut and gain arithmetic reads.
    pub(crate) fn adjacency(&self) -> Adjacency<'_, u32> {
        Adjacency {
            friends: &self.friends,
            rejected_by: &self.rejected_by,
            rejectors_of: &self.rejectors_of,
        }
    }
}

/// Cluster sizing and failure-handling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Worker threads (graph shards).
    pub num_workers: usize,
    /// Nodes fetched per prefetch batch (top of the bucket list).
    pub prefetch_batch: usize,
    /// Capacity of the master's LRU prefetch buffer, in nodes.
    pub buffer_capacity: usize,
    /// Watchdog deadline for one master↔worker request: a worker that has
    /// not answered within this window is declared hung and respawned from
    /// lineage. Generous by default — it only has to beat a genuine hang,
    /// not a slow shard.
    pub request_deadline: Duration,
    /// Respawn attempts per request before the worker is declared
    /// persistently failed and its shard is rebalanced onto a survivor.
    pub max_respawns: usize,
    /// Base of the deterministic exponential backoff between respawn
    /// attempts (`backoff_base * 2^attempt`, saturating).
    pub backoff_base: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_workers: 4,
            prefetch_batch: 256,
            buffer_capacity: 1 << 16,
            request_deadline: Duration::from_secs(5),
            max_respawns: 3,
            backoff_base: Duration::from_millis(1),
        }
    }
}

impl ClusterConfig {
    /// Validates the graph-independent knobs.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidConfig`] for zero workers, a zero prefetch
    /// batch, a zero-capacity prefetch buffer, or a zero request deadline
    /// — each would panic or silently hang deeper in the runtime.
    pub fn validate(&self) -> Result<(), ClusterError> {
        let reject = |message: &str| {
            Err(ClusterError::InvalidConfig { message: message.to_string() })
        };
        if self.num_workers == 0 {
            return reject("num_workers must be at least 1");
        }
        if self.prefetch_batch == 0 {
            return reject("prefetch_batch must be at least 1");
        }
        if self.buffer_capacity == 0 {
            return reject("buffer_capacity must be at least 1");
        }
        if self.request_deadline.is_zero() {
            return reject("request_deadline must be non-zero");
        }
        Ok(())
    }
}

/// Simulated master↔worker traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Fetch round trips (one request fan-out counts once).
    pub fetch_batches: u64,
    /// Node neighborhoods shipped to the master.
    pub nodes_fetched: u64,
    /// Adjacency lookups served from the prefetch buffer.
    pub buffer_hits: u64,
    /// Adjacency lookups that had to trigger a fetch.
    pub buffer_misses: u64,
    /// Parallel gain/stat initialization jobs dispatched.
    pub init_jobs: u64,
    /// Workers respawned from lineage after a failure (§V: Spark's
    /// "automated fault tolerance").
    pub worker_restarts: u64,
    /// Shards merged onto a survivor after a worker failed persistently
    /// (graceful degradation past the respawn budget).
    pub shards_rebalanced: u64,
    /// Injected or real hangs the watchdog timed out and recovered from
    /// (each one burned a deadline budget before the respawn ladder ran).
    pub hangs_absorbed: u64,
}

impl IoStats {
    /// Accumulates `other` into `self`, field by field.
    ///
    /// The exhaustive destructuring is deliberate: adding a field to
    /// [`IoStats`] without extending this merge is a compile error, not a
    /// silently dropped counter.
    pub fn merge(&mut self, other: &IoStats) {
        let IoStats {
            fetch_batches,
            nodes_fetched,
            buffer_hits,
            buffer_misses,
            init_jobs,
            worker_restarts,
            shards_rebalanced,
            hangs_absorbed,
        } = *other;
        self.fetch_batches += fetch_batches;
        self.nodes_fetched += nodes_fetched;
        self.buffer_hits += buffer_hits;
        self.buffer_misses += buffer_misses;
        self.init_jobs += init_jobs;
        self.worker_restarts += worker_restarts;
        self.shards_rebalanced += shards_rebalanced;
        self.hangs_absorbed += hangs_absorbed;
    }
}

enum Request {
    /// Ship the adjacency of these owned nodes.
    Fetch(Vec<u32>),
    /// Compute initial switching gains for the owned range under the given
    /// region assignment and rational `k`.
    InitGains { regions: Arc<Vec<Region>>, k: KParam },
    /// Compute `(friend_degree, rejections_received, rejections_cast)` for
    /// the owned range.
    Stats,
    /// Count cross-cut friendships and rejections for the owned range.
    CutCounts { regions: Arc<Vec<Region>> },
    Shutdown,
}

/// Worker answers. Range-spanning responses carry the shard base so the
/// master can place results even when a rebalance has merged shards since
/// the request went out.
enum Response {
    Nodes(Vec<(u32, NodeData)>),
    /// Gains for the owned range, in id order.
    Gains { base: u32, gains: Vec<i64> },
    /// `(friend_degree, rejections_received, rejections_cast)` for the
    /// owned range.
    Stats { base: u32, stats: Vec<(u32, u32, u32)> },
    /// `(cross_friendships_counted_once, cross_rejections)`.
    CutCounts { base: u32, len: u32, friends: u64, rejections: u64 },
}

impl Response {
    /// The contiguous `[base, end)` node span this response covers, when
    /// the variant spans one (broadcast collection walks these spans).
    fn span(&self) -> Option<(u32, u32)> {
        match self {
            Response::Nodes(_) => None,
            Response::Gains { base, gains } => Some((*base, base + gains.len() as u32)),
            Response::Stats { base, stats } => Some((*base, base + stats.len() as u32)),
            Response::CutCounts { base, len, .. } => Some((*base, base + len)),
        }
    }
}

struct Worker {
    tx: Sender<Request>,
    rx: Receiver<Response>,
    handle: Option<JoinHandle<()>>,
    range: (u32, u32),
    /// A request was sent (by the broadcast fan-out) and its response has
    /// not been collected yet.
    pending: bool,
}

/// A running worker pool holding the sharded augmented graph.
///
/// See the [module docs](self) for the failure model: respawn from
/// lineage, then rebalance onto survivors, then a structured
/// [`ClusterError`] — never a panic.
pub(crate) struct Cluster {
    graph: Arc<AugmentedGraph>,
    workers: RefCell<Vec<Worker>>,
    num_nodes: usize,
    /// Current per-request watchdog deadline (monotonically tightened).
    watchdog: Cell<Duration>,
    max_respawns: usize,
    backoff_base: Duration,
    /// The run's fault schedule, handed over by the sweep backend (empty
    /// by default); the cluster probes its worker deaths.
    faults: RefCell<FaultInjector>,
    /// 1-based fetch batch counter, the clock injected deaths key on.
    fetch_seq: Cell<u64>,
    /// Injected deaths left to fire (kill-before-send), armed by a
    /// `worker_death@fetch=<n>[:x<m>]` schedule reaching its fetch.
    pending_deaths: Cell<u32>,
    /// Injected hangs left to fire (the next request is swallowed).
    pending_hangs: Cell<u32>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("num_workers", &self.workers.borrow().len())
            .field("num_nodes", &self.num_nodes)
            .finish()
    }
}

struct Shard {
    base: u32,
    nodes: Vec<NodeData>,
}

impl Shard {
    fn data(&self, id: u32) -> &NodeData {
        &self.nodes[(id - self.base) as usize]
    }

    fn serve(self, rx: Receiver<Request>, tx: Sender<Response>) {
        #[expect(
            clippy::disallowed_methods,
            reason = "the serve loop parks until the owner sends; shutdown arrives as Request::Shutdown or a hangup, so blocking cannot wedge the cluster"
        )]
        while let Ok(req) = rx.recv() {
            match req {
                Request::Shutdown => break,
                Request::Fetch(ids) => {
                    let out =
                        ids.into_iter().map(|id| (id, self.data(id).clone())).collect();
                    let _ = tx.send(Response::Nodes(out));
                }
                Request::Stats => {
                    let out = self
                        .nodes
                        .iter()
                        .map(|n| {
                            (
                                n.friends.len() as u32,
                                n.rejectors_of.len() as u32,
                                n.rejected_by.len() as u32,
                            )
                        })
                        .collect();
                    let _ = tx.send(Response::Stats { base: self.base, stats: out });
                }
                Request::CutCounts { regions } => {
                    let mut cf = 0u64;
                    let mut cr = 0u64;
                    for (u, n) in (self.base..).zip(&self.nodes) {
                        let (f, r) = n.adjacency().cut_share(NodeId(u), &regions);
                        cf += f;
                        cr += r;
                    }
                    let _ = tx.send(Response::CutCounts {
                        base: self.base,
                        len: self.nodes.len() as u32,
                        friends: cf,
                        rejections: cr,
                    });
                }
                Request::InitGains { regions, k } => {
                    let gains = (self.base..)
                        .zip(&self.nodes)
                        .map(|(u, n)| k.gain(n.adjacency().switch_delta(NodeId(u), &regions)))
                        .collect();
                    let _ = tx.send(Response::Gains { base: self.base, gains });
                }
            }
        }
    }
}

fn spawn_worker(
    graph: &Arc<AugmentedGraph>,
    lo: u32,
    hi: u32,
    wi: usize,
) -> Result<Worker, ClusterError> {
    let (req_tx, req_rx) = unbounded::<Request>();
    let (resp_tx, resp_rx) = unbounded::<Response>();
    let lineage = Arc::clone(graph);
    #[expect(
        clippy::disallowed_methods,
        reason = "the master/worker cluster: one OS thread per shard worker"
    )]
    let handle = std::thread::Builder::new()
        .name(format!("rejecto-worker-{wi}"))
        .spawn(move || {
            // The shard is (re)built from the lineage inside the worker.
            let nodes: Vec<NodeData> = (lo..hi)
                .map(|id| {
                    let id = NodeId(id);
                    NodeData {
                        friends: lineage.friends(id).iter().map(|v| v.0).collect(),
                        rejected_by: lineage.rejected_by(id).iter().map(|v| v.0).collect(),
                        rejectors_of: lineage.rejectors_of(id).iter().map(|v| v.0).collect(),
                    }
                })
                .collect();
            Shard { base: lo, nodes }.serve(req_rx, resp_tx)
        })
        .map_err(|e| ClusterError::SpawnFailed { worker: wi, message: e.to_string() })?;
    Ok(Worker { tx: req_tx, rx: resp_rx, handle: Some(handle), range: (lo, hi), pending: false })
}

/// Shuts a worker down and reclaims its thread. Channels are dropped
/// *before* the join so a hung worker (blocked with no shutdown pending)
/// observes its request channel closing and exits instead of deadlocking
/// the master.
fn reap(worker: Worker) {
    let Worker { tx, rx, handle, .. } = worker;
    let _ = tx.send(Request::Shutdown);
    drop(tx);
    drop(rx);
    if let Some(h) = handle {
        let _ = h.join();
    }
}

impl Cluster {
    /// Shards `graph` across `config.num_workers` worker threads. The
    /// graph is retained on the master as the recovery lineage.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidConfig`] when the config fails
    /// [`ClusterConfig::validate`] or asks for more workers (shards) than
    /// the graph has nodes; [`ClusterError::SpawnFailed`] when the OS
    /// refuses a worker thread.
    pub(crate) fn new(
        graph: Arc<AugmentedGraph>,
        config: &ClusterConfig,
    ) -> Result<Self, ClusterError> {
        config.validate()?;
        let n = graph.num_nodes();
        let w = config.num_workers;
        if w > n.max(1) {
            return Err(ClusterError::InvalidConfig {
                message: format!("num_workers ({w}) exceeds the graph's {n} node(s)"),
            });
        }
        // Balanced contiguous shards: every shard non-empty for n > 0.
        let workers = (0..w)
            .map(|wi| {
                let lo = (wi * n / w) as u32;
                let hi = ((wi + 1) * n / w) as u32;
                spawn_worker(&graph, lo, hi, wi)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Cluster {
            graph,
            workers: RefCell::new(workers),
            num_nodes: n,
            watchdog: Cell::new(config.request_deadline),
            max_respawns: config.max_respawns,
            backoff_base: config.backoff_base,
            faults: RefCell::new(FaultInjector::default()),
            fetch_seq: Cell::new(0),
            pending_deaths: Cell::new(0),
            pending_hangs: Cell::new(0),
        })
    }

    /// Number of users the cluster holds.
    pub(crate) fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of worker shards (shrinks when shards are rebalanced).
    pub(crate) fn num_workers(&self) -> usize {
        self.workers.borrow().len()
    }

    /// Hands the run's fault schedule to this cluster. Clones share
    /// consumption state, so a schedule reaching successive per-round
    /// clusters still fires exactly once per run.
    pub(crate) fn arm_faults(&self, faults: &FaultInjector) {
        *self.faults.borrow_mut() = faults.clone();
    }

    /// Arms `n` injected hangs: each swallows one request so only the
    /// watchdog can notice that no answer is coming.
    pub(crate) fn arm_hang(&self, n: u32) {
        self.pending_hangs.set(self.pending_hangs.get() + n);
    }

    /// Tightens the per-request watchdog (floored so a near-expired run
    /// deadline cannot misdiagnose healthy workers as hung).
    pub(crate) fn tighten_watchdog(&self, limit: Duration) {
        let floored = limit.max(WATCHDOG_FLOOR);
        self.watchdog.set(self.watchdog.get().min(floored));
    }

    /// Kills worker `wi`, as an injected death (or a test) simulates a
    /// crash. The next request routed to it triggers a lineage respawn.
    ///
    /// # Panics
    ///
    /// Panics if `wi` is out of range.
    pub(crate) fn fail_worker(&self, wi: usize) {
        let mut workers = self.workers.borrow_mut();
        let w = &mut workers[wi];
        let _ = w.tx.send(Request::Shutdown);
        if let Some(h) = w.handle.take() {
            let _ = h.join();
        }
    }

    fn owner(&self, id: u32) -> usize {
        // Shard ranges are sorted, disjoint, and contiguous — and stay so
        // across rebalances (a dead shard merges into an adjacent one) —
        // so binary search stays valid for the cluster's whole life.
        let workers = self.workers.borrow();
        workers
            .partition_point(|w| w.range.1 <= id)
            .min(workers.len() - 1)
    }

    /// Replaces worker `wi` with a fresh spawn of the same shard range.
    fn respawn(&self, wi: usize) -> Result<(), ClusterError> {
        let old = {
            let mut workers = self.workers.borrow_mut();
            let (lo, hi) = workers[wi].range;
            let fresh = spawn_worker(&self.graph, lo, hi, wi)?;
            std::mem::replace(&mut workers[wi], fresh)
        };
        reap(old);
        Ok(())
    }

    /// Merges the persistently failing worker `wi`'s shard onto an
    /// adjacent survivor and returns the index now owning the merged
    /// range.
    ///
    /// # Errors
    ///
    /// [`ClusterError::WorkerLost`] when `wi` is the last worker.
    fn rebalance(
        &self,
        wi: usize,
        attempts: usize,
        io: &mut IoStats,
    ) -> Result<usize, ClusterError> {
        let (dead, old) = {
            let mut workers = self.workers.borrow_mut();
            if workers.len() <= 1 {
                return Err(ClusterError::WorkerLost { worker: wi, attempts });
            }
            // Merge left, except for the first shard which merges right;
            // either way the union is contiguous and range order holds.
            let neighbor = if wi > 0 { wi - 1 } else { wi + 1 };
            let (lo, hi) = workers[wi].range;
            let (nlo, nhi) = workers[neighbor].range;
            let fresh =
                spawn_worker(&self.graph, lo.min(nlo), hi.max(nhi), neighbor.min(wi))?;
            let dead = workers.remove(wi);
            let target = if wi > 0 { wi - 1 } else { 0 };
            let old = std::mem::replace(&mut workers[target], fresh);
            (dead, old)
        };
        io.shards_rebalanced += 1;
        reap(dead);
        reap(old);
        Ok(if wi > 0 { wi - 1 } else { 0 })
    }

    /// Sends `make_req` to worker `wi` and awaits the response through the
    /// full recovery ladder: watchdog-bounded receive, bounded respawns
    /// with deterministic backoff, then shard rebalancing.
    fn exchange(
        &self,
        mut wi: usize,
        make_req: &dyn Fn() -> Request,
        io: &mut IoStats,
    ) -> Result<Response, ClusterError> {
        let mut attempt: usize = 0;
        loop {
            // Every attempt gets ONE watchdog interval as its total
            // blocking budget. Draining a stale in-flight response and
            // waiting for the fresh one draw from the same budget — the
            // waits used to each burn a full interval, stacking past
            // `ClusterConfig::request_deadline` when recovering a hang.
            let budget = self.watchdog.get();
            let clock = rejecto_obs::Stopwatch::start();
            let left = || budget.saturating_sub(clock.elapsed());
            // Injected death: the target dies before it can see the
            // request (and keeps dying on respawn while the schedule has
            // deaths left).
            if self.pending_deaths.get() > 0 {
                self.pending_deaths.set(self.pending_deaths.get() - 1);
                self.fail_worker(wi);
            }
            let hang = self.pending_hangs.get() > 0;
            if hang {
                self.pending_hangs.set(self.pending_hangs.get() - 1);
                io.hangs_absorbed += 1;
            }
            let outcome = {
                let mut workers = self.workers.borrow_mut();
                let w = &mut workers[wi];
                let sent = if hang {
                    // The request (or the in-flight response) is lost in
                    // the simulated network; nothing will come back and
                    // only the watchdog below can tell.
                    if w.pending {
                        let _ = w.rx.recv_timeout(left());
                        w.pending = false;
                    }
                    true
                } else if w.pending {
                    true
                } else {
                    match w.tx.send(make_req()) {
                        Ok(()) => {
                            w.pending = true;
                            true
                        }
                        Err(_) => false,
                    }
                };
                if sent && !hang {
                    match w.rx.recv_timeout(left()) {
                        Ok(resp) => {
                            w.pending = false;
                            Some(resp)
                        }
                        Err(_) => None,
                    }
                } else if sent {
                    // The swallowed request: wait out whatever is left of
                    // this attempt's watchdog budget.
                    match w.rx.recv_timeout(left()) {
                        Ok(_) | Err(_) => None,
                    }
                } else {
                    None
                }
            };
            if let Some(resp) = outcome {
                return Ok(resp);
            }
            if attempt < self.max_respawns {
                // Deterministic exponential backoff before the respawn,
                // never longer than one watchdog interval.
                let pause =
                    self.backoff_base.saturating_mul(1u32 << attempt.min(16)).min(budget);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                attempt += 1;
                self.respawn(wi)?;
                io.worker_restarts += 1;
            } else {
                wi = self.rebalance(wi, attempt, io)?;
                attempt = 0;
            }
        }
    }

    /// Broadcasts a request to every worker and collects the responses in
    /// shard order, recovering failed workers along the way.
    fn broadcast(
        &self,
        make_req: &dyn Fn() -> Request,
        io: &mut IoStats,
    ) -> Result<Vec<Response>, ClusterError> {
        // Optimistic fan-out: send to every live worker up front so the
        // shards compute in parallel; failures fall back to the
        // recovering exchange below.
        {
            let mut workers = self.workers.borrow_mut();
            for w in workers.iter_mut() {
                if !w.pending && w.range.0 < w.range.1 && w.tx.send(make_req()).is_ok() {
                    w.pending = true;
                }
            }
        }
        // Collect by node-id coverage rather than worker index: if a
        // mid-collection rebalance merges shards, the merged worker's
        // recomputed response covers the union span. When that span starts
        // before `next`, it supersedes already-collected responses (the
        // merge absorbed a survivor's shard); those are discarded — the
        // recomputation is deterministic over immutable lineage, so the
        // superseding response is byte-identical on the overlap.
        let n = self.num_nodes as u32;
        let mut out: Vec<Response> = Vec::with_capacity(self.num_workers());
        let mut next: u32 = 0;
        while next < n {
            let wi = self.owner(next);
            let resp = self.exchange(wi, make_req, io)?;
            match resp.span() {
                Some((base, end)) if base <= next && end > next => {
                    while out
                        .last()
                        .and_then(Response::span)
                        .is_some_and(|(b, _)| b >= base)
                    {
                        out.pop();
                    }
                    out.push(resp);
                    next = end;
                }
                _ => {
                    return Err(ClusterError::ProtocolViolation {
                        message: format!(
                            "broadcast response from worker {wi} does not cover \
                             nodes starting at {next}"
                        ),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Fetches adjacency for `ids` (grouped by owner; one fan-out counts as
    /// one batch in the stats).
    pub(crate) fn fetch(
        &self,
        ids: &[u32],
        io: &mut IoStats,
    ) -> Result<Vec<(u32, NodeData)>, ClusterError> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        // Injected death schedules are keyed on this 1-based fetch clock.
        self.fetch_seq.set(self.fetch_seq.get() + 1);
        let due = self.faults.borrow().deaths_at(self.fetch_seq.get());
        if due > 0 {
            self.pending_deaths.set(self.pending_deaths.get() + due);
        }
        let mut per_worker: Vec<Vec<u32>> = vec![Vec::new(); self.num_workers()];
        for &id in ids {
            per_worker[self.owner(id)].push(id);
        }
        io.fetch_batches += 1;
        io.nodes_fetched += ids.len() as u64;
        let mut out = Vec::with_capacity(ids.len());
        for batch in per_worker.into_iter().filter(|b| !b.is_empty()) {
            // Re-resolve the owner per batch: a rebalance while serving an
            // earlier batch shifts worker indices.
            let wi = self.owner(batch[0]);
            match self.exchange(wi, &|| Request::Fetch(batch.clone()), io)? {
                Response::Nodes(nodes) => out.extend(nodes),
                _ => {
                    return Err(ClusterError::ProtocolViolation {
                        message: format!("worker {wi} answered a fetch with a non-Nodes response"),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Broadcasts one initialization job and hands every shard's answer to
    /// `take` in node order (the broadcast's spans tile the id range);
    /// `take` returns `false` on an answer of the wrong kind.
    fn gather(
        &self,
        make_req: &dyn Fn() -> Request,
        io: &mut IoStats,
        job: &str,
        mut take: impl FnMut(Response) -> bool,
    ) -> Result<(), ClusterError> {
        io.init_jobs += 1;
        for resp in self.broadcast(make_req, io)? {
            if !take(resp) {
                return Err(ClusterError::ProtocolViolation {
                    message: format!("{job} broadcast yielded a response of another kind"),
                });
            }
        }
        Ok(())
    }

    /// Parallel per-node
    /// `(friend_degree, rejections_received, rejections_cast)`.
    pub(crate) fn stats(&self, io: &mut IoStats) -> Result<Vec<(u32, u32, u32)>, ClusterError> {
        let mut out = Vec::with_capacity(self.num_nodes);
        self.gather(&|| Request::Stats, io, "stats", |resp| match resp {
            Response::Stats { stats, .. } => {
                out.extend(stats);
                true
            }
            _ => false,
        })?;
        Ok(out)
    }

    /// Parallel initial gains for all nodes under `regions`.
    pub(crate) fn init_gains(
        &self,
        regions: &[Region],
        k: KParam,
        io: &mut IoStats,
    ) -> Result<Vec<i64>, ClusterError> {
        let regions = Arc::new(regions.to_vec());
        let make = || Request::InitGains { regions: Arc::clone(&regions), k };
        let mut out = Vec::with_capacity(self.num_nodes);
        self.gather(&make, io, "init-gains", |resp| match resp {
            Response::Gains { gains, .. } => {
                out.extend(gains);
                true
            }
            _ => false,
        })?;
        Ok(out)
    }

    /// Parallel cross-cut counts under `regions`.
    pub(crate) fn cut_counts(
        &self,
        regions: &[Region],
        io: &mut IoStats,
    ) -> Result<(u64, u64), ClusterError> {
        let regions = Arc::new(regions.to_vec());
        let make = || Request::CutCounts { regions: Arc::clone(&regions) };
        let (mut cf, mut cr) = (0u64, 0u64);
        self.gather(&make, io, "cut-counts", |resp| match resp {
            Response::CutCounts { friends, rejections, .. } => {
                cf += friends;
                cr += rejections;
                true
            }
            _ => false,
        })?;
        Ok((cf, cr))
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let mut workers = self.workers.borrow_mut();
        for w in workers.iter() {
            let _ = w.tx.send(Request::Shutdown);
        }
        for w in workers.iter_mut() {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ShardSource;
    use crate::DistributedDetector;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rejecto_core::{
        Completion, FaultPlan, InitialPlacement, InterruptReason, MaarSolver, RejectoConfig,
        RunBudget, RunContext, RuntimeError, Seeds, SweepOutcome, Termination,
    };
    use simulator::{Scenario, ScenarioConfig};
    use socialgraph::generators::BarabasiAlbert;
    use std::time::Instant;

    fn sim_graph() -> AugmentedGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let host = BarabasiAlbert::new(300, 4).generate(&mut rng);
        Scenario::new(ScenarioConfig {
            num_fakes: 40,
            requests_per_spammer: 12,
            ..ScenarioConfig::default()
        })
        .run(&host, 11)
        .graph
    }

    fn spawn(g: &AugmentedGraph, config: &ClusterConfig) -> Cluster {
        Cluster::new(Arc::new(g.clone()), config).expect("valid test config")
    }

    /// One MAAR solve on `cluster` — the sweep (and, when it finds
    /// nothing, the all-legit fallback) reading the shards — under
    /// `rejecto`'s budgets and fault plan, with the traffic it caused.
    fn solve_on(
        cluster: &Cluster,
        config: &ClusterConfig,
        rejecto: RejectoConfig,
    ) -> Result<(SweepOutcome, IoStats), ClusterError> {
        let ctx = RunContext::armed(&rejecto, None);
        let mut source = ShardSource::new(cluster, config);
        let out = MaarSolver::new(rejecto).solve_with(&mut source, &[], &[], &ctx)?;
        Ok((out, source.io()))
    }

    fn suspects(out: &SweepOutcome) -> Vec<NodeId> {
        out.cut.as_ref().map(|c| c.suspects()).unwrap_or_default()
    }

    #[test]
    fn cluster_shards_cover_all_nodes() {
        let g = sim_graph();
        let cluster = spawn(&g, &ClusterConfig::default());
        assert_eq!(cluster.num_nodes(), 340);
        assert_eq!(cluster.num_workers(), 4);
        let mut io = IoStats::default();
        let stats = cluster.stats(&mut io).expect("healthy cluster serves stats");
        for u in g.nodes() {
            assert_eq!(stats[u.index()].0 as usize, g.friend_degree(u));
            assert_eq!(stats[u.index()].1 as usize, g.rejections_received(u));
        }
    }

    #[test]
    fn fetch_returns_correct_adjacency() {
        let g = sim_graph();
        let cluster = spawn(&g, &ClusterConfig::default());
        let mut io = IoStats::default();
        let ids = [0u32, 150, 339];
        let fetched = cluster.fetch(&ids, &mut io).expect("healthy cluster serves fetches");
        assert_eq!(fetched.len(), 3);
        for (id, data) in fetched {
            let expect: Vec<u32> = g.friends(NodeId(id)).iter().map(|v| v.0).collect();
            assert_eq!(data.friends, expect, "node {id}");
        }
        assert_eq!(io.fetch_batches, 1);
        assert_eq!(io.nodes_fetched, 3);
    }

    #[test]
    fn distributed_solve_matches_single_node_solver() {
        let g = sim_graph();
        let config = RejectoConfig::default();
        let local = MaarSolver::new(config.clone()).solve(&g, &[], &[]).expect("local cut");
        let cluster_config = ClusterConfig::default();
        let (dist, _) = solve_on(&spawn(&g, &cluster_config), &cluster_config, config)
            .expect("distributed solve succeeds");
        assert_eq!(suspects(&dist), local.suspects(), "partitions diverged");
        let ac = dist.cut.expect("distributed cut").acceptance_rate;
        assert!((ac - local.acceptance_rate).abs() < 1e-12);
        assert!(!dist.interrupted);
        assert!(dist.failures.is_empty());
    }

    #[test]
    fn prefetching_served_most_lookups_from_buffer() {
        let g = sim_graph();
        let config = ClusterConfig::default();
        let (_, io) = solve_on(&spawn(&g, &config), &config, RejectoConfig::default())
            .expect("distributed solve succeeds");
        assert!(io.buffer_hits > 0);
        // With batch prefetch, fetch round trips must be far fewer than
        // node lookups.
        assert!(
            io.fetch_batches * 8 < io.buffer_hits + io.buffer_misses,
            "batches {} vs lookups {}",
            io.fetch_batches,
            io.buffer_hits + io.buffer_misses
        );
    }

    #[test]
    fn tiny_buffer_forces_more_fetches_than_large_buffer() {
        let g = sim_graph();
        let rejecto = RejectoConfig::default();
        let tiny = ClusterConfig { buffer_capacity: 8, prefetch_batch: 4, ..Default::default() };
        let (small, small_io) = solve_on(&spawn(&g, &tiny), &tiny, rejecto.clone())
            .expect("distributed solve succeeds");
        let roomy = ClusterConfig::default();
        let (large, large_io) =
            solve_on(&spawn(&g, &roomy), &roomy, rejecto).expect("distributed solve succeeds");
        assert!(small_io.nodes_fetched > large_io.nodes_fetched);
        assert_eq!(suspects(&small), suspects(&large), "buffering must not change the cut");
    }

    #[test]
    fn single_worker_cluster_works() {
        let g = sim_graph();
        let config = ClusterConfig { num_workers: 1, ..Default::default() };
        let (dist, _) = solve_on(&spawn(&g, &config), &config, RejectoConfig::default())
            .expect("distributed solve succeeds");
        assert!(!suspects(&dist).is_empty());
    }

    #[test]
    fn invalid_configs_are_rejected_structurally() {
        let g = Arc::new(sim_graph());
        for (config, needle) in [
            (ClusterConfig { num_workers: 0, ..Default::default() }, "num_workers"),
            (ClusterConfig { prefetch_batch: 0, ..Default::default() }, "prefetch_batch"),
            (ClusterConfig { buffer_capacity: 0, ..Default::default() }, "buffer_capacity"),
            (
                ClusterConfig { request_deadline: Duration::ZERO, ..Default::default() },
                "request_deadline",
            ),
            (ClusterConfig { num_workers: 100_000, ..Default::default() }, "exceeds"),
        ] {
            match Cluster::new(Arc::clone(&g), &config) {
                Err(ClusterError::InvalidConfig { message }) => {
                    assert!(message.contains(needle), "{needle} not in: {message}");
                }
                other => panic!("{needle}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn iostats_merge_accumulates_every_field() {
        // All-distinct values so a swapped or dropped field shows up.
        let a = IoStats {
            fetch_batches: 1,
            nodes_fetched: 2,
            buffer_hits: 3,
            buffer_misses: 4,
            init_jobs: 5,
            worker_restarts: 6,
            shards_rebalanced: 7,
            hangs_absorbed: 8,
        };
        let mut b = IoStats {
            fetch_batches: 10,
            nodes_fetched: 20,
            buffer_hits: 30,
            buffer_misses: 40,
            init_jobs: 50,
            worker_restarts: 60,
            shards_rebalanced: 70,
            hangs_absorbed: 80,
        };
        b.merge(&a);
        assert_eq!(
            b,
            IoStats {
                fetch_batches: 11,
                nodes_fetched: 22,
                buffer_hits: 33,
                buffer_misses: 44,
                init_jobs: 55,
                worker_restarts: 66,
                shards_rebalanced: 77,
                hangs_absorbed: 88,
            }
        );
    }

    /// A rejection-free 12-node clique: no cut under any start.
    fn clique() -> AugmentedGraph {
        let mut b = rejection::AugmentedGraphBuilder::new(12);
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                b.add_friendship(NodeId(u), NodeId(v));
            }
        }
        b.build()
    }

    #[test]
    fn all_legit_retry_path_keeps_every_io_counter() {
        // A zero warm-start threshold places the cap's worth of nodes, and
        // on a rejection-free graph the primary sweep from there finds no
        // cut, so the solver really runs the all-legit fallback; the
        // primary sweep's counters must survive the merge.
        let g = clique();
        let config = ClusterConfig::default();
        let all_legit = RejectoConfig {
            initial_placement: InitialPlacement::AllLegit,
            ..RejectoConfig::default()
        };
        let (_, single) =
            solve_on(&spawn(&g, &config), &config, all_legit).expect("distributed solve succeeds");

        let cluster = spawn(&g, &config);
        // Crash a worker so the *primary* sweep records a restart: a merge
        // that drops a field (the original bug dropped worker_restarts)
        // fails this test.
        cluster.fail_worker(1);
        let warm = RejectoConfig {
            initial_placement: InitialPlacement::RejectionRatio(0.0),
            ..RejectoConfig::default()
        };
        let obs = rejecto_obs::Obs::new();
        let ctx = RunContext::armed(&warm, Some(obs.clone()));
        let mut source = ShardSource::new(&cluster, &config);
        let out = MaarSolver::new(warm.clone())
            .solve_with(&mut source, &[], &[], &ctx)
            .expect("distributed solve succeeds");
        let io = source.io();
        assert!(suspects(&out).is_empty(), "a rejection-free graph has no cut");
        assert_eq!(obs.span_count("detect/round/sweep"), 2, "the fallback must run");
        assert!(
            io.worker_restarts >= 1,
            "the restart from the primary sweep must not be dropped by the merge"
        );
        // The fallback is exactly the all-legit solve bar its one degree
        // read; every k of the primary adds at least its cut-count job.
        let primary_k_runs = u64::try_from(warm.k_sweep().len()).expect("a short sweep");
        assert!(
            io.init_jobs >= single.init_jobs + primary_k_runs,
            "the primary sweep's init jobs were dropped: {} vs {}",
            io.init_jobs,
            single.init_jobs
        );
    }

    #[test]
    fn degenerate_warm_start_pays_for_one_sweep() {
        // On the clique no node reaches the default warm-start threshold,
        // so the warm start is the all-legit start and the fallback would
        // replay the primary sweep: the solve costs one sweep's traffic.
        let g = clique();
        let config = ClusterConfig::default();
        let all_legit = RejectoConfig {
            initial_placement: InitialPlacement::AllLegit,
            ..RejectoConfig::default()
        };
        let (_, single) =
            solve_on(&spawn(&g, &config), &config, all_legit).expect("distributed solve succeeds");
        let (out, io) = solve_on(&spawn(&g, &config), &config, RejectoConfig::default())
            .expect("distributed solve succeeds");
        assert!(suspects(&out).is_empty(), "a rejection-free graph has no cut");
        assert_eq!(io.init_jobs, single.init_jobs);
    }

    /// A config whose watchdog and backoff are tuned for fast tests.
    fn snappy() -> ClusterConfig {
        ClusterConfig {
            request_deadline: Duration::from_millis(50),
            backoff_base: Duration::ZERO,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn killed_worker_is_respawned_transparently() {
        let g = sim_graph();
        let cluster = spawn(&g, &ClusterConfig::default());
        let mut io = IoStats::default();
        let before = cluster.stats(&mut io).expect("healthy cluster serves stats");
        cluster.fail_worker(2);
        let after = cluster.stats(&mut io).expect("crash is recovered");
        assert_eq!(before, after, "stats must survive a worker crash");
        assert_eq!(io.worker_restarts, 1);
    }

    #[test]
    fn fetch_recovers_from_mid_run_failure() {
        let g = sim_graph();
        let cluster = spawn(&g, &ClusterConfig::default());
        let mut io = IoStats::default();
        cluster.fail_worker(0);
        cluster.fail_worker(3);
        let fetched = cluster.fetch(&[0, 170, 339], &mut io).expect("crashes are recovered");
        assert_eq!(fetched.len(), 3);
        for (id, data) in fetched {
            let expect: Vec<u32> = g.friends(NodeId(id)).iter().map(|v| v.0).collect();
            assert_eq!(data.friends, expect, "node {id} after recovery");
        }
        assert!(io.worker_restarts >= 1);
    }

    #[test]
    fn solve_result_is_identical_after_worker_crash() {
        let g = sim_graph();
        let config = RejectoConfig::default();
        let local =
            MaarSolver::new(config.clone()).solve(&g, &[], &[]).expect("scenario admits a cut");

        let cluster_config = ClusterConfig::default();
        let cluster = spawn(&g, &cluster_config);
        // Crash two workers before the solve even starts.
        cluster.fail_worker(1);
        cluster.fail_worker(2);
        let (out, io) = solve_on(&cluster, &cluster_config, config).expect("crashes are recovered");
        assert_eq!(suspects(&out), local.suspects(), "crash changed the cut");
        assert!(io.worker_restarts >= 2);
    }

    #[test]
    fn repeated_failures_of_same_worker_are_survivable() {
        let g = sim_graph();
        let cluster = spawn(&g, &ClusterConfig::default());
        let mut io = IoStats::default();
        for _ in 0..3 {
            cluster.fail_worker(1);
            let s = cluster.stats(&mut io).expect("each crash is recovered");
            assert_eq!(s.len(), g.num_nodes());
        }
        assert_eq!(io.worker_restarts, 3);
    }

    /// [`solve_on`] on a fresh `config` cluster, with `faults` armed.
    fn solve_faulted(
        config: &ClusterConfig,
        faults: &str,
    ) -> Result<(SweepOutcome, IoStats), ClusterError> {
        let rejecto = RejectoConfig {
            faults: FaultPlan::parse(faults).expect("plan is well-formed"),
            ..RejectoConfig::default()
        };
        solve_on(&spawn(&sim_graph(), config), config, rejecto)
    }

    #[test]
    fn injected_death_schedule_is_invisible_to_the_result() {
        let (clean, _) = solve_faulted(&snappy(), "").expect("clean solve succeeds");
        let (faulted, io) = solve_faulted(&snappy(), "worker_death@fetch=1,worker_death@fetch=4")
            .expect("deaths are recovered");
        assert_eq!(suspects(&faulted), suspects(&clean), "injected deaths changed the cut");
        assert_eq!(faulted.cut.map(|c| c.acceptance_rate), clean.cut.map(|c| c.acceptance_rate));
        assert!(io.worker_restarts >= 2, "both scheduled deaths must fire");
        assert!(!faulted.interrupted);
    }

    #[test]
    fn repeated_death_schedule_forces_a_rebalance() {
        let (clean, _) = solve_faulted(&snappy(), "").expect("clean solve succeeds");
        // One respawn allowed per request; five consecutive deaths burn
        // through two whole budgets (2 × (1 try + 1 respawn)) and one more
        // try, forcing two rebalances before the request finally lands.
        let cluster_config = ClusterConfig { max_respawns: 1, ..snappy() };
        let (faulted, io) = solve_faulted(&cluster_config, "worker_death@fetch=2:x5")
            .expect("persistent deaths degrade to rebalancing, not failure");
        assert_eq!(suspects(&faulted), suspects(&clean), "rebalancing changed the cut");
        assert_eq!(faulted.cut.map(|c| c.acceptance_rate), clean.cut.map(|c| c.acceptance_rate));
        assert_eq!(io.shards_rebalanced, 2, "five deaths at budget 1 = two merges");
        assert!(io.worker_restarts >= 2);
    }

    #[test]
    fn hung_worker_is_detected_by_the_watchdog() {
        let (clean, _) = solve_faulted(&snappy(), "").expect("clean solve succeeds");
        let (faulted, io) =
            solve_faulted(&snappy(), "worker_hang@k=2").expect("the hang is recovered");
        assert_eq!(suspects(&faulted), suspects(&clean), "the hang changed the cut");
        assert_eq!(faulted.cut.map(|c| c.acceptance_rate), clean.cut.map(|c| c.acceptance_rate));
        assert!(io.worker_restarts >= 1, "the watchdog must respawn the hung worker");
    }

    /// Regression test: the hang path of `exchange` used to wait out the
    /// watchdog twice in one attempt (a full interval draining the stale
    /// pending response, then another full interval on the swallowed
    /// request), so a single hang could block the master for 2×
    /// `request_deadline`. Both waits must draw from one per-attempt
    /// budget: recovery from one hang may not block much longer than the
    /// deadline itself.
    #[test]
    fn hang_recovery_blocks_at_most_one_request_deadline() {
        let g = sim_graph();
        let config = ClusterConfig {
            request_deadline: Duration::from_millis(200),
            backoff_base: Duration::ZERO,
            ..ClusterConfig::default()
        };
        let cluster = spawn(&g, &config);
        // The mid-broadcast shape: the request is already in flight
        // (pending) when the injected hang swallows its response.
        cluster.workers.borrow_mut()[0].pending = true;
        cluster.arm_hang(1);
        let mut io = IoStats::default();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test bounds the watchdog's recovery time"
        )]
        let start = Instant::now();
        let resp = cluster
            .exchange(0, &|| Request::Stats, &mut io)
            .expect("one hang is recovered by respawn");
        let elapsed = start.elapsed();
        assert!(matches!(resp, Response::Stats { .. }), "recovered request must be served");
        assert!(io.worker_restarts >= 1, "the watchdog must respawn the hung worker");
        assert!(
            elapsed < Duration::from_millis(320),
            "recovering one hang blocked {elapsed:?}; the waits must share the \
             200ms per-attempt deadline instead of stacking it"
        );
    }

    #[test]
    fn losing_every_worker_is_a_structured_error() {
        let cluster_config = ClusterConfig { num_workers: 2, max_respawns: 0, ..snappy() };
        // Enough deaths to chew through both workers at respawn budget 0.
        let err = solve_faulted(&cluster_config, "worker_death@fetch=1:x8")
            .expect_err("no survivor must be a structured failure");
        match RuntimeError::from(err) {
            RuntimeError::ClusterFailed { message } => {
                assert!(message.contains("no survivor"), "unexpected message: {message}");
            }
            other => panic!("expected ClusterFailed, got {other:?}"),
        }
    }

    /// One MAAR solve on a fresh default cluster under `budget`, with its
    /// traffic and what interrupted it.
    fn solve_under(budget: RunBudget) -> (SweepOutcome, IoStats, InterruptReason) {
        let rejecto = RejectoConfig { budget, ..RejectoConfig::default() };
        let config = ClusterConfig::default();
        let cluster = spawn(&sim_graph(), &config);
        let ctx = RunContext::armed(&rejecto, None);
        let mut source = ShardSource::new(&cluster, &config);
        let out = MaarSolver::new(rejecto)
            .solve_with(&mut source, &[], &[], &ctx)
            .expect("a tripped budget degrades, not fails");
        (out, source.io(), ctx.interrupt_reason())
    }

    /// Distributed detection on [`sim_graph`] under `budget`: the run
    /// that turns an interrupted first sweep into a `Partial` report.
    fn detect_under(budget: RunBudget) -> rejecto_core::DetectionReport {
        let config = RejectoConfig { budget, ..RejectoConfig::default() };
        DistributedDetector::new(ClusterConfig::default(), config)
            .detect(&sim_graph(), &Seeds::default(), Termination::AcceptanceThreshold(1.0))
            .expect("a tripped budget degrades, not fails")
    }

    #[test]
    fn zero_deadline_yields_a_partial_outcome_with_rollback() {
        let budget = RunBudget { deadline: Some(Duration::ZERO), ..RunBudget::unlimited() };
        let (out, io, reason) = solve_under(budget);
        assert!(out.interrupted);
        assert!(suspects(&out).is_empty(), "an interrupted sweep reports no cut");
        assert!(out.completed_k_indices.is_empty(), "nothing completed under a zero deadline");
        assert_eq!(reason, InterruptReason::Deadline);
        // The sweep reads the degree stats (one broadcast), then the
        // expired deadline skips every k before it reaches the workers.
        assert_eq!((io.init_jobs, io.fetch_batches), (1, 0), "a cancelled k reached the cluster");

        let report = detect_under(budget);
        assert!(report.suspects().is_empty(), "the interrupted round is rolled back");
        match report.completion {
            Completion::Partial { completed_rounds, completed_k_indices, reason } => {
                assert_eq!(completed_rounds, 0);
                assert!(completed_k_indices.is_empty(), "nothing completed under a zero deadline");
                assert_eq!(reason, InterruptReason::Deadline);
            }
            other => panic!("expected Partial, got {other:?}"),
        }
    }

    #[test]
    fn pass_budget_interrupts_the_sweep_midway() {
        let sweep_len = RejectoConfig::default().k_sweep().len();
        let budget = RunBudget { max_kl_passes: Some(3), ..RunBudget::unlimited() };
        let (out, _, reason) = solve_under(budget);
        assert!(out.interrupted);
        assert!(suspects(&out).is_empty(), "an interrupted sweep reports no cut");
        assert_eq!(reason, InterruptReason::PassBudget);
        assert!(
            out.completed_k_indices.len() < sweep_len,
            "three global passes cannot complete a {sweep_len}-k sweep"
        );

        let report = detect_under(budget);
        assert!(report.suspects().is_empty(), "the interrupted round is rolled back");
        match report.completion {
            Completion::Partial { completed_k_indices, reason, .. } => {
                assert_eq!(reason, InterruptReason::PassBudget);
                assert!(completed_k_indices.len() < sweep_len);
            }
            other => panic!("expected Partial, got {other:?}"),
        }
    }
}
