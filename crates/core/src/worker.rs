//! The work-item loop of Algorithm 1, run by every worker of an
//! [`Engine`](crate::Engine).
//!
//! Each worker owns a private hardware replica and a deque of `(state,
//! snapshot)` work items. A quantum is the whole of Algorithm 1 for one
//! item: select it (the [`Searcher`] picks from the worker's deque),
//! context-switch the replica to it, serve interrupts and step, then
//! publish the successors to the same deque with fresh private snapshots
//! (`UpdateState` for a continuation, one capture shared by every fork
//! child). Worker 0 runs on the caller's thread; the others are scoped
//! threads sharing the lock-sharded [`SnapshotStore`] and one [`Queue`]
//! of budget and termination bookkeeping.
//!
//! The context switch is the only step the three consistency modes
//! disagree on: HardSnap restores the item's snapshot (power-on reset
//! for a root), the reboot baseline resets the device and replays the
//! item's forwarded-I/O log with its timing, and the shared-hardware
//! baseline does nothing. With one worker the switch is skipped when
//! the picked item is the state the replica just saved, and a
//! continuation the searcher would pick next anyway keeps running in the
//! same attempt — the context is still live either way.
//!
//! ## Where states live
//!
//! HardSnap context-switches only the hardware between quanta; the
//! software state stays in the symbolic VM that runs it. The items a
//! worker publishes stay in its own deque, live in its executor's term
//! pool, and the shared [`Queue`] holds only the items being handed off.
//! A state is flattened into a [`PortableState`] only where it leaves
//! its pool:
//!
//! - a hand-off: when another worker waits with an empty deque and this
//!   one holds at least two items, it flattens its oldest, the root of
//!   its largest unexplored subtree (as Cloud9's workers ship work only
//!   to an idle one);
//! - a completed path, or what a stop left in the deque, of any worker
//!   but worker 0, whose pool is `Engine::executor`'s and outlives the
//!   run;
//! - `Engine::take_frontier`, for a checkpoint.
//!
//! Every frontier item (the root, a resumed state, what a stop left)
//! starts in worker 0's deque, so at one worker nothing is handed off
//! and every state stays live. Skipping the flatten is exact (see
//! [`ItemState`]).
//!
//! ## Determinism by merge order
//!
//! Scheduling is racy past one worker (which worker runs an item
//! follows the timing of hand-offs), but a
//! HardSnap quantum starts by restoring the item's private hardware
//! image, so each state's execution is a pure function of `(state, its
//! snapshot)`. When exploration runs to completion the *set* of bugs,
//! completed paths and covered PCs is schedule-independent; the engine
//! merges them ordered by state id (ids derive from the fork tree — see
//! `SymState::next_fork_id`), so a seed yields the same
//! [`RunResult::canonical_digest`](crate::RunResult::canonical_digest)
//! at any worker count. Budget truncation (`max_instructions`,
//! `max_paths`, `max_states`) is the one schedule-dependent edge past
//! one worker.
//!
//! ## Recovery
//!
//! A quantum runs as an *attempt* that publishes nothing until its last
//! fallible target operation has succeeded. An attempt that dies to a
//! transport fault is replayed on the reset replica; a replica past its
//! fault budget is quarantined and rebuilt (or replaced by the failover
//! spare) and the item re-queued. After `max_item_attempts` failures the
//! state is killed and named in the fault log.

use crate::engine::{
    budget_stop, trace_io, ConsistencyMode, EngineConfig, EngineMetrics, HwAssertion, IoOp,
    Searcher, StopReason, CYCLES_PER_INSTRUCTION,
};
use crate::snapshots::{Base, SnapId, SnapshotStore};
use crate::supervise::{FaultSummary, Supervisor};
use hardsnap_bus::{
    BusError, HwSnapshot, HwTarget, SnapshotCapture, SnapshotDelta, TargetError, REBOOT_COST_NS,
};
use hardsnap_symex::{
    BugReport, Executor, PortableState, SolverStats, StateId, StepOutcome, SymMmio, SymState,
    TermPool,
};
use hardsnap_telemetry::{Counter, Metric, MetricsSnapshot, Recorder};
use hardsnap_util::sync::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Weak};

/// A schedulable unit: one symbolic state (see [`ItemState`]) plus its
/// private hardware snapshot (`None` = power-on hardware).
///
/// A work item is re-runnable: a quantum is a pure function of the item
/// and publishes nothing until its last fallible target operation has
/// succeeded, so an attempt that dies to a transport fault can simply be
/// replayed and produces bit-identical successors (fork ids derive from
/// the state's own fork nonce, never from executor instance or timing).
/// An attempt steps a copy of a live state, so the item it replays from
/// is untouched.
pub(crate) struct WorkItem {
    pub(crate) state: ItemState,
    pub(crate) snap: Option<SnapId>,
    /// Failed attempts carried across quarantine re-queues, so
    /// `max_item_attempts` bounds an item's *total* failures no matter
    /// how many fresh replicas pick it up.
    strikes: u32,
    /// Reboot baseline only: what a reboot replays to rebuild the
    /// state's hardware.
    history: History,
}

impl WorkItem {
    pub(crate) fn new(state: ItemState, snap: Option<SnapId>) -> WorkItem {
        WorkItem {
            state,
            snap,
            strikes: 0,
            history: History::default(),
        }
    }

    /// The item with its state flattened out of `pool`, for a worker
    /// whose pool is another.
    fn detached(mut self, pool: &TermPool) -> WorkItem {
        self.state = ItemState::Portable(self.state.into_portable(pool));
        self
    }
}

/// A work item's or completed path's symbolic state: live in the term
/// pool of the worker that published it, or flattened where it leaves
/// that pool (see the module docs). Skipping the flatten is exact:
/// importing a state into the pool it was exported from maps every term
/// to itself (the smart constructors' fixed point) and interns nothing,
/// so every `TermId`, answer-cache key and digest is what a round trip
/// gives.
pub(crate) enum ItemState {
    /// Interned in the pool whose [`TermPool::id`] it carries, and read
    /// only through that pool: another pool's `TermId`s name other terms.
    Live(SymState, u64),
    /// Detached from any pool; any executor may import it.
    Portable(PortableState),
}

impl ItemState {
    /// `state`, live in `pool`.
    pub(crate) fn live(state: SymState, pool: &TermPool) -> ItemState {
        ItemState::Live(state, pool.id())
    }

    pub(crate) fn id(&self) -> StateId {
        match self {
            ItemState::Live(s, _) => s.id,
            ItemState::Portable(p) => p.id,
        }
    }

    /// The state interned in `pool`.
    ///
    /// # Panics
    ///
    /// If the state is live in another pool.
    pub(crate) fn into_live(self, pool: &mut TermPool) -> SymState {
        match self {
            ItemState::Live(s, owner) => {
                check_pool(s.id, owner, pool);
                s
            }
            ItemState::Portable(p) => p.import(pool),
        }
    }

    /// A copy of the state, interned in `pool`; the item is untouched.
    ///
    /// # Panics
    ///
    /// If the state is live in another pool.
    fn copy_into(&self, pool: &mut TermPool) -> SymState {
        match self {
            ItemState::Live(s, owner) => {
                check_pool(s.id, *owner, pool);
                s.clone()
            }
            ItemState::Portable(p) => p.import(pool),
        }
    }

    /// The state detached from `pool`.
    ///
    /// # Panics
    ///
    /// If the state is live in another pool.
    pub(crate) fn into_portable(self, pool: &TermPool) -> PortableState {
        match self {
            ItemState::Live(s, owner) => {
                check_pool(s.id, owner, pool);
                PortableState::export(pool, &s)
            }
            ItemState::Portable(p) => p,
        }
    }
}

/// Refuses to read a state live in pool `owner` through another pool.
fn check_pool(state: StateId, owner: u64, pool: &TermPool) {
    assert!(
        owner == pool.id(),
        "state {state:?} is live in term pool {owner}, not in pool {}",
        pool.id()
    );
}

/// A state's forwarded-I/O log and device age (cycles of hardware time
/// the state has experienced), replayed by the reboot baseline.
#[derive(Clone, Default)]
struct History {
    log: Vec<IoOp>,
    age: u64,
}

/// The run's budget, termination and stop bookkeeping plus the items
/// being handed off, guarded by one mutex. Every other queued item sits
/// in the deque of the worker that holds it (see the module docs).
pub(crate) struct Queue {
    /// Items flattened by their holder for a waiting worker, oldest
    /// first.
    pub(crate) handoff: VecDeque<WorkItem>,
    /// xorshift64* state of [`Searcher::Random`].
    pub(crate) rng: u64,
    /// Items queued in any worker's deque or in `handoff`.
    queued: usize,
    /// Items being processed (termination detection).
    inflight: usize,
    /// Workers blocked in [`next_item`] with an empty deque.
    waiting: usize,
    stopped: bool,
    dropped: u64,
    /// First budget to trip, in the canonical priority order; `None`
    /// while running or when the queue drained.
    why: Option<StopReason>,
}

impl Queue {
    /// A queue for a run whose `queued` frontier items start in worker
    /// 0's deque.
    pub(crate) fn new(queued: usize, rng: u64, exhausted: Option<StopReason>) -> Queue {
        Queue {
            handoff: VecDeque::new(),
            rng,
            queued,
            inflight: 0,
            waiting: 0,
            stopped: exhausted.is_some(),
            dropped: 0,
            why: exhausted,
        }
    }

    /// `SelectNextState` (paper line 4), over a worker's own deque.
    fn select(&mut self, own: &mut VecDeque<WorkItem>, searcher: Searcher) -> Option<WorkItem> {
        match searcher {
            Searcher::Dfs => own.pop_back(),
            Searcher::Bfs | Searcher::RoundRobin => own.pop_front(),
            Searcher::Random(_) => {
                if own.is_empty() {
                    return None;
                }
                let i = self.draw(own.len());
                own.swap_remove_back(i)
            }
        }
    }

    /// Whether [`Queue::select`] is sure to pick a continuation pushed
    /// to `own` now, the newest item: under `Dfs` always, under the
    /// others only from an otherwise empty deque. `Random` then spends
    /// the draw that `select` would, so skipping the push and select
    /// leaves its pick sequence unchanged.
    fn selects_newest(&mut self, own: &VecDeque<WorkItem>, searcher: Searcher) -> bool {
        match searcher {
            Searcher::Dfs => true,
            _ if !own.is_empty() => false,
            Searcher::Random(_) => {
                self.draw(1);
                true
            }
            Searcher::Bfs | Searcher::RoundRobin => true,
        }
    }

    /// The next xorshift64* draw, as an index below `n`.
    fn draw(&mut self, n: usize) -> usize {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng % n as u64) as usize
    }

    /// Why the run stopped, and how many successors the fork-bomb guard
    /// dropped.
    pub(crate) fn outcome(&self) -> (StopReason, u64) {
        let why = match (self.stopped, self.why) {
            (true, Some(why)) => why,
            (true, None) => StopReason::Instructions,
            (false, _) => StopReason::Complete,
        };
        (why, self.dropped)
    }
}

/// Everything the workers of one run share.
pub(crate) struct Shared<'a> {
    pub(crate) q: Mutex<Queue>,
    cv: Condvar,
    pub(crate) store: SnapshotStore,
    pub(crate) config: &'a EngineConfig,
    assertions: &'a [HwAssertion],
    /// With one worker the replica's live context is the continuation it
    /// just saved, so picking that continuation skips the context
    /// switch. Past one worker, which worker runs an item follows the
    /// timing of hand-offs: skipping the switch there would make modeled
    /// time schedule-dependent, so every quantum restores.
    one_worker: bool,
    /// [`TermPool::id`] of `Engine::executor`'s pool, worker 0's: the one
    /// pool that outlives the run, so states leave only it live.
    engine_pool: u64,
    pub(crate) executed: AtomicU64,
    paths: AtomicU64,
    /// Hardware virtual time consumed across all workers (per-attempt
    /// deltas, including retry backoff and reboot penalties), for the
    /// `max_vtime_ns` budget.
    pub(crate) vtime: AtomicU64,
    quanta: AtomicU64,
    /// Spare target taken by the first worker whose replica cannot
    /// rebuild itself (`fork_clean` unsupported) after a quarantine.
    pub(crate) failover: Mutex<Option<Box<dyn HwTarget>>>,
}

/// Results carried in from a saved campaign: the budget counters a run
/// starts from, and findings folded into its result.
#[derive(Default)]
pub(crate) struct Carry {
    pub(crate) bugs: Vec<BugReport>,
    pub(crate) completed: Vec<PortableState>,
    pub(crate) instructions: u64,
    pub(crate) paths: u64,
    pub(crate) vtime_ns: u64,
    pub(crate) quanta: u64,
}

impl<'a> Shared<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        q: Queue,
        store: SnapshotStore,
        config: &'a EngineConfig,
        assertions: &'a [HwAssertion],
        workers: usize,
        engine_pool: u64,
        start: &Carry,
        failover: Option<Box<dyn HwTarget>>,
    ) -> Shared<'a> {
        Shared {
            q: Mutex::new(q),
            cv: Condvar::new(),
            store,
            config,
            assertions,
            one_worker: workers == 1,
            engine_pool,
            executed: AtomicU64::new(start.instructions),
            paths: AtomicU64::new(start.paths),
            vtime: AtomicU64::new(start.vtime_ns),
            quanta: AtomicU64::new(start.quanta),
            failover: Mutex::new(failover),
        }
    }
}

/// One worker's replica and the per-replica machinery that outlives a
/// run: retry supervision, its telemetry track, its delta anchor.
pub(crate) struct Worker {
    pub(crate) target: Box<dyn HwTarget>,
    pub(crate) sup: Supervisor,
    pub(crate) rec: Recorder,
    /// The store's handle on the replica's live delta base, so native
    /// deltas install in O(delta); dead once every entry holding it is
    /// gone. Only the storage representation depends on it, never
    /// snapshot content.
    anchor: Weak<Base>,
    /// The state whose context is live on the replica and saved in its
    /// item (`None` after a reset, a failure or a path end).
    pub(crate) live: Option<StateId>,
    /// Modeled reboot penalties charged by the reboot baseline.
    reboot_ns: u64,
}

impl Worker {
    pub(crate) fn new(widx: usize, target: Box<dyn HwTarget>, config: &EngineConfig) -> Worker {
        let rec = Recorder::from_config(&config.telemetry, widx as u32, format!("worker-{widx}"));
        let mut sup = Supervisor::new(config.retry);
        sup.recorder = rec.clone();
        let mut w = Worker {
            target,
            sup,
            rec,
            anchor: Weak::new(),
            live: None,
            reboot_ns: 0,
        };
        w.target.attach_recorder(&w.rec);
        w.target.set_delta_snapshots(config.delta_snapshots);
        w
    }

    /// Swaps in a replacement replica (quarantine rebuild, failover,
    /// target switch). Returns the old one.
    pub(crate) fn install(
        &mut self,
        mut target: Box<dyn HwTarget>,
        config: &EngineConfig,
    ) -> Box<dyn HwTarget> {
        target.attach_recorder(&self.rec);
        target.set_delta_snapshots(config.delta_snapshots);
        // The replacement has no live base; its first capture re-anchors.
        self.anchor = Weak::new();
        std::mem::replace(&mut self.target, target)
    }

    fn vtime(&self) -> u64 {
        self.target.virtual_time_ns() + self.sup.extra_vtime_ns + self.reboot_ns
    }
}

/// One worker's results of one run, merged by state id after join.
#[derive(Default)]
pub(crate) struct WorkerOutput {
    pub(crate) bugs: Vec<BugReport>,
    /// Live only from worker 0 (see the module docs).
    pub(crate) completed: Vec<ItemState>,
    /// What a stop left in the worker's deque, for the engine's
    /// frontier; live only from worker 0.
    pub(crate) left: VecDeque<WorkItem>,
    pub(crate) covered: HashSet<u32>,
    pub(crate) metrics: EngineMetrics,
    pub(crate) vtime_ns: u64,
    pub(crate) faults: FaultSummary,
    /// Unrecoverable-fault records, each naming the state it killed.
    pub(crate) fatal: Vec<String>,
    /// Hardware-assertion violations: (assertion name, state id).
    pub(crate) violations: Vec<(String, StateId)>,
    pub(crate) telemetry: Option<MetricsSnapshot>,
    /// Solver statistics of a spawned worker's own executor (worker 0's
    /// accumulate in `Engine::executor` directly).
    pub(crate) solver: SolverStats,
}

/// Results an attempt produces before its success is known; an aborted
/// attempt discards them so the replay cannot double-report.
#[derive(Default)]
struct Attempt {
    bugs: Vec<BugReport>,
    completed: Vec<ItemState>,
    executed: u64,
    /// `executed` when the attempt's current quantum began.
    quantum_start: u64,
    /// The worker's virtual time when the attempt began.
    vt0: u64,
}

/// MMIO proxy over a worker's replica.
///
/// Transient bus failures are retried by the supervisor; one that still
/// exhausts its retries raises `abort`, so the quantum is torn down and
/// replayed rather than letting a link fault masquerade as a firmware
/// bus bug. Deterministic `SlaveError`s pass through to the executor.
/// The reboot baseline also logs every forwarded operation with its
/// device-age stamp.
struct Mmio<'a> {
    target: &'a mut dyn HwTarget,
    sup: &'a mut Supervisor,
    abort: Option<BusError>,
    log: Option<&'a mut Vec<IoOp>>,
    /// The state's device age and the target's cycle counter at window
    /// start.
    age_base: u64,
    cycle_base: u64,
}

impl Mmio<'_> {
    fn age(&self) -> u64 {
        self.age_base + (self.target.cycle() - self.cycle_base)
    }

    fn failed(&mut self, e: BusError) -> BusError {
        if matches!(e, BusError::Timeout { .. } | BusError::NotReady) {
            self.abort = Some(e.clone());
        }
        e
    }

    fn forwarded(&mut self, op: IoOp) {
        trace_op(&op);
        if let Some(log) = &mut self.log {
            log.push(op);
        }
    }
}

impl SymMmio for Mmio<'_> {
    fn mmio_read(&mut self, _state: &SymState, addr: u32) -> Result<u32, BusError> {
        let at_age = self.age();
        let value = match self.sup.bus_read(self.target, addr) {
            Ok(v) => v,
            Err(e) => return Err(self.failed(e)),
        };
        self.forwarded(IoOp {
            is_write: false,
            addr,
            value,
            at_age,
        });
        Ok(value)
    }

    fn mmio_write(&mut self, _state: &SymState, addr: u32, data: u32) -> Result<(), BusError> {
        let at_age = self.age();
        if let Err(e) = self.sup.bus_write(self.target, addr, data) {
            return Err(self.failed(e));
        }
        self.forwarded(IoOp {
            is_write: true,
            addr,
            value: data,
            at_age,
        });
        Ok(())
    }
}

/// The one I/O trace line, for forwarded and replayed operations alike.
fn trace_op(op: &IoOp) {
    if trace_io() {
        let (dir, arrow) = if op.is_write {
            ("W", "<-")
        } else {
            ("R", "->")
        };
        eprintln!(
            "io {dir} {:#010x} {arrow} {:#010x} @age {}",
            op.addr, op.value, op.at_age
        );
    }
}

/// Raises the stop flag (recording why) when a budget has tripped.
/// Called at every quantum boundary, so cancellation and deadlines are
/// honoured within one quantum per worker.
fn check_budgets(shared: &Shared, g: &mut Queue) {
    if g.stopped {
        return;
    }
    if let Some(why) = budget_stop(
        shared.config,
        shared.executed.load(Ordering::Relaxed),
        shared.paths.load(Ordering::Relaxed),
        shared.vtime.load(Ordering::Relaxed),
        shared.quanta.load(Ordering::Relaxed),
    ) {
        g.stopped = true;
        g.why = Some(why);
    }
}

/// Blocks until a work item is available: the searcher's pick from
/// `own`, else one another worker handed off. `None` on termination
/// (nothing queued anywhere and nothing in flight, or stop flag).
/// Budgets are checked before selecting, so an item picked at the
/// boundary stays queued for the campaign checkpoint instead of being
/// dropped.
fn next_item(shared: &Shared, own: &mut VecDeque<WorkItem>) -> Option<WorkItem> {
    let mut g = shared.q.lock();
    loop {
        check_budgets(shared, &mut g);
        if g.stopped || g.queued + g.inflight == 0 {
            if g.waiting > 0 {
                shared.cv.notify_all();
            }
            return None;
        }
        let picked = g.select(own, shared.config.searcher);
        if let Some(it) = picked.or_else(|| g.handoff.pop_front()) {
            g.queued -= 1;
            g.inflight += 1;
            return Some(it);
        }
        // The queued items are in other workers' deques: wait for a
        // hand-off or the end of the run.
        g.waiting += 1;
        g = shared
            .cv
            .wait(g)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        g.waiting -= 1;
    }
}

/// Publishes `successors` to `own` and retires the in-flight slot,
/// dropping successors beyond the fork-bomb guard. While another worker
/// waits and `own` holds at least two items, hands the oldest off,
/// flattened out of `pool`. Wakes waiting workers only for a hand-off,
/// a stop or the end of the run.
fn finish_item(
    shared: &Shared,
    w: &Worker,
    pool: &TermPool,
    own: &mut VecDeque<WorkItem>,
    successors: Vec<WorkItem>,
) {
    let mut g = shared.q.lock();
    g.inflight -= 1;
    for s in successors {
        if g.queued + g.inflight >= shared.config.max_states {
            g.dropped += 1;
            if let Some(sid) = s.snap {
                shared.store.remove(sid);
            }
            continue;
        }
        own.push_back(s);
        g.queued += 1;
    }
    check_budgets(shared, &mut g);
    if g.waiting == 0 {
        return;
    }
    let mut wake = g.stopped || g.queued + g.inflight == 0;
    while !g.stopped && g.waiting > g.handoff.len() && own.len() >= 2 {
        let oldest = own.pop_front().expect("two items held");
        g.handoff.push_back(oldest.detached(pool));
        w.rec.count(Counter::StatesHandedOff);
        wake = true;
    }
    drop(g);
    if wake {
        shared.cv.notify_all();
    }
}

/// Runs one worker, starting from the items in `own`, until the run
/// drains or a budget stops it.
///
/// Each item runs as an attempt (see [`run_quantum`]). A failed attempt
/// un-counts its instructions and is replayed on the reset replica; a
/// replica past `replica_fault_budget` is quarantined: rebuilt with
/// [`HwTarget::fork_clean`] (or swapped for the failover spare) and the
/// item re-queued in the worker's deque, from where it may be handed
/// off. After `max_item_attempts` failures in total the state is killed
/// and named in the fault log.
pub(crate) fn run_worker(
    shared: &Shared,
    w: &mut Worker,
    ex: &mut Executor,
    mut own: VecDeque<WorkItem>,
) -> WorkerOutput {
    let _stop = StopOnUnwind(shared);
    let config = shared.config;
    let mut out = WorkerOutput::default();
    let (retried, recovered) = (w.sup.retried, w.sup.recovered);
    // Terminal quantum failures since this replica was (re)built.
    let mut health_faults: u32 = 0;
    'items: while let Some(mut item) = next_item(shared, &mut own) {
        let mut attempts: u32 = item.strikes;
        loop {
            attempts += 1;
            // Aborted attempts consumed real device time, so their cost
            // stays charged (unlike their instructions, which the replay
            // re-counts).
            let mut scratch = Attempt {
                vt0: w.vtime(),
                ..Attempt::default()
            };
            let outcome = run_quantum(shared, w, ex, &own, &item, &mut scratch, &mut out);
            let spent = w.vtime().saturating_sub(scratch.vt0);
            shared.vtime.fetch_add(spent, Ordering::Relaxed);
            out.vtime_ns += spent;
            match outcome {
                Ok(successors) => {
                    w.rec.observe(
                        Metric::QuantumInstructions,
                        scratch.executed - scratch.quantum_start,
                    );
                    out.bugs.append(&mut scratch.bugs);
                    out.completed.append(&mut scratch.completed);
                    if shared.one_worker {
                        w.live = successors
                            .iter()
                            .map(|s| s.state.id())
                            .find(|&id| id == item.state.id());
                    }
                    finish_item(shared, w, &ex.pool, &mut own, successors);
                    continue 'items;
                }
                Err(e) => {
                    shared
                        .executed
                        .fetch_sub(scratch.executed, Ordering::Relaxed);
                    health_faults += 1;
                    if attempts >= config.retry.max_item_attempts {
                        out.fatal.push(format!(
                            "state {:?} killed after {attempts} attempts: {e}",
                            item.state.id()
                        ));
                        out.metrics.states_dropped += 1;
                        if let Some(sid) = item.snap {
                            shared.store.remove(sid);
                        }
                        finish_item(shared, w, &ex.pool, &mut own, Vec::new());
                        continue 'items;
                    }
                    if health_faults > config.retry.replica_fault_budget {
                        // Quarantine. Re-queuing cannot trip the
                        // fork-bomb guard: finish_item frees this item's
                        // in-flight slot before re-adding it.
                        out.faults.quarantined += 1;
                        w.rec.count(Counter::Quarantines);
                        w.rec.instant("fault", "quarantine", u64::from(attempts));
                        let fresh = match w.target.fork_clean() {
                            Ok(t) => Some(t),
                            Err(_) => shared.failover.lock().take(),
                        };
                        match fresh {
                            Some(t) => {
                                let old = w.install(t, config);
                                out.faults.injected +=
                                    old.fault_stats().map_or(0, |s| s.injected());
                            }
                            // No way to rebuild: keep the device, reset.
                            None => w.target.reset(),
                        }
                        health_faults = 0;
                        item.strikes = attempts;
                        finish_item(shared, w, &ex.pool, &mut own, vec![item]);
                        continue 'items;
                    }
                    w.target.reset();
                }
            }
        }
    }
    out.faults.retried = w.sup.retried - retried;
    out.faults.recovered = w.sup.recovered - recovered;
    out.faults.injected += w.target.fault_stats().map_or(0, |s| s.injected());
    out.telemetry = w.rec.snapshot();
    out.left = if ex.pool.id() == shared.engine_pool {
        own
    } else {
        own.into_iter().map(|it| it.detached(&ex.pool)).collect()
    };
    out
}

/// Raises the stop flag if its worker unwinds. The worker's in-flight
/// item and its deque stay counted, so without a stop the other workers
/// would wait for them forever, and the panic would never reach the
/// caller.
struct StopOnUnwind<'s, 'a>(&'s Shared<'a>);

impl Drop for StopOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.q.lock().stopped = true;
            self.0.cv.notify_all();
        }
    }
}

/// Runs one work item for up to one quantum: context switch, then
/// serve interrupts and step until the quantum ends, the state forks,
/// halts or hits a bug. Returns the work items to publish. With one
/// worker, a continuation the searcher would pick next anyway runs on in
/// the same attempt (see [`runs_on`]).
///
/// **Abort safety:** every path mutates the shared store only after its
/// last fallible target operation and buffers findings in `scratch`, so
/// an `Err` leaves the store as the attempt found it and the replay
/// reproduces the identical outcome.
fn run_quantum(
    shared: &Shared,
    w: &mut Worker,
    ex: &mut Executor,
    own: &VecDeque<WorkItem>,
    item: &WorkItem,
    scratch: &mut Attempt,
    out: &mut WorkerOutput,
) -> Result<Vec<WorkItem>, TargetError> {
    let config = shared.config;
    let mut state = item.state.copy_into(&mut ex.pool);
    let _qspan = w.rec.span("engine", "quantum");
    begin_quantum(shared, w, out);
    if w.live.take() != Some(state.id) {
        context_switch(shared, w, item, out)?;
    }

    let reboot = config.mode == ConsistencyMode::NaiveConsistent;
    let mut log = if reboot {
        item.history.log.clone()
    } else {
        Vec::new()
    };
    let window_age = item.history.age;
    let window_cycle = w.target.cycle();
    let mut remaining = config.quantum.max(1);
    loop {
        // ServePendingInterrupt. Supervised: a glitched IRQ read is
        // re-sampled until two consecutive reads agree, so spurious or
        // dropped lines never change which interrupt is delivered.
        let lines = w.sup.irq_lines(w.target.as_mut());
        if lines != 0 && ex.enter_irq(&mut state, lines).is_some() {
            out.metrics.irqs_delivered += 1;
            w.rec.count(Counter::IrqsDelivered);
        }

        let state_id = state.id;
        out.covered.insert(state.pc);
        let mut proxy = Mmio {
            target: w.target.as_mut(),
            sup: &mut w.sup,
            abort: None,
            log: reboot.then_some(&mut log),
            age_base: window_age,
            cycle_base: window_cycle,
        };
        let outcome = ex.step(state, &mut proxy);
        if let Some(e) = proxy.abort.take() {
            return Err(TargetError::Bus(e));
        }
        scratch.executed += 1;
        let now = shared.executed.fetch_add(1, Ordering::Relaxed) + 1;
        remaining -= 1;
        w.target.step(CYCLES_PER_INSTRUCTION);
        let history = |log: Vec<IoOp>, w: &Worker| History {
            log,
            age: window_age + (w.target.cycle() - window_cycle),
        };

        let continuation = match outcome {
            StepOutcome::ContinueWith(s) => {
                if now < config.max_instructions {
                    if remaining == 0 && runs_on(shared, w, own, scratch) {
                        // No UpdateState/RestoreState pair between two
                        // quanta of one state; a failure replays both.
                        w.rec.observe(
                            Metric::QuantumInstructions,
                            scratch.executed - scratch.quantum_start,
                        );
                        scratch.quantum_start = scratch.executed;
                        begin_quantum(shared, w, out);
                        remaining = config.quantum.max(1);
                    }
                    if remaining > 0 {
                        state = s;
                        continue;
                    }
                }
                s
            }
            StepOutcome::Fork(succ) => {
                let stored = match config.mode {
                    ConsistencyMode::HardSnap => Some(capture(shared, w, state_id, out)?),
                    _ => None,
                };
                let history = history(log, w);
                let mut items = Vec::with_capacity(succ.len());
                for s in succ {
                    let existing = if s.id == state_id { item.snap } else { None };
                    let mut it = WorkItem::new(ItemState::live(s, &ex.pool), None);
                    if let Some(stored) = &stored {
                        it.snap = Some(install(&shared.store, stored.clone(), existing));
                    }
                    it.history = history.clone();
                    items.push(it);
                }
                return Ok(items);
            }
            StepOutcome::Halted(s) => {
                // The path leaves this worker: live only from the pool
                // that outlives the run.
                scratch
                    .completed
                    .push(if ex.pool.id() == shared.engine_pool {
                        ItemState::live(s, &ex.pool)
                    } else {
                        ItemState::Portable(PortableState::export(&ex.pool, &s))
                    });
                return Ok(end_path(shared, w, item, state_id, out));
            }
            StepOutcome::Bug {
                report,
                continuation,
            } => {
                // Buffered: the continuation save can still fail, and
                // the replay must not double-report.
                scratch.bugs.push(report);
                match continuation {
                    Some(s) => s,
                    None => return Ok(end_path(shared, w, item, state_id, out)),
                }
            }
        };
        // UpdateState: the continuation's context goes into its private
        // snapshot (HardSnap) or its replay history (baselines).
        let mut it = WorkItem::new(ItemState::live(continuation, &ex.pool), None);
        if config.mode == ConsistencyMode::HardSnap {
            let stored = capture(shared, w, state_id, out)?;
            it.snap = Some(install(&shared.store, stored, item.snap));
        }
        it.history = history(log, w);
        return Ok(vec![it]);
    }
}

fn begin_quantum(shared: &Shared, w: &Worker, out: &mut WorkerOutput) {
    w.rec.count(Counter::Quanta);
    out.metrics.quanta += 1;
    shared.quanta.fetch_add(1, Ordering::Relaxed);
}

/// Whether a one-worker run keeps its continuation on the replica for
/// the next quantum: no budget has tripped and the searcher would select
/// it next anyway (see [`Queue::selects_newest`]). The live context is
/// then the state's own, exactly as after a restore, so saving and
/// restoring it would only cost device time — a capture per quantum for
/// a long init sequence.
fn runs_on(shared: &Shared, w: &Worker, own: &VecDeque<WorkItem>, scratch: &Attempt) -> bool {
    shared.one_worker
        && budget_stop(
            shared.config,
            shared.executed.load(Ordering::Relaxed),
            shared.paths.load(Ordering::Relaxed),
            shared.vtime.load(Ordering::Relaxed) + w.vtime().saturating_sub(scratch.vt0),
            shared.quanta.load(Ordering::Relaxed),
        )
        .is_none()
        && shared.q.lock().selects_newest(own, shared.config.searcher)
}

/// Hardware context switch (paper lines 5-9): makes the replica hold
/// `item`'s hardware context.
fn context_switch(
    shared: &Shared,
    w: &mut Worker,
    item: &WorkItem,
    out: &mut WorkerOutput,
) -> Result<(), TargetError> {
    let config = shared.config;
    out.metrics.context_switches += 1;
    w.rec.count(Counter::ContextSwitches);
    let _span = w.rec.span("engine", "context-switch");
    match config.mode {
        ConsistencyMode::HardSnap => match item.snap {
            Some(sid) => {
                // Engine-owned ids are never delta bases, so the chain
                // cannot break; a corrupted store fails with the precise
                // broken link rather than a bare unwrap.
                let snap = shared.store.try_get(sid).map_err(|e| {
                    TargetError::CorruptSnapshot(format!("state {:?}: {e}", item.state.id()))
                })?;
                w.sup.restore_snapshot(w.target.as_mut(), &snap)?;
                out.metrics.snapshots_restored += 1;
            }
            // A root: "no corresponding hardware snapshot" — power-on.
            None => w.target.reset(),
        },
        ConsistencyMode::NaiveConsistent => {
            // Reboot and replay the whole interaction history with its
            // original timing (ops AND idle gaps); otherwise
            // time-sensitive peripherals (a hash mid-computation, a
            // running timer) end up in the wrong phase.
            w.target.reset();
            out.metrics.reboots += 1;
            w.rec.count(Counter::Reboots);
            w.reboot_ns += REBOOT_COST_NS;
            let base = w.target.cycle();
            for op in &item.history.log {
                let age_now = w.target.cycle() - base;
                if op.at_age > age_now {
                    w.target.step(op.at_age - age_now);
                }
                trace_op(op);
                if op.is_write {
                    let _ = w.target.bus_write(op.addr, op.value);
                } else {
                    let _ = w.target.bus_read(op.addr);
                }
                out.metrics.replayed_ios += 1;
            }
            let age_now = w.target.cycle() - base;
            if item.history.age > age_now {
                w.target.step(item.history.age - age_now);
            }
        }
        // Shared hardware: do nothing. This is the bug.
        ConsistencyMode::NaiveInconsistent => {}
    }
    Ok(())
}

/// A finished path: the final hardware assertion check, then the
/// state's snapshot is retired. No fallible operation follows, so the
/// shared counters and store may be touched directly.
fn end_path(
    shared: &Shared,
    w: &mut Worker,
    item: &WorkItem,
    id: StateId,
    out: &mut WorkerOutput,
) -> Vec<WorkItem> {
    if !shared.assertions.is_empty() && shared.config.mode == ConsistencyMode::HardSnap {
        if let Ok(snap) = w.target.save_snapshot() {
            out.metrics.snapshots_saved += 1;
            check_assertions(shared.assertions, &snap, id, &mut out.violations);
        }
    }
    shared.paths.fetch_add(1, Ordering::Relaxed);
    out.metrics.paths_completed += 1;
    if let Some(sid) = item.snap {
        shared.store.remove(sid);
    }
    Vec::new()
}

fn check_assertions(
    assertions: &[HwAssertion],
    snap: &HwSnapshot,
    owner: StateId,
    violations: &mut Vec<(String, StateId)>,
) {
    for a in assertions {
        if !(a.check)(snap) && !violations.iter().any(|(n, s)| *s == owner && n == &a.name) {
            violations.push((a.name.clone(), owner));
        }
    }
}

/// A capture resolved into its store-ready form: a native delta against
/// a base the store holds, or a full image that a fork's children share.
#[derive(Clone)]
enum Stored {
    Native(Arc<Base>, SnapshotDelta),
    Full(Arc<HwSnapshot>),
}

/// Captures the replica's live context (supervised), checks the
/// hardware assertions against it, and resolves it for the store. In
/// delta mode the target hands back an O(changed) capture against its
/// shared base; the full image is materialized only when assertions are
/// registered.
fn capture(
    shared: &Shared,
    w: &mut Worker,
    owner: StateId,
    out: &mut WorkerOutput,
) -> Result<Stored, TargetError> {
    let stored = if shared.config.delta_snapshots {
        let cap = w.sup.save_capture(w.target.as_mut())?;
        if !shared.assertions.is_empty() {
            if let Ok(full) = cap.materialize() {
                check_assertions(shared.assertions, &full, owner, &mut out.violations);
            }
        }
        resolve_capture(&shared.store, &mut w.anchor, cap)
    } else {
        let snap = w.sup.save_snapshot(w.target.as_mut())?;
        check_assertions(shared.assertions, &snap, owner, &mut out.violations);
        Stored::Full(Arc::new(snap))
    };
    out.metrics.snapshots_saved += 1;
    Ok(stored)
}

/// Resolves a target capture against the worker's base anchor. A full
/// capture becomes a fresh base (stored as an empty delta against
/// itself); so does the base of a delta when it is not the anchored one
/// (the target rebased unseen) or the anchor is dead (every entry
/// holding it is gone).
fn resolve_capture(store: &SnapshotStore, anchor: &mut Weak<Base>, cap: SnapshotCapture) -> Stored {
    let (image, delta) = match cap {
        SnapshotCapture::Full(arc) => {
            let empty = SnapshotDelta {
                regs: Vec::new(),
                mem_words: Vec::new(),
                cycle: arc.cycle,
            };
            (arc, empty)
        }
        SnapshotCapture::Delta { base, delta } => (base, delta),
    };
    let base = match anchor.upgrade() {
        Some(base) if Arc::ptr_eq(base.snap(), &image) => base,
        _ => {
            let base = Base::new(store, image);
            *anchor = Arc::downgrade(&base);
            base
        }
    };
    Stored::Native(base, delta)
}

/// Installs a resolved capture into the shared store, updating
/// `existing` in place when the state already owns a snapshot id.
/// Native installs are O(delta).
fn install(store: &SnapshotStore, stored: Stored, existing: Option<SnapId>) -> SnapId {
    match (stored, existing) {
        (Stored::Native(base, delta), Some(sid)) => {
            store.update_delta(sid, base, delta);
            sid
        }
        (Stored::Native(base, delta), None) => store.insert_delta(base, delta),
        (Stored::Full(full), Some(sid)) => {
            store.update(sid, full);
            sid
        }
        (Stored::Full(full), None) => store.insert(full),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardsnap_symex::Concretization;

    fn live_item(id: u64) -> (Executor, ItemState) {
        let mut ex = Executor::new(Concretization::Minimal);
        let mut state = ex.initial_state(vec![0; 16], 0);
        state.id = StateId(id);
        let item = ItemState::live(state, &ex.pool);
        (ex, item)
    }

    #[test]
    fn a_live_state_is_read_back_through_its_own_pool() {
        let (mut ex, item) = live_item(7);
        let terms = ex.pool.len();
        assert_eq!(item.copy_into(&mut ex.pool).id, StateId(7));
        assert_eq!(item.into_live(&mut ex.pool).id, StateId(7));
        assert_eq!(ex.pool.len(), terms, "a live state interns nothing");
    }

    #[test]
    #[should_panic(expected = "state StateId(7) is live in term pool")]
    fn a_live_state_refuses_another_pool() {
        let (_ex, item) = live_item(7);
        item.into_live(&mut TermPool::new());
    }
}
