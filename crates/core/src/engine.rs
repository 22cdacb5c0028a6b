//! The HardSnap analysis engine: Algorithm 1 of the paper, at any
//! worker count.
//!
//! The engine owns the symbolic executor, N hardware replicas and the
//! snapshot store, and schedules symbolic states with **hardware context
//! switching**: a state runs a quantum only after its private hardware
//! snapshot is restored (`RestoreState`), and its continuation leaves
//! with the live context saved (`UpdateState`). Forked states receive
//! fresh, non-shared hardware snapshots. The loop itself lives in
//! `worker.rs`; worker 0 runs it on the calling thread over the target
//! handed to [`Engine::new`], and [`Engine::with_workers`] adds
//! power-on forks of that target on scoped threads.
//!
//! Two baseline modes reproduce the paper's Fig. 1 comparison by
//! replacing only the context-switch step (one worker only):
//!
//! * [`ConsistencyMode::NaiveConsistent`] — reboot-and-replay: on every
//!   context switch the hardware is fully reset and the state's entire
//!   MMIO interaction log is replayed (slow but correct).
//! * [`ConsistencyMode::NaiveInconsistent`] — hardware-in-the-loop with
//!   no state management: all symbolic states share the live hardware
//!   (fast but wrong — the mode used by prior hardware-in-the-loop DSE).

use crate::snapshots::{SnapId, SnapshotStore};
use crate::supervise::{FaultSummary, RetryPolicy};
use crate::worker::{run_worker, Carry, ItemState, Queue, Shared, WorkItem, Worker, WorkerOutput};
use hardsnap_bus::{HwSnapshot, HwTarget, TargetError};
use hardsnap_symex::{BugReport, Concretization, Executor, PortableState, StateId, SymState};
use hardsnap_telemetry::{Counter, MetricsSnapshot, TelemetryConfig};
use hardsnap_util::sync::scope;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Whether per-operation I/O tracing is on, sampled once per process
/// (it sits on the hottest path in the engine: every forwarded MMIO
/// operation and every replayed one). Controlled by the
/// `HARDSNAP_TELEMETRY=io` switch (see
/// [`hardsnap_telemetry::TelemetryConfig`]).
pub(crate) fn trace_io() -> bool {
    hardsnap_telemetry::global().trace_io
}

/// State-consistency strategy (the three scenarios of paper Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsistencyMode {
    /// Hardware snapshotting (the paper's contribution).
    HardSnap,
    /// Full reboot + I/O replay on every context switch.
    NaiveConsistent,
    /// Shared live hardware, no context management.
    NaiveInconsistent,
}

/// Cooperative cancellation handle shared between an engine run and an
/// outside controller (the serve daemon's watchdog, a signal handler, a
/// test harness). Cancelling is a *request*, honoured at the next
/// quantum boundary: the engine stops exactly as it does for a budget —
/// frontier intact, partial [`RunResult`] valid, campaign checkpoint
/// resumable — rather than being killed mid-quantum.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// Why a run stopped. Carried on [`RunResult`] but deliberately
/// excluded from [`RunResult::canonical_digest`]: *where* a run was cut
/// is schedule, not semantics — a budget-exhausted run resumed to
/// completion must digest identically to an uninterrupted one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Frontier drained: every path ran to completion.
    Complete,
    /// Instruction budget (`max_instructions`) exhausted.
    Instructions,
    /// Path budget (`max_paths`) exhausted.
    Paths,
    /// Virtual-time budget (`max_vtime_ns`) exhausted.
    VirtualTime,
    /// Quantum budget (`max_quanta`) exhausted.
    Quanta,
    /// Wall-clock deadline (`wall_deadline`) passed.
    WallClock,
    /// Cancelled via [`CancelToken`].
    Cancelled,
}

impl StopReason {
    /// Stable wire name (serve protocol, JSON reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::Complete => "complete",
            StopReason::Instructions => "instructions",
            StopReason::Paths => "paths",
            StopReason::VirtualTime => "vtime",
            StopReason::Quanta => "quanta",
            StopReason::WallClock => "wall-clock",
            StopReason::Cancelled => "cancelled",
        }
    }

    /// Parses a wire name back (serve protocol round-trips).
    pub fn parse(s: &str) -> Option<StopReason> {
        Some(match s {
            "complete" => StopReason::Complete,
            "instructions" => StopReason::Instructions,
            "paths" => StopReason::Paths,
            "vtime" => StopReason::VirtualTime,
            "quanta" => StopReason::Quanta,
            "wall-clock" => StopReason::WallClock,
            "cancelled" => StopReason::Cancelled,
            _ => return None,
        })
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// State-selection heuristic (`SelectNextState`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Searcher {
    /// Depth-first (fewest context switches).
    Dfs,
    /// Breadth-first (most context switches — stresses snapshotting).
    Bfs,
    /// Round-robin over active states.
    RoundRobin,
    /// Uniform random state selection (KLEE's random-state search),
    /// deterministic for a given seed.
    Random(u64),
}

/// Cycles the hardware advances per executed instruction (models the
/// firmware clock; interrupts fire based on this).
pub const CYCLES_PER_INSTRUCTION: u64 = 4;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Consistency strategy.
    pub mode: ConsistencyMode,
    /// State-selection heuristic.
    pub searcher: Searcher,
    /// Concretization policy at the VM boundary.
    pub policy: Concretization,
    /// Stop after this many symbolically executed instructions.
    pub max_instructions: u64,
    /// Stop after this many completed (halted) paths.
    pub max_paths: usize,
    /// Cap on simultaneously active states (fork bomb guard).
    pub max_states: usize,
    /// Scheduling quantum: instructions a selected state runs before the
    /// scheduler re-selects (KLEE-style batching; bounds context-switch
    /// frequency).
    pub quantum: u64,
    /// Store fork snapshots as deltas against the fork-point image
    /// (storage ablation; see `SnapshotStore`).
    pub delta_snapshots: bool,
    /// Resident-byte budget for the snapshot store (`None` =
    /// unbudgeted). Under a budget the store spills least-recently-used
    /// cold snapshots to a spool directory and pages them back in on
    /// demand, bounding the analysis' snapshot RAM high-water mark
    /// without changing its semantic result. Surfaced as `analyze
    /// --snapshot-mem-budget BYTES`.
    pub snapshot_mem_budget: Option<usize>,
    /// Stop after this much hardware virtual time has been consumed
    /// (ns), including modeled reboot penalties and supervised-retry
    /// backoff. `u64::MAX` = unbudgeted.
    pub max_vtime_ns: u64,
    /// Stop after this many scheduling quanta. `u64::MAX` = unbudgeted.
    pub max_quanta: u64,
    /// Hard wall-clock deadline: the run stops at the first quantum
    /// boundary past this instant. `None` = no deadline. Checked, like
    /// all budgets, *between* quanta, so the partial result and any
    /// campaign checkpoint taken afterwards are always valid.
    pub wall_deadline: Option<std::time::Instant>,
    /// Cooperative cancellation: an outside controller (serve watchdog,
    /// signal handler) flips the token and the run stops at the next
    /// quantum boundary with [`StopReason::Cancelled`].
    pub cancel: CancelToken,
    /// Retry/backoff/quarantine policy for fallible target operations
    /// (see [`crate::supervise`]).
    pub retry: RetryPolicy,
    /// Telemetry switches (spans/counters/histograms + I/O tracing).
    /// Defaults to the process-wide `HARDSNAP_TELEMETRY` configuration;
    /// telemetry is observe-only and never perturbs the analysis.
    pub telemetry: TelemetryConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: ConsistencyMode::HardSnap,
            searcher: Searcher::RoundRobin,
            policy: Concretization::Minimal,
            max_instructions: 1_000_000,
            max_paths: 10_000,
            max_states: 10_000,
            quantum: 32,
            delta_snapshots: false,
            snapshot_mem_budget: None,
            max_vtime_ns: u64::MAX,
            max_quanta: u64::MAX,
            wall_deadline: None,
            cancel: CancelToken::new(),
            retry: RetryPolicy::default(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// One forwarded I/O operation (recorded for reboot-replay).
///
/// `at_age` is the device age (cycles the owning state has experienced)
/// at which the operation was issued. Replay must reproduce not only the
/// operations but their timing — the paper calls record-and-replay
/// "error-prone as the number of interactions to replay may be
/// considerable and time sensitive" (§I) — so the reboot baseline steps
/// the device through the recorded idle gaps as well.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoOp {
    /// True for writes, false for reads.
    pub is_write: bool,
    /// Address.
    pub addr: u32,
    /// Value written (writes) or observed (reads).
    pub value: u32,
    /// Device age (state-local cycles) when issued.
    pub at_age: u64,
}

/// Engine metrics for the evaluation harnesses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Hardware context switches performed.
    pub context_switches: u64,
    /// Snapshots saved (UpdateState + fork snapshots).
    pub snapshots_saved: u64,
    /// Snapshots restored (RestoreState).
    pub snapshots_restored: u64,
    /// Full hardware reboots (naive-consistent mode).
    pub reboots: u64,
    /// I/O operations replayed after reboots.
    pub replayed_ios: u64,
    /// Completed (halted) paths.
    pub paths_completed: u64,
    /// States dropped by the fork-bomb guard.
    pub states_dropped: u64,
    /// Interrupts delivered.
    pub irqs_delivered: u64,
    /// Scheduling quanta executed (budget unit for `max_quanta`; a
    /// resumed campaign carries its consumed quanta forward so the
    /// combined run respects the original budget).
    pub quanta: u64,
}

/// Result of a finished analysis run.
#[derive(Debug)]
pub struct RunResult {
    /// Bugs found, sorted by state id.
    pub bugs: Vec<BugReport>,
    /// Final states of completed (halted) paths, sorted by state id
    /// (inspect final memory, console output and path constraints).
    pub completed: Vec<SymState>,
    /// Engine metrics.
    pub metrics: EngineMetrics,
    /// Hardware virtual time consumed (ns).
    pub hw_virtual_time_ns: u64,
    /// Host wall-clock time of the run.
    pub host_time: std::time::Duration,
    /// Instructions symbolically executed.
    pub instructions: u64,
    /// Distinct firmware PCs covered across all explored paths.
    pub covered_pcs: usize,
    /// Console output of the completed path with the lowest state id
    /// (diagnostics).
    pub sample_console: Vec<u8>,
    /// Fault-injection / recovery summary (injected, retried,
    /// recovered, quarantined). Deliberately excluded from
    /// [`RunResult::canonical_digest`]: recovery must not change the
    /// semantic result.
    pub faults: FaultSummary,
    /// Human-readable records of unrecoverable target faults, each
    /// naming the symbolic state it killed. Empty on a clean run.
    pub fault_log: Vec<String>,
    /// Telemetry captured during the run (`None` when telemetry is
    /// disabled). Like `metrics`/timing, excluded from
    /// [`RunResult::canonical_digest`]: observation must never change
    /// the semantic result.
    pub telemetry: Option<MetricsSnapshot>,
    /// Why the run stopped. Excluded from
    /// [`RunResult::canonical_digest`] — where a run was cut is
    /// schedule, not semantics.
    pub stop: StopReason,
}

impl RunResult {
    /// Order-insensitive digest of the run's semantic payload: bugs,
    /// completed paths, coverage and instruction count — everything a
    /// schedule must not change. Timing (`host_time`,
    /// `hw_virtual_time_ns`) and bookkeeping (`metrics`) are excluded:
    /// worker counts legitimately differ there.
    ///
    /// All hashed fields are pool-independent (ids, PCs, console bytes,
    /// solver models), so digests compare across workers whose term
    /// pools interned in different orders. Runs of the same seed at any
    /// worker count must produce equal digests whenever the run
    /// completed inside its budgets; the determinism suite relies on
    /// exactly that.
    pub fn canonical_digest(&self) -> u64 {
        // Serialize each item to bytes, sort the serializations (an
        // order-insensitive canonical form), then FNV-1a the lot.
        fn push_u64(buf: &mut Vec<u8>, v: u64) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let mut items: Vec<Vec<u8>> = Vec::new();
        for b in &self.bugs {
            let mut e = vec![b'B', kind_rank(b.kind)];
            push_u64(&mut e, u64::from(b.pc));
            push_u64(&mut e, b.state_id.0);
            e.extend_from_slice(b.description.as_bytes());
            if let Some(model) = &b.testcase {
                let mut vars: Vec<(&str, u64)> = model.iter().collect();
                vars.sort_unstable();
                for (name, value) in vars {
                    e.push(0);
                    e.extend_from_slice(name.as_bytes());
                    push_u64(&mut e, value);
                }
            }
            items.push(e);
        }
        for s in &self.completed {
            let mut e = vec![b'P'];
            push_u64(&mut e, s.id.0);
            push_u64(&mut e, u64::from(s.pc));
            push_u64(&mut e, s.instret);
            push_u64(&mut e, u64::from(s.sym_count));
            push_u64(&mut e, s.constraints.len() as u64);
            e.extend_from_slice(&s.console);
            items.push(e);
        }
        items.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for e in &items {
            eat(e);
        }
        eat(&(self.covered_pcs as u64).to_le_bytes());
        eat(&self.instructions.to_le_bytes());
        h
    }
}

/// First exceeded budget in the canonical priority order
/// (cancel → wall-clock → instructions → paths → virtual time →
/// quanta), or `None` while every budget still has headroom.
pub(crate) fn budget_stop(
    config: &EngineConfig,
    executed: u64,
    paths: u64,
    vtime_ns: u64,
    quanta: u64,
) -> Option<StopReason> {
    if config.cancel.is_cancelled() {
        return Some(StopReason::Cancelled);
    }
    if let Some(deadline) = config.wall_deadline {
        if std::time::Instant::now() >= deadline {
            return Some(StopReason::WallClock);
        }
    }
    if executed >= config.max_instructions {
        return Some(StopReason::Instructions);
    }
    if paths >= config.max_paths as u64 {
        return Some(StopReason::Paths);
    }
    if vtime_ns >= config.max_vtime_ns {
        return Some(StopReason::VirtualTime);
    }
    if quanta >= config.max_quanta {
        return Some(StopReason::Quanta);
    }
    None
}

/// A hardware property checked against every snapshot the controller
/// takes (the paper's "assertions ... relevant for the detection of
/// peripherals misuse", applied at snapshot granularity).
pub struct HwAssertion {
    /// Name for reports.
    pub name: String,
    /// Returns false when violated. Shared by every worker's thread.
    pub check: Box<dyn Fn(&HwSnapshot) -> bool + Send + Sync>,
}

/// The HardSnap engine (Algorithm 1): N workers, N hardware replicas,
/// one shared snapshot store.
pub struct Engine {
    /// The symbolic executor of worker 0, which runs on the calling
    /// thread; its solver statistics cover every worker after a run.
    /// Its pool is the one that outlives a run: the root, worker 0's
    /// items and completed paths, and what a stop left in worker 0's
    /// deque stay live in it, and are flattened only for a checkpoint or
    /// a hand-off to another worker (importing a state into the pool it
    /// came from is a fixed point, so skipping the flatten is exact).
    /// `run` imports carried-in and other workers' completed paths into
    /// this pool.
    pub executor: Executor,
    /// The shared, lock-sharded snapshot store.
    pub store: SnapshotStore,
    /// Merged metrics of the last run (including a resumed campaign's
    /// carried paths and quanta).
    pub metrics: EngineMetrics,
    /// Violations of hardware assertions, (assertion name, state id),
    /// sorted and deduplicated.
    pub hw_violations: Vec<(String, StateId)>,
    /// Hardware virtual time each worker's replica spent in the last
    /// run. The replicas run concurrently on real deployments, so the
    /// campaign's modeled wall clock is the *max* of these (while
    /// [`RunResult::hw_virtual_time_ns`] stays the schedule-invariant
    /// sum).
    pub worker_vtimes_ns: Vec<u64>,
    config: EngineConfig,
    workers: Vec<Worker>,
    /// Spare target for the first quarantining worker whose replica
    /// cannot rebuild itself ([`Engine::set_failover`]).
    failover: Option<Box<dyn HwTarget>>,
    /// Schedulable work between runs: roots, resumed states, and what a
    /// budget stop left queued. Live items belong to `executor`'s pool;
    /// the next run starts them all in worker 0's deque.
    frontier: VecDeque<WorkItem>,
    /// xorshift64* state of [`Searcher::Random`], kept across runs.
    rng: u64,
    /// Union of covered PCs across runs.
    covered: HashSet<u32>,
    hw_assertions: Vec<HwAssertion>,
    /// Results of the run that produced a resumed campaign
    /// ([`Engine::seed_prior`]), folded into the next run.
    carry: Carry,
}

impl Engine {
    /// Creates a one-worker engine that drives `target` itself.
    pub fn new(target: Box<dyn HwTarget>, config: EngineConfig) -> Engine {
        Engine::build(vec![target], config)
    }

    /// Creates an engine with `workers` workers (clamped to ≥ 1):
    /// `target` is worker 0's replica, driven on the calling thread, and
    /// the other N−1 replicas are power-on forks of it
    /// ([`HwTarget::fork_clean`]).
    ///
    /// # Errors
    ///
    /// [`TargetError::Unsupported`] for more than one worker outside
    /// [`ConsistencyMode::HardSnap`] (the baselines serialize on one
    /// shared device); any error from [`HwTarget::fork_clean`].
    pub fn with_workers(
        target: Box<dyn HwTarget>,
        workers: usize,
        config: EngineConfig,
    ) -> Result<Engine, TargetError> {
        if workers > 1 && config.mode != ConsistencyMode::HardSnap {
            return Err(TargetError::Unsupported(
                "more than one worker requires ConsistencyMode::HardSnap".into(),
            ));
        }
        let forks = (1..workers)
            .map(|_| target.fork_clean())
            .collect::<Result<Vec<_>, _>>()?;
        let mut replicas = vec![target];
        replicas.extend(forks);
        Ok(Engine::build(replicas, config))
    }

    fn build(replicas: Vec<Box<dyn HwTarget>>, config: EngineConfig) -> Engine {
        let store = SnapshotStore::new();
        store.set_mem_budget(config.snapshot_mem_budget);
        let workers = replicas
            .into_iter()
            .enumerate()
            .map(|(w, t)| Worker::new(w, t, &config))
            .collect();
        Engine {
            executor: Executor::new(config.policy),
            store,
            metrics: EngineMetrics::default(),
            hw_violations: Vec::new(),
            worker_vtimes_ns: Vec::new(),
            rng: match config.searcher {
                Searcher::Random(seed) => seed | 1,
                _ => 1,
            },
            config,
            workers,
            failover: None,
            frontier: VecDeque::new(),
            covered: HashSet::new(),
            hw_assertions: Vec::new(),
            carry: Carry::default(),
        }
    }

    /// Number of workers / hardware replicas.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Installs a spare target used for failover: when a quarantined
    /// replica cannot rebuild itself via [`HwTarget::fork_clean`], the
    /// first worker in that situation takes this spare instead of
    /// soldiering on with a reset of the faulty device. Snapshots are
    /// portable across targets sharing the canonical format (paper
    /// §III-B), so the spare may be a different platform — typically a
    /// simulator standing in for a failed FPGA board.
    pub fn set_failover(&mut self, target: Box<dyn HwTarget>) {
        self.failover = Some(target);
    }

    /// Resets worker 0's hardware and enqueues the initial state of
    /// `program` (a root: power-on hardware, reset again by whichever
    /// worker first picks it up in HardSnap mode).
    pub fn load_firmware(&mut self, program: &hardsnap_isa::Program) {
        let w0 = &mut self.workers[0];
        w0.target.reset();
        w0.live = None;
        let s = self
            .executor
            .initial_state(program.image.clone(), program.entry);
        let root = ItemState::live(s, &self.executor.pool);
        self.frontier.push_back(WorkItem::new(root, None));
    }

    /// Registers a hardware property checked on every snapshot taken.
    pub fn add_hw_assertion(
        &mut self,
        name: impl Into<String>,
        check: impl Fn(&HwSnapshot) -> bool + Send + Sync + 'static,
    ) {
        self.hw_assertions.push(HwAssertion {
            name: name.into(),
            check: Box::new(check),
        });
    }

    /// Worker 0's hardware target.
    pub fn target(&self) -> &dyn HwTarget {
        self.workers[0].target.as_ref()
    }

    /// Mutable access to worker 0's hardware target (diagnosis).
    pub fn target_mut(&mut self) -> &mut dyn HwTarget {
        self.workers[0].target.as_mut()
    }

    /// Number of schedulable states waiting for the next run.
    pub fn active_states(&self) -> usize {
        self.frontier.len()
    }

    /// Transfers a one-worker analysis to another hardware target
    /// between runs — the paper's multi-target orchestration (§III-B).
    /// The live hardware state is moved onto the new target; stored
    /// snapshots remain valid because both targets share the canonical
    /// snapshot format. Both sides of the handoff run supervised
    /// (transient link faults are retried, the captured image is
    /// integrity-checked).
    ///
    /// # Errors
    ///
    /// [`TargetError::Unsupported`] past one worker; otherwise
    /// propagates snapshot/transfer failures, keeping the old target.
    pub fn switch_target(&mut self, mut new_target: Box<dyn HwTarget>) -> Result<(), TargetError> {
        if self.workers.len() != 1 {
            return Err(TargetError::Unsupported(
                "switch_target drives a one-worker engine".into(),
            ));
        }
        let w = &mut self.workers[0];
        let _span = w.rec.span("engine", "switch-target");
        let snap = w.sup.save_snapshot(w.target.as_mut())?;
        w.sup.restore_snapshot(new_target.as_mut(), &snap)?;
        w.install(new_target, &self.config);
        w.rec.count(Counter::ContextSwitches);
        Ok(())
    }

    /// Runs the analysis to completion (or budget exhaustion): worker 0
    /// on this thread, the others on scoped threads. Results merge in
    /// state-id order, so the digest is the same at any worker count.
    pub fn run(&mut self) -> RunResult {
        let host_start = std::time::Instant::now();
        // A resumed campaign continues where the saved run stopped: the
        // shared budget counters start from the carried-in totals, and
        // if those already exhaust a budget the queue starts stopped so
        // the frontier survives untouched for the next checkpoint.
        let mut carry = std::mem::take(&mut self.carry);
        let exhausted = budget_stop(
            &self.config,
            carry.instructions,
            carry.paths,
            carry.vtime_ns,
            carry.quanta,
        );
        // Every frontier item starts in worker 0's deque, live in its
        // pool (`executor`'s) or portable.
        let frontier = std::mem::take(&mut self.frontier);
        let queue = Queue::new(frontier.len(), self.rng, exhausted);
        let shared = Shared::new(
            queue,
            self.store.clone(),
            &self.config,
            &self.hw_assertions,
            self.workers.len(),
            self.executor.pool.id(),
            &carry,
            self.failover.take(),
        );
        let (w0, rest) = self.workers.split_first_mut().expect("at least one worker");
        let executor = &mut self.executor;
        let mut outputs: Vec<WorkerOutput> = scope(|scp| {
            let shared = &shared;
            let handles: Vec<_> = rest
                .iter_mut()
                .map(|w| {
                    scp.spawn(move || {
                        let mut ex = Executor::new(shared.config.policy);
                        let mut out = run_worker(shared, w, &mut ex, VecDeque::new());
                        out.solver = ex.solver.stats;
                        out
                    })
                })
                .collect();
            let mut outputs = vec![run_worker(shared, w0, executor, frontier)];
            outputs.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked")),
            );
            outputs
        });
        // An unused spare survives for the next run; whatever the stop
        // flag stranded in the workers' deques or mid-hand-off is the
        // still-schedulable frontier.
        self.failover = shared.failover.lock().take();
        for o in &mut outputs {
            self.frontier.append(&mut o.left);
        }
        let (stop, dropped) = {
            let mut q = shared.q.lock();
            self.frontier.append(&mut q.handoff);
            self.rng = q.rng;
            q.outcome()
        };

        // Deterministic merge: order by state id, never by arrival.
        // Carried-in results merge exactly like another worker's output.
        let mut bugs = std::mem::take(&mut carry.bugs);
        let mut completed_items: Vec<ItemState> = std::mem::take(&mut carry.completed)
            .into_iter()
            .map(ItemState::Portable)
            .collect();
        let mut metrics = EngineMetrics {
            paths_completed: carry.paths,
            quanta: carry.quanta,
            states_dropped: dropped,
            ..EngineMetrics::default()
        };
        let mut vtime: u64 = 0;
        let mut faults = FaultSummary::default();
        let mut fault_log: Vec<String> = Vec::new();
        // Telemetry merges in worker order, so track ids and labels are
        // stable across runs.
        let mut telemetry: Option<MetricsSnapshot> = None;
        self.worker_vtimes_ns.clear();
        for o in &mut outputs {
            bugs.append(&mut o.bugs);
            completed_items.append(&mut o.completed);
            self.covered.extend(o.covered.iter().copied());
            merge_metrics(&mut metrics, o.metrics);
            vtime += o.vtime_ns;
            self.worker_vtimes_ns.push(o.vtime_ns);
            faults.merge(&o.faults);
            fault_log.append(&mut o.fatal);
            self.hw_violations.append(&mut o.violations);
            if let Some(t) = o.telemetry.take() {
                match &mut telemetry {
                    Some(acc) => acc.merge(t),
                    None => telemetry = Some(t),
                }
            }
            let acc = &mut self.executor.solver.stats;
            acc.queries += o.solver.queries;
            acc.sat += o.solver.sat;
            acc.unsat += o.solver.unsat;
            acc.cached += o.solver.cached;
            acc.time_us += o.solver.time_us;
        }
        self.hw_violations.sort();
        self.hw_violations.dedup();
        bugs.sort_by(|a, b| {
            (a.state_id.0, a.pc, kind_rank(a.kind), &a.description).cmp(&(
                b.state_id.0,
                b.pc,
                kind_rank(b.kind),
                &b.description,
            ))
        });
        completed_items.sort_by_key(|s| s.id().0);
        completed_items.truncate(self.config.max_paths);
        let completed: Vec<SymState> = completed_items
            .into_iter()
            .map(|s| s.into_live(&mut self.executor.pool))
            .collect();
        // The store's always-on counters are folded into the telemetry
        // snapshot only here, in the export side-channel.
        if let Some(t) = &mut telemetry {
            let st = self.store.stats();
            t.add_counter("store_hits", st.hits);
            t.add_counter("store_misses", st.misses);
            t.add_counter("store_evictions", st.evictions);
            t.add_counter("store_spills", st.spills);
            t.add_counter("store_page_ins", st.page_ins);
            t.add_counter("store_resident_bytes_hwm", self.store.peak_bytes() as u64);
        }
        self.metrics = metrics;

        RunResult {
            sample_console: completed
                .first()
                .map(|s| s.console.clone())
                .unwrap_or_default(),
            bugs,
            completed,
            metrics,
            hw_virtual_time_ns: vtime + carry.vtime_ns,
            host_time: host_start.elapsed(),
            instructions: shared.executed.into_inner(),
            covered_pcs: self.covered.len(),
            faults,
            fault_log,
            telemetry,
            stop,
        }
    }

    /// The set of distinct firmware PCs covered so far (campaign
    /// checkpointing persists the set itself; `RunResult` only carries
    /// its size).
    pub fn covered_set(&self) -> &HashSet<u32> {
        &self.covered
    }

    /// Drains the schedulable frontier for campaign checkpointing: every
    /// state a budget stop left queued (plus any never-run root) leaves
    /// as a portable state plus the id of its private snapshot in
    /// [`Engine::store`] (`None` for a power-on root). What a stop left
    /// in worker 0's deque is flattened here, out of
    /// [`Engine::executor`]'s pool; the other workers flattened theirs
    /// when they stopped, and a hand-off in flight already was. Every
    /// queued state's context was saved when its quantum ended, so
    /// nothing lives only on a replica. Sorted by state id, so the
    /// checkpoint is byte-stable at any worker count.
    ///
    /// # Errors
    ///
    /// [`TargetError::Unsupported`] outside HardSnap mode (the baselines
    /// keep their context in replay logs, which a checkpoint does not
    /// persist).
    pub fn take_frontier(&mut self) -> Result<Vec<(PortableState, Option<SnapId>)>, TargetError> {
        if self.config.mode != ConsistencyMode::HardSnap {
            return Err(TargetError::Unsupported(
                "campaign checkpointing requires HardSnap mode".into(),
            ));
        }
        let pool = &self.executor.pool;
        let mut out: Vec<(PortableState, Option<SnapId>)> = self
            .frontier
            .drain(..)
            .map(|it| (it.state.into_portable(pool), it.snap))
            .collect();
        out.sort_by_key(|(s, _)| s.id.0);
        Ok(out)
    }

    /// Enqueues a frontier exported by [`Engine::take_frontier`] (with
    /// snapshot ids re-mapped to this engine's store by the campaign
    /// loader), in order.
    pub fn resume_frontier(&mut self, frontier: Vec<(PortableState, Option<SnapId>)>) {
        for w in &mut self.workers {
            w.live = None;
        }
        self.frontier.extend(
            frontier
                .into_iter()
                .map(|(state, snap)| WorkItem::new(ItemState::Portable(state), snap)),
        );
    }

    /// Seeds the engine with the results of the run that produced a
    /// saved campaign, so the next [`Engine::run`] folds them into its
    /// budgets (instruction and path caps continue where the saved run
    /// stopped) and into its `RunResult` — making save → resume report
    /// exactly what one uninterrupted run would have.
    #[allow(clippy::too_many_arguments)]
    pub fn seed_prior(
        &mut self,
        instructions: u64,
        paths_completed: u64,
        vtime_ns: u64,
        quanta: u64,
        covered: impl IntoIterator<Item = u32>,
        bugs: Vec<BugReport>,
        completed: Vec<PortableState>,
    ) {
        self.covered.extend(covered);
        self.carry = Carry {
            bugs,
            completed,
            instructions,
            paths: paths_completed,
            vtime_ns,
            quanta,
        };
    }
}

/// Constructor kept for the host-clock benchmark
/// (`benchmark/src/explore.rs`), which builds multi-worker engines from
/// a prototype target. New code calls [`Engine::with_workers`].
pub struct ParallelEngine;

impl ParallelEngine {
    /// An [`Engine`] with `workers` workers whose replicas are all
    /// power-on forks of `prototype`; the prototype itself is not
    /// driven.
    ///
    /// # Errors
    ///
    /// As [`Engine::with_workers`], plus a failed fork of `prototype`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        prototype: &dyn HwTarget,
        workers: usize,
        config: EngineConfig,
    ) -> Result<Engine, TargetError> {
        Engine::with_workers(prototype.fork_clean()?, workers, config)
    }
}

/// Stable ordering rank for [`hardsnap_symex::BugKind`] (merge + digest
/// sort key, campaign manifest encoding).
pub(crate) fn kind_rank(kind: hardsnap_symex::BugKind) -> u8 {
    use hardsnap_symex::BugKind::*;
    match kind {
        AssertFailed => 0,
        FailHit => 1,
        Unmapped => 2,
        Unaligned => 3,
        IllegalInstruction => 4,
        Bus => 5,
        MmioByteAccess => 6,
    }
}

fn merge_metrics(into: &mut EngineMetrics, m: EngineMetrics) {
    into.context_switches += m.context_switches;
    into.snapshots_saved += m.snapshots_saved;
    into.snapshots_restored += m.snapshots_restored;
    into.reboots += m.reboots;
    into.replayed_ios += m.replayed_ios;
    into.paths_completed += m.paths_completed;
    into.states_dropped += m.states_dropped;
    into.irqs_delivered += m.irqs_delivered;
    into.quanta += m.quanta;
}
