//! The campaign daemon: admission control, budget-aware priority
//! scheduling over a bounded replica pool, a warm replica pool for
//! fast job starts, watchdog cancellation, crash-safe journaling and
//! restart recovery.
//!
//! ## State machine
//!
//! `submit` → admission check (pool + bounded queue) → journal
//! `jobs/<id>/job.json` (crash-atomic, **before** the ack) → `Queued` →
//! scheduler grants `workers` replicas → `Running` (leg loop in
//! [`crate::runner`], re-committing the one-file checkpoint
//! `jobs/<id>/checkpoint/campaign.hscamp` every leg) → terminal verdict
//! → `result.json` (crash-atomic) → `Done`. A queued job cancelled
//! before it seats takes the same terminal commit.
//!
//! ## Scheduling
//!
//! Two policies ([`SchedPolicy`]):
//!
//! * **`Fifo`** — strict admission order, head-of-line blocks. The
//!   reference policy: simple, starvation-free, and the digest oracle
//!   for the invariance tests.
//! * **`Lanes`** (default) — each job queues in a priority lane (its
//!   spec's `priority`, 0–7). The scheduler ranks waiting jobs by
//!   *effective priority* `lane × aging_ms + waited_ms`, so a high
//!   lane wins now but every lane's urgency grows with wall time — a
//!   lane-0 job outranks a fresh lane-7 job after `7 × aging_ms` of
//!   waiting, so no job starves. **Packing:** a narrow job may bypass
//!   an unseatable wide job ranked above it — unless that wide job has
//!   waited ≥ 4×`aging_ms`, at which point packing stops and the pool
//!   drains until the starved job seats (bounded bypass, not livelock).
//!
//! Either way, scheduling decides *when* a job runs, never *what* it
//! computes: per-job canonical digests are bit-identical under any
//! policy and any interleaving (pinned by tests and `exp_sched`).
//!
//! ## Warm replica pool
//!
//! With `warm_pool > 0` the daemon keeps a [`crate::pool::WarmPool`]
//! of pre-built prototypes. The scheduler leases one at seat time
//! (provenance `"warm"`); the job forks every replica from it, skipping
//! the SoC parse + elaborate + bytecode compile that dominates cold
//! start. A miss (every prototype leased or still building) makes the
//! job build its own prototype at start (`"cold"`) — latency, never
//! correctness. The run thread returns its lease before it frees its
//! replicas, so a job seated on the freed replicas finds a prototype.
//!
//! ## Crash safety
//!
//! Every transition the daemon must not forget is a crash-atomic file
//! write, ordered so a `kill -9` at any instant leaves a recoverable
//! state directory:
//!
//! * a job with `job.json` but no `result.json` is re-enqueued on
//!   restart and resumes from its last checkpointed leg;
//! * a job with `result.json` is terminal and is reported as-is;
//! * a half-written anything cannot exist: every durable file goes
//!   through [`write_atomic`] (tmp + fsync + rename), and a checkpoint
//!   is one file, so a crash mid-save leaves the previous leg whole.
//!
//! Because the leg runner re-derives all progress from the checkpoint,
//! a recovered campaign finishes with a canonical digest bit-identical
//! to an uninterrupted run — the property `exp_serve` and the CI serve
//! gate assert end to end.

use crate::events::{EventBody, EventBus, Subscription};
use crate::job::{DaemonStats, JobSpec, JobState, JobSummary, Verdict, MAX_LANE};
use crate::pool::WarmPool;
use crate::proto::{read_line, write_line, Request, Response};
use crate::runner;
use crate::{digest_hex, ServeError};
use hardsnap::{CancelToken, StopReason};
use hardsnap_bus::persist::write_atomic;
use hardsnap_telemetry::{
    prometheus_text, Counter, FlightRecorder, Metric, MetricsSnapshot, Recorder,
};
use hardsnap_util::json::{parse, Value};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Cap on merged per-job spans kept in memory: beyond this, the oldest
/// spans are shed (counters and histograms are unaffected — only the
/// Chrome trace loses tail history).
const JOB_SPAN_CAP: usize = 65_536;

/// Which order the scheduler grants replicas in. Never affects any
/// job's canonical digest — only when it runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict admission order; an unseatable head blocks the queue.
    /// The reference ordering for digest-invariance checks.
    Fifo,
    /// Priority lanes with aging and bounded packing (see the module
    /// docs). The default.
    Lanes,
}

impl SchedPolicy {
    /// Stable wire/CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Lanes => "lanes",
        }
    }

    /// Parses a CLI name (`fifo` | `lanes`).
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s {
            "fifo" => Some(SchedPolicy::Fifo),
            "lanes" => Some(SchedPolicy::Lanes),
            _ => None,
        }
    }
}

/// Daemon tuning.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// State directory: `jobs/<id>/{job.json, checkpoint/, result.json}`.
    pub state_dir: PathBuf,
    /// Total target replicas in the pool. A job consumes `workers`
    /// replicas while running.
    pub pool_replicas: usize,
    /// Bounded submission queue: jobs admitted but not yet granted
    /// replicas. Submissions past this bound get
    /// [`ServeError::Saturated`].
    pub queue_max: usize,
    /// Grace period past a job's wall deadline before the watchdog
    /// force-cancels it (the engine normally stops itself at the first
    /// quantum boundary past the deadline; the watchdog is the backstop
    /// for a wedged leg).
    pub watchdog_grace: Duration,
    /// Enable per-job engine telemetry (per-leg metric snapshots, the
    /// `metrics` verb's per-job detail, `jobs/<id>/metrics.json` and
    /// the Chrome trace). Observe-only: digests are unaffected either
    /// way.
    pub observe: bool,
    /// Bound on each `subscribe` client's event queue. A subscriber
    /// that falls further behind sheds its oldest events (counted);
    /// the runner never blocks on it.
    pub event_queue_cap: usize,
    /// Flight-recorder ring size (most recent events kept for the
    /// post-mortem `flight.json`).
    pub flight_capacity: usize,
    /// Prototypes to keep pre-built (0 = no warm pool; every job
    /// builds its own).
    pub warm_pool: usize,
    /// Scheduling policy (see [`SchedPolicy`]).
    pub sched: SchedPolicy,
    /// Lane aging quantum, ms: one lane level of priority equals this
    /// much waiting. Smaller = fairness dominates sooner.
    pub aging_ms: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            state_dir: PathBuf::from("hardsnap-serve-state"),
            pool_replicas: 4,
            queue_max: 8,
            watchdog_grace: Duration::from_millis(250),
            observe: true,
            event_queue_cap: 1024,
            flight_capacity: 4096,
            warm_pool: 0,
            sched: SchedPolicy::Lanes,
            aging_ms: 500,
        }
    }
}

struct Job {
    spec: JobSpec,
    state: JobState,
    verdict: Option<Verdict>,
    stop: Option<StopReason>,
    digest: Option<u64>,
    instructions: u64,
    vtime_ns: u64,
    quanta: u64,
    paths: u64,
    bugs: u64,
    /// Per-leg engine telemetry merged over the job's lifetime (empty
    /// when the daemon runs unobserved).
    telemetry: MetricsSnapshot,
    cancel: CancelToken,
    submitted_at: Instant,
    started_at: Option<Instant>,
    /// Absolute wall deadline (watchdog backstop); `None` = none.
    deadline: Option<Instant>,
    queue_wait_ms: u64,
    run_ms: u64,
    /// Priority lane (clamped spec priority).
    lane: u64,
    /// `"warm"` / `"cold"` once seated; `None` while queued.
    provenance: Option<String>,
    /// Warm-pool lease, held from seat time until the run thread
    /// finishes (its drop returns the prototype to the pool).
    lease: Option<crate::pool::Lease>,
}

/// `used/cap` in permille, saturating at 1000; 0 for unbudgeted.
fn frac_permille(used: u64, cap: u64) -> u64 {
    if cap == 0 {
        0
    } else {
        (used.saturating_mul(1000) / cap).min(1000)
    }
}

impl Job {
    /// Budget consumed: the max over every configured budget, permille.
    fn budget_permille(&self) -> u64 {
        let wall_used = match (self.spec.wall_ms, self.started_at) {
            (ms, Some(t)) if ms > 0 && self.state == JobState::Running => {
                t.elapsed().as_millis() as u64
            }
            (ms, _) if ms > 0 => self.run_ms,
            _ => 0,
        };
        frac_permille(self.instructions, self.spec.max_instructions)
            .max(frac_permille(self.vtime_ns, self.spec.max_vtime_ns))
            .max(frac_permille(self.quanta, self.spec.max_quanta))
            .max(frac_permille(wall_used, self.spec.wall_ms))
    }

    fn summary(&self, id: u64) -> JobSummary {
        JobSummary {
            id,
            name: self.spec.name.clone(),
            state: self.state.clone(),
            verdict: self.verdict.clone(),
            stop: self.stop,
            digest: self.digest.map(digest_hex),
            instructions: self.instructions,
            vtime_ns: self.vtime_ns,
            quanta: self.quanta,
            paths: self.paths,
            bugs: self.bugs,
            budget_permille: self.budget_permille(),
            // Live while queued (so `top` can show queue age), frozen
            // at seat time otherwise.
            queue_wait_ms: if self.state == JobState::Queued {
                self.submitted_at.elapsed().as_millis() as u64
            } else {
                self.queue_wait_ms
            },
            run_ms: self.run_ms,
            lane: self.lane,
            provenance: self.provenance.clone(),
        }
    }
}

struct Inner {
    jobs: BTreeMap<u64, Job>,
    /// FIFO of `Queued` job ids waiting for replicas.
    queue: VecDeque<u64>,
    /// Replicas currently granted to `Running` jobs.
    running_replicas: usize,
    next_id: u64,
    shutting_down: bool,
}

/// The campaign service. Wrap in an [`Arc`] and share between the
/// socket loop, job threads and the watchdog.
pub struct Daemon {
    cfg: DaemonConfig,
    inner: Mutex<Inner>,
    /// Signalled on every job state change (used by `wait_idle` and
    /// tests).
    changed: Condvar,
    rec: Recorder,
    /// Fan-out of lifecycle events to `subscribe` clients.
    bus: EventBus,
    /// Ring of recent events for the post-mortem `flight.json`.
    flight: FlightRecorder,
    /// Warm replica pool (`Some` when `warm_pool > 0`).
    pool: Option<WarmPool>,
    /// Daemon birth; event timestamps are ms since this instant.
    started: Instant,
}

impl Daemon {
    /// Creates the daemon, its state directory, and an enabled
    /// telemetry recorder for admission/queue metrics.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the state directory cannot be created.
    pub fn new(cfg: DaemonConfig) -> Result<Arc<Daemon>, ServeError> {
        std::fs::create_dir_all(cfg.state_dir.join("jobs"))
            .map_err(|e| ServeError::Io(format!("{}: {e}", cfg.state_dir.display())))?;
        let flight_capacity = cfg.flight_capacity;
        let rec = Recorder::enabled(0, "serve");
        // The pool builds its prototypes on background threads;
        // Daemon::new never waits for them.
        let pool = (cfg.warm_pool > 0).then(|| WarmPool::new(cfg.warm_pool, rec.clone()));
        Ok(Arc::new(Daemon {
            cfg,
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                running_replicas: 0,
                next_id: 1,
                shutting_down: false,
            }),
            changed: Condvar::new(),
            rec,
            bus: EventBus::new(),
            flight: FlightRecorder::new(flight_capacity),
            pool,
            started: Instant::now(),
        }))
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.cfg.state_dir.join("jobs").join(id.to_string())
    }

    /// Milliseconds since the daemon started (event timestamp base).
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Publishes one lifecycle event to subscribers and the flight
    /// recorder. Never blocks: slow subscribers shed oldest events.
    /// Callers must NOT hold the inner lock (no need — events carry
    /// their payload).
    fn emit(&self, body: EventBody) {
        let ts = self.now_ms();
        let kind = body.kind();
        let (_, dropped) = self.bus.publish(ts, body.clone());
        self.rec.count(Counter::ServeEventsPublished);
        for _ in 0..dropped {
            self.rec.count(Counter::ServeEventsDropped);
        }
        let ev = crate::events::Event {
            seq: 0, // flight entries are sequenced by the ring itself
            ts_ms: ts,
            dropped: 0,
            body,
        };
        self.flight.push(ts, kind, ev.to_value().to_json());
    }

    /// Crash-atomic journal write, with the fsync+rename latency
    /// recorded in the `serve.journal_fsync_us` histogram.
    fn journal_write(&self, path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
        let t0 = Instant::now();
        let r = write_atomic(path, bytes).map_err(ServeError::from);
        self.rec
            .observe(Metric::ServeJournalFsyncUs, t0.elapsed().as_micros() as u64);
        r
    }

    /// Admits a job or rejects it with the typed [`ServeError::Saturated`].
    /// The job is journaled to `job.json` **before** this returns: an
    /// acknowledged submission survives any crash.
    ///
    /// # Errors
    ///
    /// [`ServeError::Saturated`] when the pool + queue cannot take the
    /// job; [`ServeError::Io`] if the journal write fails (the job is
    /// then *not* admitted).
    pub fn submit(self: &Arc<Daemon>, spec: JobSpec) -> Result<u64, ServeError> {
        let (id, name, workers, lane) = {
            let mut g = self.inner.lock().unwrap();
            if g.shutting_down {
                self.rec.count(Counter::JobsRejected);
                return Err(ServeError::Saturated {
                    reason: "daemon is shutting down".into(),
                });
            }
            if spec.workers > self.cfg.pool_replicas {
                self.rec.count(Counter::JobsRejected);
                return Err(ServeError::Saturated {
                    reason: format!(
                        "job wants {} replicas but the pool holds {}",
                        spec.workers, self.cfg.pool_replicas
                    ),
                });
            }
            // A job the scheduler can start right now never counts
            // against the queue bound — the bound limits *waiting*
            // work, not throughput.
            let starts_now =
                g.queue.is_empty() && g.running_replicas + spec.workers <= self.cfg.pool_replicas;
            if !starts_now && g.queue.len() >= self.cfg.queue_max {
                self.rec.count(Counter::JobsRejected);
                return Err(ServeError::Saturated {
                    reason: format!(
                        "queue full ({} waiting, max {})",
                        g.queue.len(),
                        self.cfg.queue_max
                    ),
                });
            }
            let id = g.next_id;
            g.next_id += 1;
            // Journal before ack — drop the lock guard state only after
            // the job is durable.
            let dir = self.job_dir(id);
            std::fs::create_dir_all(&dir)
                .map_err(|e| ServeError::Io(format!("{}: {e}", dir.display())))?;
            self.journal_write(&dir.join("job.json"), spec.to_value().to_json().as_bytes())?;
            let name = spec.name.clone();
            let workers = spec.workers as u64;
            let lane = spec.priority.min(MAX_LANE);
            g.jobs.insert(
                id,
                Job {
                    spec,
                    state: JobState::Queued,
                    verdict: None,
                    stop: None,
                    digest: None,
                    instructions: 0,
                    vtime_ns: 0,
                    quanta: 0,
                    paths: 0,
                    bugs: 0,
                    telemetry: MetricsSnapshot::empty(),
                    cancel: CancelToken::new(),
                    submitted_at: Instant::now(),
                    started_at: None,
                    deadline: None,
                    queue_wait_ms: 0,
                    run_ms: 0,
                    lane,
                    provenance: None,
                    lease: None,
                },
            );
            g.queue.push_back(id);
            self.rec.count(Counter::JobsAdmitted);
            self.rec
                .observe(Metric::ServeQueueDepth, g.queue.len() as u64);
            (id, name, workers, lane)
        };
        self.emit(EventBody::Admitted {
            id,
            name,
            workers,
            lane,
        });
        self.schedule();
        Ok(id)
    }

    /// Picks the next queued job the scheduler may seat given `free`
    /// replicas, or `None` when nothing can (or may) start. Caller
    /// holds the inner lock.
    fn pick_next(&self, g: &Inner, free: usize) -> Option<u64> {
        match self.cfg.sched {
            SchedPolicy::Fifo => {
                // Strict admission order; an unseatable head blocks.
                let &id = g.queue.front()?;
                (g.jobs[&id].spec.workers <= free).then_some(id)
            }
            SchedPolicy::Lanes => {
                let aging = self.cfg.aging_ms.max(1);
                // Effective priority: one lane level ≡ `aging` ms of
                // waiting, so every lane's urgency grows with time.
                let mut ranked: Vec<(u64, u64, u64)> = g
                    .queue
                    .iter()
                    .map(|&id| {
                        let j = &g.jobs[&id];
                        let waited = j.submitted_at.elapsed().as_millis() as u64;
                        (
                            j.lane.saturating_mul(aging).saturating_add(waited),
                            waited,
                            id,
                        )
                    })
                    .collect();
                ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.2.cmp(&b.2)));
                for (_, waited, id) in ranked {
                    if g.jobs[&id].spec.workers <= free {
                        return Some(id); // packing: first seatable in rank order
                    }
                    if waited >= 4 * aging {
                        // Starvation guard: a long-waiting unseatable
                        // job stops packing — the pool must drain
                        // until it fits (admission guarantees workers
                        // ≤ pool_replicas, so it eventually does).
                        return None;
                    }
                }
                None
            }
        }
    }

    /// Grants replicas to queued jobs (policy order, see
    /// [`SchedPolicy`]) and spawns their run threads. Called after
    /// every admission and every completion. Seating a job also leases
    /// a warm-pool prototype when one is ready — the pool mutex is a
    /// leaf lock, safe to take under the inner lock.
    fn schedule(self: &Arc<Daemon>) {
        loop {
            let (id, source) = {
                let mut g = self.inner.lock().unwrap();
                let free = self.cfg.pool_replicas - g.running_replicas;
                let Some(id) = self.pick_next(&g, free) else {
                    break;
                };
                let workers = g.jobs[&id].spec.workers;
                if let Some(pos) = g.queue.iter().position(|&q| q == id) {
                    g.queue.remove(pos);
                }
                g.running_replicas += workers;
                let lease = self.pool.as_ref().and_then(|p| p.try_lease());
                let source = if lease.is_some() { "warm" } else { "cold" };
                let job = g.jobs.get_mut(&id).unwrap();
                job.state = JobState::Running;
                job.queue_wait_ms = job.submitted_at.elapsed().as_millis() as u64;
                job.started_at = Some(Instant::now());
                job.provenance = Some(source.to_string());
                job.lease = lease;
                if job.spec.wall_ms > 0 {
                    job.deadline = Some(Instant::now() + Duration::from_millis(job.spec.wall_ms));
                }
                self.rec
                    .observe(Metric::ServeQueueWaitMs, job.queue_wait_ms);
                self.rec
                    .observe(Metric::queue_wait_lane(job.lane), job.queue_wait_ms);
                (id, source)
            };
            self.changed.notify_all();
            self.emit(EventBody::Started {
                id,
                source: source.to_string(),
            });
            let me = Arc::clone(self);
            std::thread::spawn(move || me.run_job_thread(id));
        }
    }

    fn run_job_thread(self: Arc<Daemon>, id: u64) {
        let (spec, cancel, lease) = {
            let mut g = self.inner.lock().unwrap();
            let j = g.jobs.get_mut(&id).unwrap();
            (j.spec.clone(), j.cancel.clone(), j.lease.take())
        };
        let dir = self.job_dir(id);
        let started = Instant::now();
        let me = &self;
        let observe = self.cfg.observe;
        // Replicas fork from the leased prototype, or from one the
        // runner builds when the job was seated cold; forks are power-on
        // replicas, so warm and cold runs digest identically.
        let outcome = runner::run_job(
            &spec,
            &dir.join("checkpoint"),
            &cancel,
            observe,
            lease.as_ref().map(|l| l.prototype()),
            &mut |r| {
                // Each leg is a fresh engine, so counters in
                // `r.telemetry` are per-leg deltas while
                // instructions/vtime/quanta are cumulative (resumed
                // from the checkpoint). Derive events under the lock,
                // publish after releasing it.
                let mut events: Vec<EventBody> = Vec::new();
                {
                    let mut g = me.inner.lock().unwrap();
                    if let Some(j) = g.jobs.get_mut(&id) {
                        j.instructions = r.instructions;
                        j.vtime_ns = r.hw_virtual_time_ns;
                        j.quanta = r.metrics.quanta;
                        j.paths = r.metrics.paths_completed;
                        j.bugs = r.bugs.len() as u64;
                        events.push(EventBody::Heartbeat {
                            id,
                            instructions: j.instructions,
                            vtime_ns: j.vtime_ns,
                            quanta: j.quanta,
                            paths: j.paths,
                            bugs: j.bugs,
                            budget_permille: j.budget_permille(),
                        });
                        if !matches!(r.stop, StopReason::Complete | StopReason::Paths) {
                            events.push(EventBody::Checkpoint {
                                id,
                                instructions: j.instructions,
                            });
                        }
                        if r.faults.recovered > 0 {
                            events.push(EventBody::FaultRecovered {
                                id,
                                recovered: r.faults.recovered,
                            });
                        }
                        if r.faults.quarantined > 0 {
                            events.push(EventBody::Quarantine {
                                id,
                                quarantined: r.faults.quarantined,
                            });
                        }
                        if let Some(t) = &r.telemetry {
                            let spills = t.counter("store_spills");
                            let page_ins = t.counter("store_page_ins");
                            if spills > 0 || page_ins > 0 {
                                events.push(EventBody::Spill {
                                    id,
                                    spills,
                                    page_ins,
                                });
                            }
                            j.telemetry.merge(t.clone());
                            if j.telemetry.spans.len() > JOB_SPAN_CAP {
                                let excess = j.telemetry.spans.len() - JOB_SPAN_CAP;
                                j.telemetry.spans.drain(..excess);
                            }
                        }
                    }
                }
                for body in events {
                    me.emit(body);
                }
                me.changed.notify_all();
            },
        );
        // Return the prototype before freeing the replicas, so the job
        // the scheduler seats on them can lease it.
        drop(lease);
        let (summary, telemetry) = {
            let mut g = self.inner.lock().unwrap();
            g.running_replicas -= spec.workers;
            let job = g.jobs.get_mut(&id).unwrap();
            job.run_ms = started.elapsed().as_millis() as u64;
            match outcome {
                Ok(o) => {
                    job.verdict = Some(o.verdict.clone());
                    job.stop = Some(o.stop);
                    job.digest = Some(o.digest);
                    job.instructions = o.instructions;
                    job.paths = o.paths;
                    job.bugs = o.bugs;
                    if matches!(o.verdict, Verdict::Cancelled) {
                        self.rec.count(Counter::JobsCancelled);
                    }
                }
                Err(e) => job.verdict = Some(Verdict::Error(e.to_string())),
            }
            self.rec.count(Counter::JobsCompleted);
            let telemetry = if job.telemetry == MetricsSnapshot::empty() {
                None
            } else {
                Some(job.telemetry.clone())
            };
            (job.summary(id), telemetry)
        };
        // Per-job observability artifacts land before the terminal
        // commit: if the daemon dies between them, the re-run rewrites
        // both.
        if let Some(t) = telemetry {
            let _ = write_atomic(&dir.join("metrics.json"), t.metrics_json().as_bytes());
            let _ = write_atomic(&dir.join("trace.json"), t.chrome_trace_json().as_bytes());
        }
        // Until result.json exists, a restart re-runs the job from its
        // checkpoint.
        self.commit_terminal(id, summary);
        self.schedule();
    }

    /// The terminal commit, in this order: `result.json` lands
    /// crash-atomically, then the job turns `Done` in memory, then
    /// `Terminal` is published. Whoever observes `Done` (`status`,
    /// `wait`, [`Daemon::wait_idle`], a restart) finds `result.json`.
    fn commit_terminal(&self, id: u64, mut summary: JobSummary) {
        summary.state = JobState::Done;
        let _ = self.journal_write(
            &self.job_dir(id).join("result.json"),
            summary.to_value().to_json().as_bytes(),
        );
        self.inner.lock().unwrap().jobs.get_mut(&id).unwrap().state = JobState::Done;
        self.emit(EventBody::Terminal {
            id,
            verdict: summary
                .verdict
                .as_ref()
                .map(|v| v.as_str().to_string())
                .unwrap_or_default(),
            stop: summary.stop.map(|s| s.as_str().to_string()),
            digest: summary.digest.clone(),
            exit_code: summary
                .verdict
                .as_ref()
                .map(|v| u64::from(v.exit_code()))
                .unwrap_or(1),
        });
        self.changed.notify_all();
    }

    /// Cooperatively cancels a job. Queued jobs terminalize
    /// immediately; running jobs stop at their next quantum boundary
    /// with a valid checkpoint.
    ///
    /// # Errors
    ///
    /// [`ServeError::Job`] for an unknown id.
    pub fn cancel(self: &Arc<Daemon>, id: u64) -> Result<(), ServeError> {
        let summary = {
            let mut g = self.inner.lock().unwrap();
            let Some(job) = g.jobs.get_mut(&id) else {
                return Err(ServeError::Job(format!("unknown job {id}")));
            };
            match job.state {
                JobState::Done => return Ok(()), // idempotent
                JobState::Running => {
                    job.cancel.cancel();
                    self.rec.count(Counter::JobsCancelled);
                    return Ok(());
                }
                // A verdict on a queued job means a cancel is already
                // committing it.
                JobState::Queued if job.verdict.is_some() => return Ok(()),
                JobState::Queued => {
                    job.verdict = Some(Verdict::Cancelled);
                    job.queue_wait_ms = job.submitted_at.elapsed().as_millis() as u64;
                    let summary = job.summary(id);
                    g.queue.retain(|&q| q != id);
                    self.rec.count(Counter::JobsCancelled);
                    summary
                }
            }
        };
        self.commit_terminal(id, summary);
        Ok(())
    }

    /// Summaries for one job or the whole table (admission order).
    pub fn status(&self, id: Option<u64>) -> Vec<JobSummary> {
        let g = self.inner.lock().unwrap();
        match id {
            Some(id) => g.jobs.get(&id).map(|j| j.summary(id)).into_iter().collect(),
            None => g.jobs.iter().map(|(&id, j)| j.summary(id)).collect(),
        }
    }

    /// Daemon-wide occupancy (the `status` response's `daemon` object).
    pub fn daemon_stats(&self) -> DaemonStats {
        let (queue_depth, pool_busy) = {
            let g = self.inner.lock().unwrap();
            (g.queue.len() as u64, g.running_replicas as u64)
        };
        let warm = self.pool.as_ref().map(|p| p.stats()).unwrap_or_default();
        DaemonStats {
            queue_depth,
            pool_replicas: self.cfg.pool_replicas as u64,
            pool_busy,
            subscribers: self.bus.subscriber_count() as u64,
            events_published: self.bus.published(),
            events_dropped: self.bus.dropped(),
            warm_target: warm.target,
            warm_ready: warm.ready,
            warm_leased: warm.leased,
            warm_arming: warm.building,
        }
    }

    /// The daemon-wide aggregated metrics snapshot: the daemon's own
    /// recorder (admission, queue, journal fsync, watchdog, event-bus
    /// counters) merged with every job's engine telemetry
    /// (counters/histograms only — spans stay per-job, they'd swamp the
    /// wire) plus live occupancy gauges. Counts one `metrics` scrape.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.rec.count(Counter::ServeMetricsScrapes);
        let mut snap = self.rec.snapshot().unwrap_or_else(MetricsSnapshot::empty);
        {
            let g = self.inner.lock().unwrap();
            for job in g.jobs.values() {
                snap.merge(job.telemetry.counts_only());
            }
            snap.set_gauge("serve.queue_depth", g.queue.len() as u64);
            snap.set_gauge("serve.pool_replicas", self.cfg.pool_replicas as u64);
            snap.set_gauge("serve.pool_busy", g.running_replicas as u64);
            snap.set_gauge("serve.jobs_tracked", g.jobs.len() as u64);
        }
        snap.set_gauge("serve.subscribers", self.bus.subscriber_count() as u64);
        let warm = self.pool.as_ref().map(|p| p.stats()).unwrap_or_default();
        snap.set_gauge("serve.warm_target", warm.target);
        snap.set_gauge("serve.warm_ready", warm.ready);
        snap.set_gauge("serve.warm_leased", warm.leased);
        snap.set_gauge("serve.warm_arming", warm.building);
        snap
    }

    /// Registers a live event subscriber (bounded queue; see
    /// [`DaemonConfig::event_queue_cap`]).
    pub fn subscribe(&self) -> Subscription {
        self.bus.subscribe(self.cfg.event_queue_cap)
    }

    /// Snapshot of the flight recorder as a JSON value (the
    /// `dump-flight` verb). Counts one dump.
    pub fn dump_flight_value(&self) -> Value {
        self.rec.count(Counter::ServeFlightDumps);
        self.flight.to_value()
    }

    /// Writes `flight.json` into the state directory (SIGTERM / panic
    /// path). Crash-atomic like every other daemon file.
    pub fn dump_flight_to_file(&self) -> Result<PathBuf, ServeError> {
        self.rec.count(Counter::ServeFlightDumps);
        let path = self.cfg.state_dir.join("flight.json");
        write_atomic(&path, self.flight.dump_json().as_bytes())?;
        Ok(path)
    }

    /// Asks the accept/stream loops to wind down (the `shutdown` verb's
    /// effect, callable from a signal watcher).
    pub fn request_shutdown(&self) {
        self.inner.lock().unwrap().shutting_down = true;
        self.changed.notify_all();
    }

    /// Scans the state directory and rebuilds the job table after a
    /// restart (or crash): terminal jobs (`result.json` present) are
    /// reported as-is; everything else is re-enqueued and resumes from
    /// its last checkpoint. Returns the number of re-enqueued jobs.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the jobs directory is unreadable;
    /// [`ServeError::Protocol`] on a corrupt journal file.
    pub fn recover(self: &Arc<Daemon>) -> Result<usize, ServeError> {
        let jobs_dir = self.cfg.state_dir.join("jobs");
        let mut found: Vec<(u64, JobSpec, Option<JobSummary>)> = Vec::new();
        let entries = std::fs::read_dir(&jobs_dir)
            .map_err(|e| ServeError::Io(format!("{}: {e}", jobs_dir.display())))?;
        for entry in entries.flatten() {
            let Ok(id) = entry.file_name().to_string_lossy().parse::<u64>() else {
                continue;
            };
            let read = |name: &str| -> Result<Option<String>, ServeError> {
                match std::fs::read_to_string(entry.path().join(name)) {
                    Ok(s) => Ok(Some(s)),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
                    Err(e) => Err(ServeError::Io(format!("job {id} {name}: {e}"))),
                }
            };
            let Some(job_json) = read("job.json")? else {
                continue; // directory created but journal never committed
            };
            let spec = JobSpec::from_value(
                &parse(&job_json)
                    .map_err(|e| ServeError::Protocol(format!("job {id} journal: {e}")))?,
            )?;
            let done = match read("result.json")? {
                Some(s) => {
                    Some(JobSummary::from_value(&parse(&s).map_err(|e| {
                        ServeError::Protocol(format!("job {id} result: {e}"))
                    })?)?)
                }
                None => None,
            };
            found.push((id, spec, done));
        }
        found.sort_by_key(|(id, _, _)| *id);
        let mut resumed = 0;
        {
            let mut g = self.inner.lock().unwrap();
            for (id, spec, done) in found {
                g.next_id = g.next_id.max(id + 1);
                let terminal = done.is_some();
                let lane = spec.priority.min(MAX_LANE);
                let job = Job {
                    spec,
                    state: if terminal {
                        JobState::Done
                    } else {
                        JobState::Queued
                    },
                    verdict: done.as_ref().and_then(|s| s.verdict.clone()),
                    stop: done.as_ref().and_then(|s| s.stop),
                    digest: None, // summaries carry it as hex; re-derived below
                    instructions: done.as_ref().map_or(0, |s| s.instructions),
                    vtime_ns: done.as_ref().map_or(0, |s| s.vtime_ns),
                    quanta: done.as_ref().map_or(0, |s| s.quanta),
                    paths: done.as_ref().map_or(0, |s| s.paths),
                    bugs: done.as_ref().map_or(0, |s| s.bugs),
                    telemetry: MetricsSnapshot::empty(),
                    cancel: CancelToken::new(),
                    submitted_at: Instant::now(),
                    started_at: None,
                    deadline: None,
                    queue_wait_ms: done.as_ref().map_or(0, |s| s.queue_wait_ms),
                    run_ms: done.as_ref().map_or(0, |s| s.run_ms),
                    lane,
                    provenance: done.as_ref().and_then(|s| s.provenance.clone()),
                    lease: None,
                };
                let job = Job {
                    digest: done
                        .as_ref()
                        .and_then(|s| s.digest.as_deref())
                        .and_then(parse_digest_hex),
                    ..job
                };
                g.jobs.insert(id, job);
                if !terminal {
                    g.queue.push_back(id);
                    resumed += 1;
                    self.rec.count(Counter::JobsRecovered);
                }
            }
        }
        self.schedule();
        Ok(resumed)
    }

    /// One watchdog sweep: force-cancels running jobs past their wall
    /// deadline plus the grace period. Returns how many were cancelled.
    /// The engine normally stops itself at the first quantum boundary
    /// past the deadline; this is the backstop for a wedged leg.
    pub fn watchdog_sweep(&self) -> usize {
        let hit_ids: Vec<u64> = {
            let g = self.inner.lock().unwrap();
            let now = Instant::now();
            g.jobs
                .iter()
                .filter(|(_, job)| {
                    job.state == JobState::Running
                        && job.deadline.is_some_and(|dl| {
                            now > dl + self.cfg.watchdog_grace && !job.cancel.is_cancelled()
                        })
                })
                .map(|(&id, job)| {
                    job.cancel.cancel();
                    id
                })
                .collect()
        };
        for &id in &hit_ids {
            self.rec.count(Counter::ServeWatchdogCancels);
            self.emit(EventBody::WatchdogCancel { id });
        }
        hit_ids.len()
    }

    /// Spawns the watchdog thread (sweeps every `period` until the
    /// daemon shuts down).
    pub fn spawn_watchdog(self: &Arc<Daemon>, period: Duration) {
        let me = Arc::clone(self);
        std::thread::spawn(move || loop {
            if me.inner.lock().unwrap().shutting_down {
                break;
            }
            me.watchdog_sweep();
            std::thread::sleep(period);
        });
    }

    /// Blocks until every job is `Done` (test / drain helper), or the
    /// timeout elapses. Returns `true` when idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.jobs.values().all(|j| j.state == JobState::Done) {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .changed
                .wait_timeout(g, left.min(Duration::from_millis(50)))
                .unwrap();
            g = guard;
        }
    }

    /// Blocks until at least `n` warm prototypes are built and ready.
    ///
    /// Returns `false` on timeout or when the daemon has no warm pool
    /// (`warm_pool: 0`) — callers that need a warm start must treat
    /// that as "cold builds only".
    pub fn wait_warm_ready(&self, n: usize, timeout: Duration) -> bool {
        match &self.pool {
            Some(p) => p.wait_ready(n, timeout),
            None => false,
        }
    }

    /// True once a shutdown request has been accepted.
    pub fn shutting_down(&self) -> bool {
        self.inner.lock().unwrap().shutting_down
    }

    /// Handles one request (shared by the socket and stdio fronts).
    pub fn handle(self: &Arc<Daemon>, req: Request) -> Response {
        match req {
            Request::Submit(spec) => match self.submit(spec) {
                Ok(id) => Response::Submitted { id },
                Err(e) => Response::from_error(&e),
            },
            Request::Status(id) => Response::Status {
                jobs: self.status(id),
                daemon: Some(self.daemon_stats()),
            },
            Request::Metrics => Response::Metrics(self.metrics_snapshot().to_value()),
            Request::DumpFlight => Response::Flight(self.dump_flight_value()),
            // `subscribe` flips the connection into streaming mode;
            // only serve_stream can do that. Reaching handle() means
            // the front-end cannot stream (shouldn't happen in-tree).
            Request::Subscribe => Response::Error {
                kind: "protocol".into(),
                message: "subscribe requires a streaming connection".into(),
            },
            Request::Cancel(id) => match self.cancel(id) {
                Ok(()) => Response::Cancelled { id },
                Err(ServeError::Job(m)) => Response::Error {
                    kind: "unknown-job".into(),
                    message: m,
                },
                Err(e) => Response::from_error(&e),
            },
            Request::Ping => Response::Pong,
            Request::Shutdown => {
                self.inner.lock().unwrap().shutting_down = true;
                self.changed.notify_all();
                Response::ShuttingDown
            }
        }
    }

    /// Serves one NDJSON stream until EOF or a shutdown request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on a broken stream (malformed requests get an
    /// error *response* and the stream continues).
    pub fn serve_stream(
        self: &Arc<Daemon>,
        r: &mut dyn BufRead,
        w: &mut dyn Write,
    ) -> Result<(), ServeError> {
        while let Some(v) = read_line(r)? {
            let req = Request::from_value(&v);
            if let Ok(Request::Subscribe) = req {
                return self.pump_events(w);
            }
            let resp = match req {
                Ok(req) => self.handle(req),
                Err(e) => Response::from_error(&e),
            };
            let done = matches!(resp, Response::ShuttingDown);
            write_line(w, &resp.to_value())?;
            if done {
                break;
            }
        }
        Ok(())
    }

    /// Streams events to one subscriber until it disconnects or the
    /// daemon shuts down. Idle periods are filled with blank keep-alive
    /// lines (which `read_line` skips) so a dead client surfaces as a
    /// write error instead of lingering forever.
    fn pump_events(self: &Arc<Daemon>, w: &mut dyn Write) -> Result<(), ServeError> {
        let sub = self.subscribe();
        write_line(w, &Response::Subscribed.to_value())?;
        loop {
            match sub.recv_timeout(Duration::from_millis(100)) {
                Some(ev) => write_line(w, &Response::Event(ev).to_value())?,
                None => {
                    if self.shutting_down() {
                        return Ok(());
                    }
                    w.write_all(b"\n")
                        .and_then(|()| w.flush())
                        .map_err(|e| ServeError::Io(format!("keepalive: {e}")))?;
                }
            }
        }
    }

    /// Binds `socket` (removing any stale file) and serves connections
    /// until a shutdown request arrives. Each connection gets its own
    /// thread; the accept loop polls so shutdown is prompt.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the socket cannot be bound.
    pub fn serve_unix(self: &Arc<Daemon>, socket: &Path) -> Result<(), ServeError> {
        let _ = std::fs::remove_file(socket);
        let listener = std::os::unix::net::UnixListener::bind(socket)
            .map_err(|e| ServeError::Io(format!("bind {}: {e}", socket.display())))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(format!("nonblocking: {e}")))?;
        loop {
            if self.shutting_down() {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let me = Arc::clone(self);
                    std::thread::spawn(move || {
                        let _ = stream.set_nonblocking(false);
                        let mut reader =
                            BufReader::new(stream.try_clone().expect("clone unix stream"));
                        let mut writer = stream;
                        let _ = me.serve_stream(&mut reader, &mut writer);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(ServeError::Io(format!("accept: {e}"))),
            }
        }
        let _ = std::fs::remove_file(socket);
        Ok(())
    }

    /// Binds a plain-TCP Prometheus exposition endpoint on `addr`
    /// (e.g. `127.0.0.1:0`) and serves it from a background thread
    /// until shutdown. Every request — the path is ignored — gets the
    /// current aggregated snapshot as text exposition format 0.0.4.
    /// Returns the bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the address cannot be bound.
    pub fn spawn_metrics_http(
        self: &Arc<Daemon>,
        addr: &str,
    ) -> Result<std::net::SocketAddr, ServeError> {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| ServeError::Io(format!("bind {addr}: {e}")))?;
        let bound = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(format!("nonblocking: {e}")))?;
        let me = Arc::clone(self);
        std::thread::spawn(move || loop {
            if me.shutting_down() {
                break;
            }
            match listener.accept() {
                Ok((mut stream, _)) => {
                    // One-shot exchange: read whatever request bytes
                    // arrive, answer, close. No keep-alive, no routing.
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                    let mut buf = [0u8; 1024];
                    let _ = std::io::Read::read(&mut stream, &mut buf);
                    let body = prometheus_text(&me.metrics_snapshot());
                    let resp = format!(
                        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    );
                    let _ = stream.write_all(resp.as_bytes());
                    let _ = stream.flush();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => break,
            }
        });
        Ok(bound)
    }
}

fn parse_digest_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hardsnap-daemon-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn daemon(name: &str, pool: usize, queue: usize) -> Arc<Daemon> {
        Daemon::new(DaemonConfig {
            state_dir: tmp(name),
            pool_replicas: pool,
            queue_max: queue,
            ..DaemonConfig::default()
        })
        .unwrap()
    }

    fn demo(name: &str) -> JobSpec {
        JobSpec {
            name: name.into(),
            firmware: "demo:3".into(),
            leg_instructions: 64,
            ..JobSpec::default()
        }
    }

    #[test]
    fn submit_runs_to_completion_with_result_file() {
        let d = daemon("complete", 2, 4);
        let id = d.submit(demo("a")).unwrap();
        assert!(d.wait_idle(Duration::from_secs(60)));
        let s = &d.status(Some(id))[0];
        assert_eq!(s.state, JobState::Done);
        assert_eq!(s.verdict, Some(Verdict::Completed));
        assert!(s.digest.is_some());
        assert!(d.job_dir(id).join("result.json").exists());
        let _ = std::fs::remove_dir_all(&d.cfg.state_dir);
    }

    #[test]
    fn saturation_is_a_typed_rejection() {
        let d = daemon("saturated", 1, 0);
        // Pool of 1, queue of 0: a job demanding 2 replicas can never run.
        let mut wide = demo("wide");
        wide.workers = 2;
        match d.submit(wide) {
            Err(ServeError::Saturated { reason }) => assert!(reason.contains("pool")),
            other => panic!("expected Saturated, got {other:?}"),
        }
        // First single-replica job occupies the pool; with queue_max=0
        // the next submission must be rejected, not queued.
        let mut slow = demo("slow");
        slow.leg_instructions = 16;
        let _id = d.submit(slow).unwrap();
        let mut saturated = false;
        for _ in 0..3 {
            match d.submit(demo("extra")) {
                Err(ServeError::Saturated { .. }) => {
                    saturated = true;
                    break;
                }
                Ok(_) => {
                    // The first job finished already; drain and retry.
                    d.wait_idle(Duration::from_secs(60));
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(d.wait_idle(Duration::from_secs(60)));
        if !saturated {
            // Machine too fast to catch the window — the typed path is
            // still covered by the workers>pool case above.
            eprintln!("note: queue-full window not observed");
        }
        let _ = std::fs::remove_dir_all(&d.cfg.state_dir);
    }

    #[test]
    fn concurrent_jobs_share_the_pool_and_all_finish() {
        let d = daemon("concurrent", 2, 8);
        let ids: Vec<u64> = (0..4)
            .map(|i| d.submit(demo(&format!("j{i}"))).unwrap())
            .collect();
        assert!(d.wait_idle(Duration::from_secs(120)));
        let digests: Vec<String> = ids
            .iter()
            .map(|&id| d.status(Some(id))[0].digest.clone().unwrap())
            .collect();
        // Identical specs ⇒ identical canonical digests, regardless of
        // scheduling interleavings.
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
        let _ = std::fs::remove_dir_all(&d.cfg.state_dir);
    }

    #[test]
    fn restart_recovers_terminal_and_pending_jobs() {
        let state = tmp("recover");
        let cfg = DaemonConfig {
            state_dir: state.clone(),
            pool_replicas: 1,
            queue_max: 8,
            ..DaemonConfig::default()
        };
        let d1 = Daemon::new(cfg.clone()).unwrap();
        let done_id = d1.submit(demo("done")).unwrap();
        assert!(d1.wait_idle(Duration::from_secs(60)));
        let done_digest = d1.status(Some(done_id))[0].digest.clone().unwrap();
        // Journal a second job by hand — as if the daemon died after the
        // ack but before (or during) the run.
        let pend_dir = state.join("jobs").join("2");
        std::fs::create_dir_all(&pend_dir).unwrap();
        write_atomic(
            &pend_dir.join("job.json"),
            demo("pending").to_value().to_json().as_bytes(),
        )
        .unwrap();
        drop(d1);

        let d2 = Daemon::new(cfg).unwrap();
        let resumed = d2.recover().unwrap();
        assert_eq!(resumed, 1, "only the unfinished job re-enqueues");
        assert!(d2.wait_idle(Duration::from_secs(60)));
        let s1 = &d2.status(Some(done_id))[0];
        assert_eq!(s1.digest.as_ref(), Some(&done_digest));
        let s2 = &d2.status(Some(2))[0];
        assert_eq!(s2.verdict, Some(Verdict::Completed));
        assert_eq!(
            s2.digest.as_ref(),
            Some(&done_digest),
            "recovered run must digest identically to an uninterrupted one"
        );
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn cancelling_a_queued_job_commits_result_json_before_done() {
        let state = tmp("cancel-queued");
        let cfg = DaemonConfig {
            state_dir: state.clone(),
            pool_replicas: 1,
            queue_max: 8,
            ..DaemonConfig::default()
        };
        let d1 = Daemon::new(cfg.clone()).unwrap();
        // A long job holds the only replica, so the next one queues.
        let mut long = demo("hold");
        long.firmware = "demo:6".into();
        long.leg_instructions = 16;
        let hold = d1.submit(long).unwrap();
        let queued = d1.submit(demo("queued")).unwrap();
        assert_eq!(d1.status(Some(queued))[0].state, JobState::Queued);
        // An observer that sees `Done` must find result.json.
        let result = d1.job_dir(queued).join("result.json");
        let watcher = {
            let (d, result) = (Arc::clone(&d1), result.clone());
            std::thread::spawn(move || {
                while d.status(Some(queued))[0].state != JobState::Done {
                    std::hint::spin_loop();
                }
                assert!(result.exists(), "Done published before result.json");
            })
        };
        d1.cancel(queued).unwrap();
        watcher.join().unwrap();
        let on_disk =
            JobSummary::from_value(&parse(&std::fs::read_to_string(&result).unwrap()).unwrap())
                .unwrap();
        assert_eq!(on_disk.verdict, Some(Verdict::Cancelled));
        assert_eq!(on_disk.verdict.unwrap().exit_code(), 4);
        d1.cancel(hold).unwrap();
        assert!(d1.wait_idle(Duration::from_secs(60)));
        drop(d1);

        // A restart keeps the job cancelled and never runs it.
        let d2 = Daemon::new(cfg).unwrap();
        assert_eq!(d2.recover().unwrap(), 0, "nothing to re-enqueue");
        assert!(d2.wait_idle(Duration::from_secs(60)));
        let s = &d2.status(Some(queued))[0];
        assert_eq!(
            (s.state.clone(), s.verdict.clone()),
            (JobState::Done, Some(Verdict::Cancelled))
        );
        assert!(!d2.job_dir(queued).join("checkpoint").exists());
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn lanes_and_packing_keep_digests_fifo_identical() {
        // The scheduling-invariance property: run the same
        // mixed-priority, mixed-width burst under strict FIFO and
        // under the lane scheduler (with packing and aging in play);
        // every job's canonical digest must be bit-identical. The
        // policy decides when a job runs, never what it computes.
        let specs: Vec<JobSpec> = (0..6)
            .map(|i| {
                let mut s = demo(&format!("m{i}"));
                s.priority = (i * 3) % 8;
                s.workers = 1 + (i as usize % 2);
                s
            })
            .collect();
        let run = |sched: SchedPolicy, name: &str| -> Vec<(String, String)> {
            let d = Daemon::new(DaemonConfig {
                state_dir: tmp(name),
                pool_replicas: 2,
                queue_max: 16,
                sched,
                aging_ms: 20,
                ..DaemonConfig::default()
            })
            .unwrap();
            let ids: Vec<u64> = specs.iter().map(|s| d.submit(s.clone()).unwrap()).collect();
            assert!(d.wait_idle(Duration::from_secs(120)));
            let out = ids
                .iter()
                .map(|&id| {
                    let s = &d.status(Some(id))[0];
                    assert_eq!(s.verdict, Some(Verdict::Completed));
                    (s.name.clone(), s.digest.clone().unwrap())
                })
                .collect();
            let _ = std::fs::remove_dir_all(&d.cfg.state_dir);
            out
        };
        let fifo = run(SchedPolicy::Fifo, "inv-fifo");
        let lanes = run(SchedPolicy::Lanes, "inv-lanes");
        assert_eq!(fifo, lanes, "scheduling order must never change digests");
    }

    #[test]
    fn starved_wide_job_eventually_seats_under_pressure() {
        // A lane-0 job needing the whole pool, against a stream of
        // lane-7 narrow jobs that pure packing would seat around it
        // forever. The 4×aging starvation guard must stop packing and
        // drain the pool until the wide job fits.
        let d = Daemon::new(DaemonConfig {
            state_dir: tmp("aging"),
            pool_replicas: 2,
            queue_max: 4,
            sched: SchedPolicy::Lanes,
            aging_ms: 10, // tiny, so the guard trips within the test
            ..DaemonConfig::default()
        })
        .unwrap();
        let mut wide = demo("wide");
        wide.workers = 2;
        wide.priority = 0;
        let wide_id = d.submit(wide).unwrap();
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut spawned = 0u64;
        loop {
            let s = &d.status(Some(wide_id))[0];
            if s.state != JobState::Queued {
                break;
            }
            assert!(Instant::now() < deadline, "wide job starved");
            let mut narrow = demo(&format!("narrow{spawned}"));
            narrow.priority = 7;
            let _ = d.submit(narrow); // Saturated is fine — queue is bounded
            spawned += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(d.wait_idle(Duration::from_secs(120)));
        let s = &d.status(Some(wide_id))[0];
        assert_eq!(s.verdict, Some(Verdict::Completed));
        assert_eq!(s.lane, 0);
        let _ = std::fs::remove_dir_all(&d.cfg.state_dir);
    }

    #[test]
    fn warm_pool_provenance_and_digest_parity_with_cold() {
        // A warm-pool daemon must report pool-hit provenance and
        // produce digests bit-identical to a cold-boot daemon's.
        let d = Daemon::new(DaemonConfig {
            state_dir: tmp("warm"),
            pool_replicas: 2,
            queue_max: 8,
            warm_pool: 2,
            ..DaemonConfig::default()
        })
        .unwrap();
        let p = d.pool.as_ref().unwrap();
        assert!(p.wait_ready(1, Duration::from_secs(120)), "{:?}", p.stats());
        let id = d.submit(demo("w")).unwrap();
        assert!(d.wait_idle(Duration::from_secs(120)));
        let s = &d.status(Some(id))[0];
        assert_eq!(s.provenance.as_deref(), Some("warm"));
        let warm_digest = s.digest.clone().unwrap();
        let stats = d.daemon_stats();
        assert_eq!(stats.warm_target, 2);
        // The job returned its lease before it went terminal.
        assert_eq!(stats.warm_leased, 0);
        // The second prototype builds on its own thread, which a short
        // job can outrun; once it is built both are ready.
        assert!(p.wait_ready(2, Duration::from_secs(120)), "{:?}", p.stats());
        let stats = d.daemon_stats();
        assert_eq!(
            (stats.warm_ready, stats.warm_leased, stats.warm_arming),
            (2, 0, 0)
        );
        // Prototypes live in memory only: the state directory holds
        // nothing but the job journal.
        let entries: Vec<_> = std::fs::read_dir(&d.cfg.state_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries, ["jobs"]);

        let d2 = daemon("warm-cold-ref", 2, 8);
        let id2 = d2.submit(demo("w")).unwrap();
        assert!(d2.wait_idle(Duration::from_secs(120)));
        let s2 = &d2.status(Some(id2))[0];
        assert_eq!(s2.provenance.as_deref(), Some("cold"));
        assert_eq!(
            s2.digest.clone().unwrap(),
            warm_digest,
            "warm and cold replicas must digest identically"
        );
        let _ = std::fs::remove_dir_all(&d.cfg.state_dir);
        let _ = std::fs::remove_dir_all(&d2.cfg.state_dir);
    }

    #[test]
    fn stream_protocol_round_trips_submit_status_shutdown() {
        let d = daemon("stream", 2, 4);
        let input = format!(
            "{}\n{}\n{}\n",
            Request::Submit(demo("s")).to_value().to_json(),
            Request::Status(None).to_value().to_json(),
            Request::Shutdown.to_value().to_json(),
        );
        let mut out = Vec::new();
        let mut reader = BufReader::new(input.as_bytes());
        d.serve_stream(&mut reader, &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        let submitted = Response::from_value(&parse(lines[0]).unwrap()).unwrap();
        assert!(matches!(submitted, Response::Submitted { id: 1 }));
        assert!(d.shutting_down());
        assert!(d.wait_idle(Duration::from_secs(60)));
        let _ = std::fs::remove_dir_all(&d.cfg.state_dir);
    }
}
