//! Job specifications, budgets and verdicts — the unit of work the
//! daemon schedules, journals and reports.

use crate::{digest_hex, ServeError};
use hardsnap::{RunResult, StopReason};
use hardsnap_util::json::Value;
use std::collections::BTreeMap;

/// Highest priority lane (lanes are `0..=MAX_LANE`, higher = sooner).
pub const MAX_LANE: u64 = 7;
/// Lane a submission lands in when it names none.
pub const DEFAULT_LANE: u64 = 3;

/// What a client asks the daemon to run: one analysis campaign over the
/// built-in SoC, with hard budgets. Every budget of 0 means
/// "unbudgeted" on the wire (and maps to `u64::MAX` engine-side), so a
/// minimal submission is just a firmware spec.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Human-readable label.
    pub name: String,
    /// Firmware spec: `demo:K` (the built-in branching firmware with
    /// 2^K paths).
    pub firmware: String,
    /// Worker threads = target replicas this job consumes from the
    /// daemon's pool (admission weight). Clamped to ≥ 1.
    pub workers: usize,
    /// Fault-injection rate on the replica link (0.0 = honest).
    pub fault_rate: f64,
    /// Fault plan seed.
    pub fault_seed: u64,
    /// Delta (O(changed)) snapshot captures.
    pub delta_snapshots: bool,
    /// Instruction budget (0 = unlimited).
    pub max_instructions: u64,
    /// Hardware virtual-time budget in ns (0 = unlimited).
    pub max_vtime_ns: u64,
    /// Scheduling-quantum budget (0 = unlimited).
    pub max_quanta: u64,
    /// Wall-clock deadline in ms from job start (0 = none). One
    /// deadline per job: the engine stops every leg and every repeat
    /// attempt at the first quantum boundary past it.
    pub wall_ms: u64,
    /// Resident-byte budget for the job's snapshot store (0 = none).
    pub snapshot_mem_budget: u64,
    /// Flaky detection: after the job completes, re-execute it this
    /// many times total with re-seeded fault plans and compare
    /// canonical digests (0 or 1 = off).
    pub repeat: u32,
    /// Instructions per leg between crash-safe checkpoints (0 = the
    /// default, 4096). Smaller legs bound how much work a `kill -9`
    /// can lose.
    pub leg_instructions: u64,
    /// Priority lane, `0..=7` (higher = scheduled sooner; aging
    /// guarantees low lanes still run). Affects *when* the job starts,
    /// never its canonical digest.
    pub priority: u64,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            name: String::new(),
            firmware: "demo:3".into(),
            workers: 1,
            fault_rate: 0.0,
            fault_seed: 1,
            delta_snapshots: false,
            max_instructions: 0,
            max_vtime_ns: 0,
            max_quanta: 0,
            wall_ms: 0,
            snapshot_mem_budget: 0,
            repeat: 0,
            leg_instructions: 0,
            priority: DEFAULT_LANE,
        }
    }
}

fn get_u64(m: &BTreeMap<String, Value>, key: &str) -> Result<u64, ServeError> {
    match m.get(key) {
        None => Ok(0),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| ServeError::Protocol(format!("job field '{key}' must be a u64"))),
    }
}

impl JobSpec {
    /// Serializes to a JSON object (the `job.json` journal record and
    /// the `submit` payload).
    pub fn to_value(&self) -> Value {
        Value::Obj(BTreeMap::from([
            ("name".into(), Value::Str(self.name.clone())),
            ("firmware".into(), Value::Str(self.firmware.clone())),
            ("workers".into(), Value::Num(self.workers as f64)),
            ("fault_rate".into(), Value::Num(self.fault_rate)),
            ("fault_seed".into(), Value::Num(self.fault_seed as f64)),
            ("delta_snapshots".into(), Value::Bool(self.delta_snapshots)),
            (
                "max_instructions".into(),
                Value::Num(self.max_instructions as f64),
            ),
            ("max_vtime_ns".into(), Value::Num(self.max_vtime_ns as f64)),
            ("max_quanta".into(), Value::Num(self.max_quanta as f64)),
            ("wall_ms".into(), Value::Num(self.wall_ms as f64)),
            (
                "snapshot_mem_budget".into(),
                Value::Num(self.snapshot_mem_budget as f64),
            ),
            ("repeat".into(), Value::Num(f64::from(self.repeat))),
            (
                "leg_instructions".into(),
                Value::Num(self.leg_instructions as f64),
            ),
            ("priority".into(), Value::Num(self.priority as f64)),
        ]))
    }

    /// Parses a JSON object back into a spec. Unknown keys are ignored
    /// (forward compatibility); missing budgets default to unbudgeted.
    pub fn from_value(v: &Value) -> Result<JobSpec, ServeError> {
        let Value::Obj(m) = v else {
            return Err(ServeError::Protocol("job must be a JSON object".into()));
        };
        let s = |key: &str| -> String {
            m.get(key)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let firmware = s("firmware");
        if firmware.is_empty() {
            return Err(ServeError::Protocol("job needs a 'firmware' spec".into()));
        }
        Ok(JobSpec {
            name: s("name"),
            firmware,
            workers: (get_u64(m, "workers")? as usize).max(1),
            fault_rate: m
                .get("fault_rate")
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
                .clamp(0.0, 1.0),
            fault_seed: get_u64(m, "fault_seed")?.max(1),
            delta_snapshots: m
                .get("delta_snapshots")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            max_instructions: get_u64(m, "max_instructions")?,
            max_vtime_ns: get_u64(m, "max_vtime_ns")?,
            max_quanta: get_u64(m, "max_quanta")?,
            wall_ms: get_u64(m, "wall_ms")?,
            snapshot_mem_budget: get_u64(m, "snapshot_mem_budget")?,
            repeat: get_u64(m, "repeat")? as u32,
            leg_instructions: get_u64(m, "leg_instructions")?,
            priority: match m.get("priority") {
                None => DEFAULT_LANE,
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| {
                        ServeError::Protocol("job field 'priority' must be a u64".into())
                    })?
                    .min(MAX_LANE),
            },
        })
    }
}

/// Terminal verdict of a job.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Ran to completion (frontier drained) inside every budget.
    Completed,
    /// A budget tripped; the job was cancelled at a quantum boundary
    /// and its checkpoint is resumable with a raised budget.
    OverBudget(StopReason),
    /// Cancelled by a client; checkpoint resumable.
    Cancelled,
    /// `repeat` re-executions all produced the same canonical digest.
    Stable {
        /// Total executions compared.
        attempts: u32,
    },
    /// Re-executions diverged: the analysis result depends on the fault
    /// schedule — a robustness bug.
    Flaky {
        /// First completed-path state id present in one attempt but not
        /// another (0 when only coverage/bug sets differ).
        divergence_state_id: u64,
    },
    /// The job failed outright (bad spec, engine error).
    Error(String),
}

impl Verdict {
    /// The verdict a run earns by why it stopped: the one rule, for a
    /// job's baseline and for each repeat attempt alike.
    pub fn of(stop: StopReason) -> Verdict {
        match stop {
            StopReason::Complete | StopReason::Paths => Verdict::Completed,
            StopReason::Cancelled => Verdict::Cancelled,
            StopReason::WallClock
            | StopReason::VirtualTime
            | StopReason::Quanta
            | StopReason::Instructions => Verdict::OverBudget(stop),
        }
    }

    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Completed => "completed",
            Verdict::OverBudget(_) => "over-budget",
            Verdict::Cancelled => "cancelled",
            Verdict::Stable { .. } => "stable",
            Verdict::Flaky { .. } => "flaky",
            Verdict::Error(_) => "error",
        }
    }

    /// CI-friendly process exit code: 0 completed/stable, 3 flaky,
    /// 4 cancelled/over-budget, 1 error. (2 is `Saturated`, reported at
    /// submission time, not as a verdict.)
    pub fn exit_code(&self) -> u8 {
        match self {
            Verdict::Completed | Verdict::Stable { .. } => 0,
            Verdict::Flaky { .. } => 3,
            Verdict::Cancelled | Verdict::OverBudget(_) => 4,
            Verdict::Error(_) => 1,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, journaled, waiting for replicas.
    #[default]
    Queued,
    /// Executing on the pool.
    Running,
    /// Terminal; see the summary's verdict.
    Done,
}

impl JobState {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }
}

/// Everything `status` reports about one job (and what `result.json`
/// persists for a terminal one).
#[derive(Clone, Debug, Default)]
pub struct JobSummary {
    /// Daemon-assigned id (admission order).
    pub id: u64,
    /// The spec's label.
    pub name: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Terminal verdict (`None` while queued/running).
    pub verdict: Option<Verdict>,
    /// Why the run that decided the verdict stopped (while running:
    /// why the last leg stopped).
    pub stop: Option<StopReason>,
    /// Canonical digest of the job's result so far, hex: partial until
    /// the baseline completes. A repeat attempt never replaces it.
    pub digest: Option<String>,
    /// Instructions executed so far / in total.
    pub instructions: u64,
    /// Hardware virtual time consumed so far, ns.
    pub vtime_ns: u64,
    /// Scheduling quanta consumed so far.
    pub quanta: u64,
    /// Paths completed.
    pub paths: u64,
    /// Bugs found.
    pub bugs: u64,
    /// Budget consumed: the max over all configured budgets
    /// (instructions, virtual time, quanta, wall clock) in permille —
    /// 1000 means a budget is exhausted, 0 means unbudgeted or idle.
    pub budget_permille: u64,
    /// Milliseconds spent queued before the first replica was free
    /// (live and still growing while the job is queued).
    pub queue_wait_ms: u64,
    /// Milliseconds of execution (absent until terminal).
    pub run_ms: u64,
    /// Priority lane the job was admitted into (`0..=7`).
    pub lane: u64,
    /// Replica provenance once scheduled: `"warm"` (leased a pre-built
    /// pool prototype) or `"cold"` (built its own at job start). `None`
    /// while queued.
    pub provenance: Option<String>,
}

impl JobSummary {
    /// A freshly admitted job's summary.
    pub fn queued(id: u64, spec: &JobSpec) -> JobSummary {
        JobSummary {
            id,
            name: spec.name.clone(),
            lane: spec.priority.min(MAX_LANE),
            ..JobSummary::default()
        }
    }

    /// Writes one run's cumulative progress onto the summary: its stop
    /// reason, canonical digest and counters. The daemon calls it after
    /// every leg, so the terminal commit finds the baseline's last leg
    /// here.
    pub fn record(&mut self, r: &RunResult) {
        self.stop = Some(r.stop);
        self.digest = Some(digest_hex(r.canonical_digest()));
        self.instructions = r.instructions;
        self.vtime_ns = r.hw_virtual_time_ns;
        self.quanta = r.metrics.quanta;
        self.paths = r.metrics.paths_completed;
        self.bugs = r.bugs.len() as u64;
    }

    /// Serializes for the wire and for `result.json`.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::from([
            ("id".into(), Value::Num(self.id as f64)),
            ("name".into(), Value::Str(self.name.clone())),
            ("state".into(), Value::Str(self.state.as_str().into())),
            ("instructions".into(), Value::Num(self.instructions as f64)),
            ("vtime_ns".into(), Value::Num(self.vtime_ns as f64)),
            ("quanta".into(), Value::Num(self.quanta as f64)),
            ("paths".into(), Value::Num(self.paths as f64)),
            ("bugs".into(), Value::Num(self.bugs as f64)),
            (
                "budget_permille".into(),
                Value::Num(self.budget_permille as f64),
            ),
            (
                "queue_wait_ms".into(),
                Value::Num(self.queue_wait_ms as f64),
            ),
            ("run_ms".into(), Value::Num(self.run_ms as f64)),
            ("lane".into(), Value::Num(self.lane as f64)),
        ]);
        if let Some(p) = &self.provenance {
            m.insert("provenance".into(), Value::Str(p.clone()));
        }
        if let Some(v) = &self.verdict {
            m.insert("verdict".into(), Value::Str(v.as_str().into()));
            m.insert("exit_code".into(), Value::Num(f64::from(v.exit_code())));
            match v {
                Verdict::Stable { attempts } => {
                    m.insert("attempts".into(), Value::Num(f64::from(*attempts)));
                }
                Verdict::Flaky {
                    divergence_state_id,
                } => {
                    // State ids are 64-bit fork-tree hashes: hex, like
                    // digests, because JSON numbers are f64.
                    m.insert(
                        "divergence_state_id".into(),
                        Value::Str(digest_hex(*divergence_state_id)),
                    );
                }
                Verdict::Error(msg) => {
                    m.insert("error".into(), Value::Str(msg.clone()));
                }
                _ => {}
            }
        }
        if let Some(stop) = self.stop {
            m.insert("stop".into(), Value::Str(stop.as_str().into()));
        }
        if let Some(d) = &self.digest {
            m.insert("digest".into(), Value::Str(d.clone()));
        }
        Value::Obj(m)
    }

    /// Parses a summary (client side, and `result.json` recovery).
    pub fn from_value(v: &Value) -> Result<JobSummary, ServeError> {
        let Value::Obj(m) = v else {
            return Err(ServeError::Protocol("job summary must be an object".into()));
        };
        let state = match m.get("state").and_then(Value::as_str) {
            Some("queued") => JobState::Queued,
            Some("running") => JobState::Running,
            Some("done") => JobState::Done,
            other => {
                return Err(ServeError::Protocol(format!(
                    "bad job state {other:?} in summary"
                )))
            }
        };
        let stop = m
            .get("stop")
            .and_then(Value::as_str)
            .and_then(StopReason::parse);
        let verdict = match m.get("verdict").and_then(Value::as_str) {
            None => None,
            Some("completed") => Some(Verdict::Completed),
            Some("over-budget") => Some(Verdict::OverBudget(
                stop.unwrap_or(StopReason::Instructions),
            )),
            Some("cancelled") => Some(Verdict::Cancelled),
            Some("stable") => Some(Verdict::Stable {
                attempts: get_u64(m, "attempts")? as u32,
            }),
            Some("flaky") => Some(Verdict::Flaky {
                divergence_state_id: m
                    .get("divergence_state_id")
                    .and_then(Value::as_str)
                    .and_then(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok())
                    .ok_or_else(|| {
                        ServeError::Protocol("job field 'divergence_state_id' must be hex".into())
                    })?,
            }),
            Some("error") => Some(Verdict::Error(
                m.get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            )),
            Some(other) => {
                return Err(ServeError::Protocol(format!("unknown verdict '{other}'")));
            }
        };
        Ok(JobSummary {
            id: get_u64(m, "id")?,
            name: m
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            state,
            verdict,
            stop,
            digest: m.get("digest").and_then(Value::as_str).map(str::to_string),
            instructions: get_u64(m, "instructions")?,
            vtime_ns: get_u64(m, "vtime_ns")?,
            quanta: get_u64(m, "quanta")?,
            paths: get_u64(m, "paths")?,
            bugs: get_u64(m, "bugs")?,
            budget_permille: get_u64(m, "budget_permille")?,
            queue_wait_ms: get_u64(m, "queue_wait_ms")?,
            run_ms: get_u64(m, "run_ms")?,
            // Absent in pre-lane summaries (forward compat): default lane.
            lane: match m.get("lane") {
                None => DEFAULT_LANE,
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| {
                        ServeError::Protocol("summary field 'lane' must be a u64".into())
                    })?
                    .min(MAX_LANE),
            },
            provenance: m
                .get("provenance")
                .and_then(Value::as_str)
                .map(str::to_string),
        })
    }
}

/// Daemon-wide occupancy figures, reported alongside job summaries by
/// the `status` verb so `hardsnap-cli status`/`top` can show fleet
/// health without a second round-trip.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Jobs waiting for replicas.
    pub queue_depth: u64,
    /// Total replicas in the pool.
    pub pool_replicas: u64,
    /// Replicas currently granted to running jobs.
    pub pool_busy: u64,
    /// Live `subscribe` clients.
    pub subscribers: u64,
    /// Events published on the bus since daemon start.
    pub events_published: u64,
    /// Events shed by bounded subscriber queues since daemon start.
    pub events_dropped: u64,
    /// Configured warm-pool size (0 = no warm pool).
    pub warm_target: u64,
    /// Warm prototypes built and ready to lease.
    pub warm_ready: u64,
    /// Warm prototypes currently leased to running jobs.
    pub warm_leased: u64,
    /// Warm prototypes still being built.
    pub warm_arming: u64,
}

impl DaemonStats {
    /// Serializes for the `status` response.
    pub fn to_value(&self) -> Value {
        Value::Obj(BTreeMap::from([
            ("queue_depth".into(), Value::Num(self.queue_depth as f64)),
            (
                "pool_replicas".into(),
                Value::Num(self.pool_replicas as f64),
            ),
            ("pool_busy".into(), Value::Num(self.pool_busy as f64)),
            ("subscribers".into(), Value::Num(self.subscribers as f64)),
            (
                "events_published".into(),
                Value::Num(self.events_published as f64),
            ),
            (
                "events_dropped".into(),
                Value::Num(self.events_dropped as f64),
            ),
            ("warm_target".into(), Value::Num(self.warm_target as f64)),
            ("warm_ready".into(), Value::Num(self.warm_ready as f64)),
            ("warm_leased".into(), Value::Num(self.warm_leased as f64)),
            ("warm_arming".into(), Value::Num(self.warm_arming as f64)),
        ]))
    }

    /// Parses the `daemon` object of a `status` response.
    pub fn from_value(v: &Value) -> Result<DaemonStats, ServeError> {
        let Value::Obj(m) = v else {
            return Err(ServeError::Protocol(
                "daemon stats must be an object".into(),
            ));
        };
        Ok(DaemonStats {
            queue_depth: get_u64(m, "queue_depth")?,
            pool_replicas: get_u64(m, "pool_replicas")?,
            pool_busy: get_u64(m, "pool_busy")?,
            subscribers: get_u64(m, "subscribers")?,
            events_published: get_u64(m, "events_published")?,
            events_dropped: get_u64(m, "events_dropped")?,
            warm_target: get_u64(m, "warm_target")?,
            warm_ready: get_u64(m, "warm_ready")?,
            warm_leased: get_u64(m, "warm_leased")?,
            warm_arming: get_u64(m, "warm_arming")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest_hex;

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = JobSpec {
            name: "t".into(),
            firmware: "demo:4".into(),
            workers: 2,
            fault_rate: 0.05,
            fault_seed: 7,
            delta_snapshots: true,
            max_instructions: 1000,
            max_vtime_ns: 5_000_000,
            max_quanta: 64,
            wall_ms: 2_000,
            snapshot_mem_budget: 1 << 20,
            repeat: 3,
            leg_instructions: 128,
            priority: 6,
        };
        let json = spec.to_value().to_json();
        let back = JobSpec::from_value(&hardsnap_util::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, spec);
        // A pre-lane submission (no 'priority' key) lands in the
        // default lane; an out-of-range lane clamps.
        let old =
            JobSpec::from_value(&hardsnap_util::json::parse("{\"firmware\": \"demo:3\"}").unwrap())
                .unwrap();
        assert_eq!(old.priority, DEFAULT_LANE);
        let high = JobSpec::from_value(
            &hardsnap_util::json::parse("{\"firmware\": \"demo:3\", \"priority\": 99}").unwrap(),
        )
        .unwrap();
        assert_eq!(high.priority, MAX_LANE);
    }

    #[test]
    fn summary_roundtrips_with_verdicts() {
        for verdict in [
            Verdict::Completed,
            Verdict::OverBudget(StopReason::VirtualTime),
            Verdict::Cancelled,
            Verdict::Stable { attempts: 3 },
            Verdict::Flaky {
                divergence_state_id: 0xfd95_d1b3_3a1f_6cd0,
            },
            Verdict::Error("boom".into()),
        ] {
            let s = JobSummary {
                id: 4,
                name: "j".into(),
                state: JobState::Done,
                verdict: Some(verdict.clone()),
                stop: Some(StopReason::VirtualTime),
                digest: Some(digest_hex(0xdead_beef)),
                instructions: 10,
                vtime_ns: 900,
                quanta: 3,
                paths: 2,
                bugs: 1,
                budget_permille: 250,
                queue_wait_ms: 5,
                run_ms: 20,
                lane: 6,
                provenance: Some("warm".into()),
            };
            let json = s.to_value().to_json();
            let back = JobSummary::from_value(&hardsnap_util::json::parse(&json).unwrap()).unwrap();
            assert_eq!(back.verdict, Some(verdict));
            assert_eq!(back.digest, s.digest);
            assert_eq!(back.stop, s.stop);
            assert_eq!(back.vtime_ns, s.vtime_ns);
            assert_eq!(back.quanta, s.quanta);
            assert_eq!(back.budget_permille, s.budget_permille);
            assert_eq!(back.lane, 6);
            assert_eq!(back.provenance.as_deref(), Some("warm"));
        }
    }

    #[test]
    fn daemon_stats_roundtrip() {
        let stats = DaemonStats {
            queue_depth: 2,
            pool_replicas: 4,
            pool_busy: 3,
            subscribers: 1,
            events_published: 100,
            events_dropped: 7,
            warm_target: 4,
            warm_ready: 2,
            warm_leased: 1,
            warm_arming: 1,
        };
        let json = stats.to_value().to_json();
        let back = DaemonStats::from_value(&hardsnap_util::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, stats);
    }
}
