//! Job execution: the leg loop that turns a [`JobSpec`] into a terminal
//! [`Verdict`].
//!
//! A job never runs as one monolithic engine invocation. It runs as a
//! sequence of **legs**: each leg is a fresh engine (fresh replica
//! allocation) that resumes the job's campaign checkpoint, executes at
//! most `leg_instructions` more instructions, and re-commits the
//! checkpoint — one file, one atomic rename. The checkpoint is
//! therefore *always* one whole leg of the job's progress — a `kill -9`
//! of the daemon loses at most one leg, and the restart path is the
//! same code path as an ordinary leg boundary. Budgets (virtual
//! time, quanta, wall-clock, instructions) and the cancel token are
//! enforced by the engine *between quanta*, so every stop — including a
//! watchdog cancellation — leaves a valid partial result and a
//! resumable checkpoint.
//!
//! Every leg and every repeat attempt runs on replicas forked from one
//! **prototype** with [`HwTarget::fork_clean`]: a warm-pool lease's, or
//! one [`build_prototype`] makes at job start. A fork shares the
//! prototype's compiled design and starts at power-on whatever state
//! the prototype is in, so where the prototype came from never changes
//! a digest or a modeled time. The firmware is assembled once per job.
//!
//! Flaky detection re-executes a *completed* job `repeat` times total,
//! each attempt on a freshly forked replica (quarantined by
//! construction: nothing is shared with the baseline run) with a
//! re-seeded fault plan, and compares canonical digests. Any divergence
//! is a robustness bug in the analysis stack — recovery was supposed to
//! make fault schedules invisible.

use crate::job::{JobSpec, Verdict};
use crate::ServeError;
use hardsnap::campaign::MANIFEST;
use hardsnap::{
    load_campaign, resume_campaign, snapshot_campaign, CancelToken, ConsistencyMode, Engine,
    EngineConfig, FaultPlan, FaultyTarget, HwTarget, RunResult, Searcher, SnapshotStore,
    StopReason,
};
use hardsnap_isa::Program;
use hardsnap_sim::{SimEngine, SimTarget};
use std::path::Path;
use std::time::{Duration, Instant};

/// Default instructions per leg when the spec leaves `leg_instructions`
/// at 0. Small enough that a crash loses little; large enough that
/// checkpoint I/O stays a rounding error.
pub const DEFAULT_LEG_INSTRUCTIONS: u64 = 4096;

/// Golden-ratio multiplier used to re-seed fault plans across flaky
/// repeat attempts.
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Terminal outcome of [`run_job`].
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Terminal verdict.
    pub verdict: Verdict,
    /// Why the baseline run stopped.
    pub stop: StopReason,
    /// Canonical digest of the baseline result.
    pub digest: u64,
    /// Cumulative instructions executed (including resumed carry).
    pub instructions: u64,
    /// Paths completed.
    pub paths: u64,
    /// Bugs found.
    pub bugs: u64,
}

/// Fault seed for repeat attempt `attempt` (0 = the baseline run).
/// Re-seeding the fault plan is the whole point of the flaky detector:
/// a *stable* job digests identically under every fault schedule.
pub fn attempt_seed(spec: &JobSpec, attempt: u32) -> u64 {
    if attempt == 0 {
        spec.fault_seed
    } else {
        (spec.fault_seed ^ u64::from(attempt).wrapping_mul(SEED_MIX)).max(1)
    }
}

fn job_err(e: impl std::fmt::Display) -> ServeError {
    ServeError::Job(e.to_string())
}

/// Assembles the job's firmware. `demo` / `demo:K` is the built-in
/// branching firmware (2^K paths); anything else is read as an assembly
/// file path.
fn assemble(spec: &JobSpec) -> Result<Program, ServeError> {
    let fw = spec.firmware.as_str();
    let src = match fw.strip_prefix("demo") {
        Some("") => hardsnap::firmware::branching_firmware(3),
        Some(rest) => match rest.strip_prefix(':').map(str::parse) {
            Some(Ok(k)) => hardsnap::firmware::branching_firmware(k),
            _ => return Err(ServeError::Job(format!("bad firmware spec '{fw}'"))),
        },
        None => std::fs::read_to_string(fw)
            .map_err(|e| ServeError::Job(format!("firmware '{fw}': {e}")))?,
    };
    hardsnap_isa::assemble(&src).map_err(|e| ServeError::Job(format!("{fw}:{e}")))
}

/// Builds one prototype: the built-in SoC on the bytecode engine (Verilog
/// parse, elaboration, bytecode compile). The one place a job's design
/// is built; the warm pool pre-builds these.
///
/// # Errors
///
/// [`ServeError::Job`] if the SoC fails to build.
pub fn build_prototype() -> Result<Box<dyn HwTarget>, ServeError> {
    let soc = hardsnap_periph::soc().map_err(job_err)?;
    Ok(Box::new(
        SimTarget::with_engine(soc, SimEngine::Bytecode).map_err(job_err)?,
    ))
}

/// Forks one power-on replica of `proto` for `spec`, wrapped in a
/// deterministic fault injector when the spec asks for faults.
fn replica(
    proto: &dyn HwTarget,
    spec: &JobSpec,
    attempt: u32,
) -> Result<Box<dyn HwTarget>, ServeError> {
    let target = proto.fork_clean().map_err(job_err)?;
    if spec.fault_rate > 0.0 {
        let plan = FaultPlan::uniform(attempt_seed(spec, attempt), spec.fault_rate);
        Ok(Box::new(FaultyTarget::new(target, plan)))
    } else {
        Ok(target)
    }
}

fn base_config(
    spec: &JobSpec,
    cancel: &CancelToken,
    deadline: Option<Instant>,
    observe: bool,
) -> EngineConfig {
    // Telemetry is observe-only: turning it on changes no engine
    // decision, so observed and unobserved runs digest identically
    // (pinned by the observer-effect tests).
    let mut telemetry = hardsnap_telemetry::TelemetryConfig::default();
    if observe {
        telemetry.enabled = true;
    }
    EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        telemetry,
        delta_snapshots: spec.delta_snapshots,
        max_vtime_ns: if spec.max_vtime_ns > 0 {
            spec.max_vtime_ns
        } else {
            u64::MAX
        },
        max_quanta: if spec.max_quanta > 0 {
            spec.max_quanta
        } else {
            u64::MAX
        },
        snapshot_mem_budget: if spec.snapshot_mem_budget > 0 {
            Some(spec.snapshot_mem_budget as usize)
        } else {
            None
        },
        wall_deadline: deadline,
        cancel: cancel.clone(),
        ..EngineConfig::default()
    }
}

/// Runs one leg: fresh engine, resume-or-load, bounded run, checkpoint.
fn run_leg(
    spec: &JobSpec,
    dir: &Path,
    config: EngineConfig,
    program: &Program,
    proto: &dyn HwTarget,
) -> Result<RunResult, ServeError> {
    let target = replica(proto, spec, 0)?;
    let mut engine = Engine::with_workers(target, spec.workers, config).map_err(job_err)?;
    if dir.join(MANIFEST).exists() {
        resume_campaign(dir, &mut engine).map_err(job_err)?;
    } else {
        engine.load_firmware(program);
    }
    let r = engine.run();
    if !matches!(r.stop, StopReason::Complete | StopReason::Paths) {
        snapshot_campaign(dir, &mut engine, &r).map_err(job_err)?;
    }
    Ok(r)
}

/// Runs the baseline campaign as a sequence of checkpointed legs until
/// a terminal stop. Returns the final cumulative [`RunResult`].
fn run_legs(
    spec: &JobSpec,
    dir: &Path,
    base: &EngineConfig,
    program: &Program,
    proto: &dyn HwTarget,
    on_leg: &mut dyn FnMut(&RunResult),
) -> Result<RunResult, ServeError> {
    let leg = if spec.leg_instructions > 0 {
        spec.leg_instructions
    } else {
        DEFAULT_LEG_INSTRUCTIONS
    };
    let spec_cap = if spec.max_instructions > 0 {
        spec.max_instructions
    } else {
        u64::MAX
    };
    // Recovery: a pre-existing checkpoint (daemon restart) tells us how
    // many instructions are already in the bag, so the first leg's
    // clamp lands on the same boundary an uninterrupted run would.
    let mut carried: u64 = if dir.join(MANIFEST).exists() {
        load_campaign(dir, &SnapshotStore::new())
            .map_err(job_err)?
            .instructions
    } else {
        0
    };
    loop {
        let mut config = base.clone();
        config.max_instructions = spec_cap.min(carried.saturating_add(leg));
        let result = run_leg(spec, dir, config, program, proto)?;
        carried = result.instructions;
        on_leg(&result);
        // An Instructions stop below the job's own cap is just a leg
        // boundary; everything else is terminal for the baseline.
        let terminal = !matches!(result.stop, StopReason::Instructions) || carried >= spec_cap;
        if terminal {
            return Ok(result);
        }
    }
}

/// One uninterrupted repeat attempt on a quarantined (freshly forked)
/// replica with a re-seeded fault plan. No checkpointing: the attempt
/// is compared by digest and discarded.
fn run_attempt(
    spec: &JobSpec,
    cancel: &CancelToken,
    attempt: u32,
    program: &Program,
    proto: &dyn HwTarget,
) -> Result<RunResult, ServeError> {
    let target = replica(proto, spec, attempt)?;
    // Repeat attempts are digest-compared and discarded; they never
    // need telemetry.
    let mut config = base_config(spec, cancel, None, false);
    if spec.max_instructions > 0 {
        config.max_instructions = spec.max_instructions;
    }
    let mut engine = Engine::with_workers(target, spec.workers, config).map_err(job_err)?;
    engine.load_firmware(program);
    Ok(engine.run())
}

/// First completed-path state id present in one result but not the
/// other (0 when the divergence is only in coverage or bug sets).
fn divergence_state_id(a: &RunResult, b: &RunResult) -> u64 {
    let ids = |r: &RunResult| {
        let mut v: Vec<u64> = r.completed.iter().map(|s| s.id.0).collect();
        v.sort_unstable();
        v
    };
    let (ia, ib) = (ids(a), ids(b));
    ia.iter()
        .find(|id| !ib.contains(id))
        .or_else(|| ib.iter().find(|id| !ia.contains(id)))
        .copied()
        .unwrap_or(0)
}

/// Executes a job to its terminal verdict.
///
/// `dir` is the job's checkpoint directory (created on first
/// checkpoint); it may already hold a campaign from a previous daemon
/// incarnation, in which case the job resumes seamlessly. Every replica
/// is forked from `proto` — a leased warm-pool prototype — or, when it
/// is `None`, from one [`build_prototype`] makes at job start; either
/// way the digest is the same. `on_leg` is called after every leg with
/// the cumulative partial result so the daemon can publish live
/// progress. With `observe` the engine's telemetry recorder is enabled
/// for each leg (per-leg [`RunResult::telemetry`] snapshots become
/// available) — observe-only, digests are unaffected.
///
/// # Errors
///
/// [`ServeError::Job`] on a bad spec or an engine/campaign failure.
pub fn run_job(
    spec: &JobSpec,
    dir: &Path,
    cancel: &CancelToken,
    observe: bool,
    proto: Option<&dyn HwTarget>,
    on_leg: &mut dyn FnMut(&RunResult),
) -> Result<Outcome, ServeError> {
    let deadline = (spec.wall_ms > 0).then(|| Instant::now() + Duration::from_millis(spec.wall_ms));
    let program = assemble(spec)?;
    let cold;
    let proto = match proto {
        Some(p) => p,
        None => {
            cold = build_prototype()?;
            cold.as_ref()
        }
    };
    let base = base_config(spec, cancel, deadline, observe);
    let baseline = run_legs(spec, dir, &base, &program, proto, on_leg)?;
    let stop = baseline.stop;
    let mut verdict = match stop {
        StopReason::Complete | StopReason::Paths => Verdict::Completed,
        StopReason::Cancelled => Verdict::Cancelled,
        StopReason::WallClock
        | StopReason::VirtualTime
        | StopReason::Quanta
        | StopReason::Instructions => Verdict::OverBudget(stop),
    };
    let digest = baseline.canonical_digest();
    // Flaky detection: only a *completed* baseline is worth repeating —
    // a budget-cut prefix legitimately depends on where the cut fell.
    if verdict == Verdict::Completed && spec.repeat >= 2 {
        verdict = Verdict::Stable {
            attempts: spec.repeat,
        };
        for attempt in 1..spec.repeat {
            let rerun = run_attempt(spec, cancel, attempt, &program, proto)?;
            if rerun.stop == StopReason::Cancelled {
                verdict = Verdict::Cancelled;
                break;
            }
            if rerun.canonical_digest() != digest {
                verdict = Verdict::Flaky {
                    divergence_state_id: divergence_state_id(&baseline, &rerun),
                };
                break;
            }
        }
    }
    Ok(Outcome {
        verdict,
        stop,
        digest,
        instructions: baseline.instructions,
        paths: baseline.metrics.paths_completed,
        bugs: baseline.bugs.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hardsnap-runner-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn demo_spec() -> JobSpec {
        JobSpec {
            firmware: "demo:3".into(),
            leg_instructions: 64,
            ..JobSpec::default()
        }
    }

    /// A prototype driven away from power-on: written over the bus,
    /// stepped, saved, stepped again and restored.
    fn dirtied_prototype() -> Box<dyn HwTarget> {
        use hardsnap_bus::map::soc::TIMER_BASE;
        use hardsnap_periph::regs::timer;
        let mut proto = build_prototype().unwrap();
        proto.bus_write(TIMER_BASE + timer::LOAD, 77).unwrap();
        proto
            .bus_write(TIMER_BASE + timer::CTRL, timer::CTRL_ENABLE)
            .unwrap();
        proto.step(5);
        let snap = proto.save_snapshot().unwrap();
        proto.step(5);
        proto.restore_snapshot(&snap).unwrap();
        proto
    }

    #[test]
    fn legged_run_matches_uninterrupted_digest() {
        let dir = tmp("legged");
        let cancel = CancelToken::new();
        let mut legged_vtime = 0;
        let legged = run_job(&demo_spec(), &dir, &cancel, false, None, &mut |r| {
            legged_vtime = r.hw_virtual_time_ns;
            let files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(
                files,
                [MANIFEST],
                "a checkpoint is one file after every leg"
            );
        })
        .unwrap();
        assert_eq!(legged.verdict, Verdict::Completed);

        let mut one_shot = demo_spec();
        one_shot.leg_instructions = 0; // one huge leg
        let mut whole_vtime = 0;
        let whole = run_job(&one_shot, &tmp("whole"), &cancel, false, None, &mut |r| {
            whole_vtime = r.hw_virtual_time_ns
        })
        .unwrap();
        assert_eq!(
            legged.digest, whole.digest,
            "legging must not change semantics"
        );
        // Modeled time does change, and is pinned: at every leg
        // boundary the running state's context is saved (UpdateState)
        // and restored on the next leg's fresh replica, which one
        // uninterrupted run does not need.
        assert_eq!(
            (legged_vtime, whole_vtime),
            (449_613_600, 408_830_000),
            "modeled time"
        );

        // Forks start at power-on whatever state their prototype is in:
        // a dirtied prototype gives the same digest and modeled times.
        let dirty = dirtied_prototype();
        let forked = tmp("forked");
        for (spec, vtime) in [(demo_spec(), legged_vtime), (one_shot, whole_vtime)] {
            let mut got = 0;
            let out = run_job(
                &spec,
                &forked,
                &cancel,
                false,
                Some(dirty.as_ref()),
                &mut |r| got = r.hw_virtual_time_ns,
            )
            .unwrap();
            assert_eq!((out.digest, got), (whole.digest, vtime));
            let _ = std::fs::remove_dir_all(&forked);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vtime_budget_trips_over_budget_and_resumes() {
        let dir = tmp("vtime");
        let cancel = CancelToken::new();
        let mut spec = demo_spec();
        spec.max_vtime_ns = 1_000; // absurdly tight: trips on the first quantum
        let out = run_job(&spec, &dir, &cancel, false, None, &mut |_| {}).unwrap();
        assert_eq!(out.verdict, Verdict::OverBudget(StopReason::VirtualTime));
        assert!(
            dir.join(MANIFEST).exists(),
            "over-budget job must leave a checkpoint"
        );

        // Raise the budget and resume from the same directory: the
        // finished digest must equal an uninterrupted run's.
        spec.max_vtime_ns = 0;
        let resumed = run_job(&spec, &dir, &cancel, false, None, &mut |_| {}).unwrap();
        assert_eq!(resumed.verdict, Verdict::Completed);
        let whole = run_job(
            &demo_spec(),
            &tmp("vtime-whole"),
            &cancel,
            false,
            None,
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(resumed.digest, whole.digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_job_keeps_a_resumable_checkpoint() {
        let dir = tmp("cancel");
        let cancel = CancelToken::new();
        cancel.cancel(); // pre-cancelled: stops at the first boundary
        let out = run_job(&demo_spec(), &dir, &cancel, false, None, &mut |_| {}).unwrap();
        assert_eq!(out.verdict, Verdict::Cancelled);
        assert!(dir.join(MANIFEST).exists());

        let fresh = CancelToken::new();
        let resumed = run_job(&demo_spec(), &dir, &fresh, false, None, &mut |_| {}).unwrap();
        assert_eq!(resumed.verdict, Verdict::Completed);
        let whole = run_job(
            &demo_spec(),
            &tmp("cancel-whole"),
            &fresh,
            false,
            None,
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(resumed.digest, whole.digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn low_fault_rate_is_stable_high_rate_is_flaky() {
        let cancel = CancelToken::new();
        let mut spec = demo_spec();
        spec.fault_rate = 0.05;
        spec.repeat = 3;
        let out = run_job(&spec, &tmp("stable"), &cancel, false, None, &mut |_| {}).unwrap();
        assert_eq!(
            out.verdict,
            Verdict::Stable { attempts: 3 },
            "recovery must hide low-rate faults"
        );

        // Attempt/replay hides even a 60% fault rate: a failed quantum
        // is replayed from its snapshot until it gets through.
        spec.fault_rate = 0.6;
        let out = run_job(&spec, &tmp("replayed"), &cancel, false, None, &mut |_| {}).unwrap();
        assert_eq!(
            out.verdict,
            Verdict::Stable { attempts: 3 },
            "replay must hide a 60% fault rate"
        );

        // At 90% states exhaust their attempts and get killed, and the
        // surviving path set depends on the fault schedule: flaky by
        // design.
        spec.fault_rate = 0.9;
        let out = run_job(&spec, &tmp("flaky"), &cancel, false, None, &mut |_| {}).unwrap();
        assert!(
            matches!(out.verdict, Verdict::Flaky { .. }),
            "expected flaky at 90% fault rate, got {:?}",
            out.verdict
        );
    }
}
