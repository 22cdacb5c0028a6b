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
//! enforced by the engine *between quanta*, so every stop leaves a
//! valid partial result and a resumable checkpoint. The wall-clock
//! budget is one deadline, fixed when [`run_job`] starts: every leg and
//! every repeat attempt runs under it.
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
//! re-seeded fault plan and the baseline's budgets. Each attempt earns
//! a verdict by the baseline's rule, [`Verdict::of`]: one cut short by a
//! budget or a cancel decides the job's verdict by its own stop, and
//! only a completed attempt compares canonical digests with the
//! baseline. A divergence between completed runs is a robustness bug in
//! the analysis stack — recovery was supposed to make fault schedules
//! invisible.

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

/// A spec budget for the engine: 0 on the wire means unbudgeted.
fn budget(n: u64) -> u64 {
    if n > 0 {
        n
    } else {
        u64::MAX
    }
}

/// The engine configuration every run of the job shares: its budgets,
/// its one wall-clock `deadline` and its cancel token.
fn base_config(spec: &JobSpec, cancel: &CancelToken, deadline: Option<Instant>) -> EngineConfig {
    EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        delta_snapshots: spec.delta_snapshots,
        max_instructions: budget(spec.max_instructions),
        max_vtime_ns: budget(spec.max_vtime_ns),
        max_quanta: budget(spec.max_quanta),
        snapshot_mem_budget: (spec.snapshot_mem_budget > 0)
            .then_some(spec.snapshot_mem_budget as usize),
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
    let spec_cap = base.max_instructions;
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
/// replica with a re-seeded fault plan, under the job's budgets and
/// deadline (`base`). No checkpointing: the attempt is judged and
/// discarded.
fn run_attempt(
    spec: &JobSpec,
    base: &EngineConfig,
    attempt: u32,
    program: &Program,
    proto: &dyn HwTarget,
) -> Result<RunResult, ServeError> {
    let target = replica(proto, spec, attempt)?;
    let mut engine = Engine::with_workers(target, spec.workers, base.clone()).map_err(job_err)?;
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

/// Executes a job to its terminal verdict. Returns the verdict and the
/// stop reason of the run that decided it: the baseline's, or that of
/// the repeat attempt that ended it.
///
/// `dir` is the job's checkpoint directory (created on first
/// checkpoint); it may already hold a campaign from a previous daemon
/// incarnation, in which case the job resumes seamlessly. Every replica
/// is forked from `proto` — a leased warm-pool prototype — or, when it
/// is `None`, from one [`build_prototype`] makes at job start; either
/// way the digest is the same. `on_leg` is called after every baseline
/// leg with the cumulative partial result, which the daemon writes onto
/// the job's summary and publishes; the last call carries the
/// baseline's final result. With `observe` the engine's telemetry
/// recorder is enabled for each leg (per-leg [`RunResult::telemetry`]
/// snapshots become available) — observe-only, digests are unaffected.
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
) -> Result<(Verdict, StopReason), ServeError> {
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
    let base = base_config(spec, cancel, deadline);
    // Telemetry is observe-only: turning it on changes no engine
    // decision, so observed and unobserved runs digest identically
    // (pinned by the observer-effect tests). Repeat attempts are judged
    // and discarded; they never need it.
    let mut legs = base.clone();
    legs.telemetry.enabled |= observe;
    let baseline = run_legs(spec, dir, &legs, &program, proto, on_leg)?;
    let verdict = Verdict::of(baseline.stop);
    // Flaky detection: only a *completed* baseline is worth repeating —
    // a budget-cut prefix legitimately depends on where the cut fell.
    if verdict != Verdict::Completed || spec.repeat < 2 {
        return Ok((verdict, baseline.stop));
    }
    let digest = baseline.canonical_digest();
    for attempt in 1..spec.repeat {
        let rerun = run_attempt(spec, &base, attempt, &program, proto)?;
        let verdict = match Verdict::of(rerun.stop) {
            Verdict::Completed if rerun.canonical_digest() == digest => continue,
            Verdict::Completed => Verdict::Flaky {
                divergence_state_id: divergence_state_id(&baseline, &rerun),
            },
            cut => cut,
        };
        return Ok((verdict, rerun.stop));
    }
    let stable = Verdict::Stable {
        attempts: spec.repeat,
    };
    Ok((stable, baseline.stop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSummary;

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

    /// Runs a job as the daemon does: every leg written onto a summary,
    /// then the verdict and the stop of the run that decided it.
    fn run(
        spec: &JobSpec,
        dir: &Path,
        cancel: &CancelToken,
        proto: Option<&dyn HwTarget>,
        on_leg: &mut dyn FnMut(&RunResult),
    ) -> (Verdict, JobSummary) {
        let mut summary = JobSummary::queued(0, spec);
        let (verdict, stop) = run_job(spec, dir, cancel, false, proto, &mut |r| {
            summary.record(r);
            on_leg(r);
        })
        .unwrap();
        summary.stop = Some(stop);
        (verdict, summary)
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
        let (verdict, legged) = run(&demo_spec(), &dir, &cancel, None, &mut |_| {
            let files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(
                files,
                [MANIFEST],
                "a checkpoint is one file after every leg"
            );
        });
        assert_eq!(verdict, Verdict::Completed);

        let mut one_shot = demo_spec();
        one_shot.leg_instructions = 0; // one huge leg
        let (_, whole) = run(&one_shot, &tmp("whole"), &cancel, None, &mut |_| {});
        assert_eq!(
            legged.digest, whole.digest,
            "legging must not change semantics"
        );
        // Modeled time does change, and is pinned: at every leg
        // boundary the running state's context is saved (UpdateState)
        // and restored on the next leg's fresh replica, which one
        // uninterrupted run does not need.
        assert_eq!(
            (legged.vtime_ns, whole.vtime_ns),
            (449_613_600, 408_830_000),
            "modeled time"
        );

        // Forks start at power-on whatever state their prototype is in:
        // a dirtied prototype gives the same digest and modeled times.
        let dirty = dirtied_prototype();
        let forked = tmp("forked");
        for (spec, vtime) in [(demo_spec(), legged.vtime_ns), (one_shot, whole.vtime_ns)] {
            let (_, out) = run(&spec, &forked, &cancel, Some(dirty.as_ref()), &mut |_| {});
            assert_eq!((&out.digest, out.vtime_ns), (&whole.digest, vtime));
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
        let (verdict, _) = run(&spec, &dir, &cancel, None, &mut |_| {});
        assert_eq!(verdict, Verdict::OverBudget(StopReason::VirtualTime));
        assert!(
            dir.join(MANIFEST).exists(),
            "over-budget job must leave a checkpoint"
        );

        // Raise the budget and resume from the same directory: the
        // finished digest must equal an uninterrupted run's.
        spec.max_vtime_ns = 0;
        let (verdict, resumed) = run(&spec, &dir, &cancel, None, &mut |_| {});
        assert_eq!(verdict, Verdict::Completed);
        let (_, whole) = run(
            &demo_spec(),
            &tmp("vtime-whole"),
            &cancel,
            None,
            &mut |_| {},
        );
        assert_eq!(resumed.digest, whole.digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_job_keeps_a_resumable_checkpoint() {
        let dir = tmp("cancel");
        let cancel = CancelToken::new();
        cancel.cancel(); // pre-cancelled: stops at the first boundary
        let (verdict, _) = run(&demo_spec(), &dir, &cancel, None, &mut |_| {});
        assert_eq!(verdict, Verdict::Cancelled);
        assert!(dir.join(MANIFEST).exists());

        let fresh = CancelToken::new();
        let (verdict, resumed) = run(&demo_spec(), &dir, &fresh, None, &mut |_| {});
        assert_eq!(verdict, Verdict::Completed);
        let (_, whole) = run(
            &demo_spec(),
            &tmp("cancel-whole"),
            &fresh,
            None,
            &mut |_| {},
        );
        assert_eq!(resumed.digest, whole.digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn low_fault_rate_is_stable_high_rate_is_flaky() {
        let cancel = CancelToken::new();
        let mut spec = demo_spec();
        spec.fault_rate = 0.05;
        spec.repeat = 3;
        let (verdict, _) = run(&spec, &tmp("stable"), &cancel, None, &mut |_| {});
        assert_eq!(
            verdict,
            Verdict::Stable { attempts: 3 },
            "recovery must hide low-rate faults"
        );

        // Attempt/replay hides even a 60% fault rate: a failed quantum
        // is replayed from its snapshot until it gets through.
        spec.fault_rate = 0.6;
        let (verdict, _) = run(&spec, &tmp("replayed"), &cancel, None, &mut |_| {});
        assert_eq!(
            verdict,
            Verdict::Stable { attempts: 3 },
            "replay must hide a 60% fault rate"
        );

        // At 90% states exhaust their attempts and get killed, and the
        // surviving path set depends on the fault schedule: flaky by
        // design.
        spec.fault_rate = 0.9;
        let (verdict, _) = run(&spec, &tmp("flaky"), &cancel, None, &mut |_| {});
        assert!(
            matches!(verdict, Verdict::Flaky { .. }),
            "expected flaky at 90% fault rate, got {verdict:?}"
        );
    }

    #[test]
    fn a_repeat_attempt_cut_by_a_budget_reads_over_budget() {
        // A repeat attempt re-seeds its faults, so its recovery costs
        // differ from the baseline's: a virtual-time budget one ns above
        // what the baseline takes lets the baseline complete and cuts
        // the attempt short. That is a budget verdict decided by the
        // attempt, not a divergence.
        let cancel = CancelToken::new();
        let mut spec = JobSpec {
            firmware: "demo:4".into(),
            fault_rate: 0.3,
            fault_seed: 1,
            repeat: 2,
            ..JobSpec::default()
        };
        let (verdict, free) = run(&spec, &tmp("cut-free"), &cancel, None, &mut |_| {});
        assert_eq!(verdict, Verdict::Stable { attempts: 2 });

        spec.max_vtime_ns = free.vtime_ns + 1;
        let mut baseline_stop = None;
        let (verdict, cut) = run(&spec, &tmp("cut"), &cancel, None, &mut |r| {
            baseline_stop = Some(r.stop)
        });
        assert_eq!(baseline_stop, Some(StopReason::Complete));
        assert_eq!(verdict, Verdict::OverBudget(StopReason::VirtualTime));
        // The summary names the attempt's stop, from which a reader
        // rebuilds the verdict, and keeps the baseline's digest.
        assert_eq!(cut.stop, Some(StopReason::VirtualTime));
        assert_eq!((&cut.digest, cut.vtime_ns), (&free.digest, free.vtime_ns));
    }

    #[test]
    fn a_repeat_attempt_past_the_deadline_stops_before_its_first_quantum() {
        let spec = demo_spec();
        let program = assemble(&spec).unwrap();
        let proto = build_prototype().unwrap();
        let base = base_config(&spec, &CancelToken::new(), Some(Instant::now()));
        let r = run_attempt(&spec, &base, 1, &program, proto.as_ref()).unwrap();
        assert_eq!(
            (r.stop, r.instructions, r.metrics.quanta),
            (StopReason::WallClock, 0, 0)
        );
    }
}
