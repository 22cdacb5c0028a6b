//! Fault-injected transport: the engine must absorb an unreliable link
//! without changing the analysis result.
//!
//! The headline invariant is **full transparency**: with faults
//! injected on up to 10% of bus/scan/snapshot operations, every workload
//! completes with a canonical digest bit-identical to the fault-free
//! run, for any worker count — faults may only show up in
//! `RunResult::faults` and in timing. A fault no replay can get past
//! kills only the affected state, named in the fault log.

use hardsnap::firmware;
use hardsnap::{
    ConsistencyMode, Engine, EngineConfig, FaultPlan, FaultyTarget, RetryPolicy, RunResult,
    Searcher,
};
use hardsnap_bus::{BusError, HwSnapshot, HwTarget, TargetCaps, TargetError};
use hardsnap_sim::SimTarget;
use hardsnap_util::prop::from_fn;
use hardsnap_util::prop_check;
use hardsnap_util::rng::Rng;

fn config() -> EngineConfig {
    EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        max_instructions: 300_000,
        quantum: 4,
        ..Default::default()
    }
}

fn sim() -> SimTarget {
    SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap()
}

fn target(plan: FaultPlan) -> Box<dyn HwTarget> {
    if plan.is_active() {
        Box::new(FaultyTarget::new(sim(), plan))
    } else {
        Box::new(sim())
    }
}

fn parallel_run(asm: &str, config: &EngineConfig, workers: usize, plan: FaultPlan) -> RunResult {
    let mut engine = Engine::with_workers(target(plan), workers, config.clone()).unwrap();
    engine.load_firmware(&hardsnap_isa::assemble(asm).unwrap());
    engine.run()
}

fn sequential_run(asm: &str, config: &EngineConfig, plan: FaultPlan) -> RunResult {
    parallel_run(asm, config, 1, plan)
}

/// Same seed + same fault plan ⇒ the whole run replays exactly: same
/// digest, same injected/retried/recovered counters, same fault log.
#[test]
fn fault_runs_replay_exactly_from_their_seed() {
    let asm = firmware::branching_firmware(3);
    let config = config();
    prop_check!(cases = 4, seed = 0xFA01_7E57, (seed in from_fn(|rng: &mut Rng| rng.next_u64())) => {
        let plan = FaultPlan::uniform(seed, 0.05);
        let a = sequential_run(&asm, &config, plan);
        let b = sequential_run(&asm, &config, plan);
        assert_eq!(a.canonical_digest(), b.canonical_digest());
        assert_eq!(a.faults, b.faults, "fault schedule must replay exactly");
        assert_eq!(a.fault_log, b.fault_log);
    });
}

/// The tentpole acceptance bar: with up to 10% of operations faulted,
/// the engine's digest is bit-identical to the fault-free
/// one-worker run for workers ∈ {1, 2, 4}.
#[test]
fn faulty_parallel_matches_fault_free_digest_across_worker_counts() {
    let asm = firmware::branching_firmware(3);
    let config = config();
    let clean = sequential_run(&asm, &config, FaultPlan::off());
    assert_eq!(clean.metrics.paths_completed, 8);
    assert_eq!(clean.faults.injected, 0);
    assert!(clean.fault_log.is_empty());
    let clean_digest = clean.canonical_digest();

    prop_check!(cases = 2, seed = 0x10AD_FAB1, (seed in from_fn(|rng: &mut Rng| rng.next_u64())) => {
        for rate in [0.05, 0.10] {
            let plan = FaultPlan::uniform(seed, rate);
            for workers in [1usize, 2, 4] {
                let r = parallel_run(&asm, &config, workers, plan);
                assert_eq!(
                    r.canonical_digest(),
                    clean_digest,
                    "workers={workers} rate={rate}: faults leaked into the result \
                     (injected={}, retried={}, recovered={}, quarantined={}, log={:?})",
                    r.faults.injected,
                    r.faults.retried,
                    r.faults.recovered,
                    r.faults.quarantined,
                    r.fault_log
                );
                assert!(r.fault_log.is_empty(), "workers={workers}: no state may die");
            }
        }
    });
}

/// Transient bus faults at one worker are absorbed by the retry layer:
/// the digest matches fault-free and the summary shows recovery
/// actually happened.
#[test]
fn sequential_recovers_transparently_from_transient_bus_faults() {
    // Dense MMIO traffic so a 10% per-op rate is guaranteed to fire.
    let asm = firmware::init_heavy_firmware(40, 2);
    let config = config();
    let clean_digest = sequential_run(&asm, &config, FaultPlan::off()).canonical_digest();
    let plan = FaultPlan {
        seed: 0xB05_FA17,
        bus_fault_rate: 0.10,
        ..FaultPlan::off()
    };
    let r = sequential_run(&asm, &config, plan);
    assert_eq!(r.canonical_digest(), clean_digest);
    assert!(
        r.faults.injected > 0,
        "the 10% plan must fire on this workload"
    );
    assert!(r.faults.retried > 0);
    assert!(r.faults.recovered > 0);
    assert!(r.fault_log.is_empty());
}

/// Deterministic quarantine regression: a zero fault budget plus a
/// hang-prone link forces replica replacement, and the re-queued work
/// still completes with the fault-free digest.
#[test]
fn quarantine_rebuilds_replicas_without_changing_the_result() {
    let asm = firmware::branching_firmware(2);
    let mut config = config();
    config.retry.replica_fault_budget = 0;
    let clean_digest = sequential_run(&asm, &config, FaultPlan::off()).canonical_digest();
    // Only hangs: every wedge is a terminal quantum failure, and budget
    // 0 turns each one into a quarantine + rebuild. (A hang rate near
    // 1.0 would livelock — replacements inherit the plan's rates.)
    let plan = FaultPlan {
        seed: 0x0AB5_EC07,
        hang_rate: 0.15,
        ..FaultPlan::off()
    };
    let r = parallel_run(&asm, &config, 2, plan);
    assert!(
        r.faults.quarantined >= 1,
        "the hang-prone link must trip at least one quarantine (injected={})",
        r.faults.injected
    );
    assert_eq!(
        r.canonical_digest(),
        clean_digest,
        "re-queued work must replay bit-identically on the rebuilt replica"
    );
    assert!(
        r.fault_log.is_empty(),
        "no state may be lost: {:?}",
        r.fault_log
    );
}

/// A simulator spare can stand in for a replica that cannot rebuild
/// itself: exploration finishes on the failover target with the
/// fault-free digest.
#[test]
fn failover_to_a_spare_target_preserves_the_result() {
    let asm = firmware::branching_firmware(2);
    let mut config = config();
    config.retry.replica_fault_budget = 0;
    let clean_digest = sequential_run(&asm, &config, FaultPlan::off()).canonical_digest();
    let plan = FaultPlan {
        seed: 0xFA1_0BE8,
        hang_rate: 0.15,
        ..FaultPlan::off()
    };
    let prog = hardsnap_isa::assemble(&asm).unwrap();
    let prototype = Box::new(FaultyTarget::new(sim(), plan));
    let mut engine = Engine::with_workers(prototype, 2, config.clone()).unwrap();
    // The spare is an honest simulator: once a worker fails over, its
    // link faults stop entirely.
    engine.set_failover(Box::new(sim()));
    engine.load_firmware(&prog);
    let r = engine.run();
    assert!(r.faults.quarantined >= 1);
    assert_eq!(r.canonical_digest(), clean_digest);
}

/// Graceful degradation at one worker on a target that cannot rebuild
/// itself: when `UpdateState` keeps failing, every attempt of the state
/// dies, and once its attempts run out the engine kills exactly that
/// state, names it in the fault log, and finishes the exploration.
#[test]
fn sequential_update_state_failure_kills_the_state_by_name() {
    /// Delegating wrapper whose snapshot captures start failing
    /// permanently after a budget of honest ones.
    struct FailSavesAfter {
        inner: SimTarget,
        ok_saves: u32,
    }
    impl HwTarget for FailSavesAfter {
        fn name(&self) -> &str {
            "sim+dying-link"
        }
        fn caps(&self) -> TargetCaps {
            self.inner.caps()
        }
        fn design_name(&self) -> &str {
            self.inner.design_name()
        }
        fn reset(&mut self) {
            self.inner.reset()
        }
        fn step(&mut self, cycles: u64) {
            self.inner.step(cycles)
        }
        fn cycle(&self) -> u64 {
            self.inner.cycle()
        }
        fn bus_read(&mut self, addr: u32) -> Result<u32, BusError> {
            self.inner.bus_read(addr)
        }
        fn bus_write(&mut self, addr: u32, data: u32) -> Result<(), BusError> {
            self.inner.bus_write(addr, data)
        }
        fn irq_lines(&mut self) -> u32 {
            self.inner.irq_lines()
        }
        fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError> {
            if self.ok_saves == 0 {
                return Err(TargetError::Bus(BusError::Timeout {
                    addr: 0,
                    cycles: 256,
                }));
            }
            self.ok_saves -= 1;
            self.inner.save_snapshot()
        }
        fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError> {
            self.inner.restore_snapshot(snap)
        }
        fn virtual_time_ns(&self) -> u64 {
            self.inner.virtual_time_ns()
        }
        fn snapshot_shape(&self) -> u64 {
            self.inner.snapshot_shape()
        }
    }

    let asm = firmware::branching_firmware(3);
    let mut config = config();
    // Keep the test fast: one failed save must become terminal quickly.
    config.retry = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };
    let target = Box::new(FailSavesAfter {
        inner: sim(),
        ok_saves: 2,
    });
    let mut engine = Engine::new(target, config);
    let prog = hardsnap_isa::assemble(&asm).unwrap();
    engine.load_firmware(&prog);
    let r = engine.run();
    assert!(
        !r.fault_log.is_empty(),
        "a permanently dead link must kill at least one state"
    );
    for entry in &r.fault_log {
        assert!(
            entry.contains("StateId") && entry.contains("killed"),
            "fault log must name the casualty: {entry}"
        );
    }
    assert!(r.metrics.states_dropped > 0);
    // Graceful, not fatal: the run returned instead of panicking, and
    // the first two honest saves let some exploration happen.
    assert!(r.instructions > 0);
}
