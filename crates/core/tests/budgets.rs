//! Budget property: a run cut by *any* budget axis at *any* point,
//! checkpointed, and resumed in a fresh engine must produce a canonical
//! digest bit-identical to one uninterrupted run — across worker counts
//! and even when the resumed engine runs under a smaller snapshot RAM
//! budget. Budgets decide *where* a run pauses, never *what* it
//! computes.

use hardsnap::firmware;
use hardsnap::{
    resume_campaign, snapshot_campaign, CancelToken, ConsistencyMode, Engine, EngineConfig,
    RunResult, Searcher, StopReason,
};
use hardsnap_sim::SimTarget;
use std::path::PathBuf;

fn config() -> EngineConfig {
    EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        quantum: 4,
        ..Default::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hardsnap-budgets-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine(config: &EngineConfig, workers: usize) -> Engine {
    let target = Box::new(SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap());
    Engine::with_workers(target, workers, config.clone()).unwrap()
}

fn run_fresh(asm: &str, config: &EngineConfig, workers: usize) -> RunResult {
    let prog = hardsnap_isa::assemble(asm).unwrap();
    let mut engine = engine(config, workers);
    engine.load_firmware(&prog);
    engine.run()
}

/// Runs under `first` until it stops, checkpoints into `dir`, then
/// resumes in a fresh engine under `second` and returns both halves.
fn cut_and_resume(
    asm: &str,
    first: &EngineConfig,
    second: &EngineConfig,
    workers: usize,
    dir: &PathBuf,
) -> (RunResult, RunResult) {
    let prog = hardsnap_isa::assemble(asm).unwrap();
    let mut first = engine(first, workers);
    first.load_firmware(&prog);
    let r1 = first.run();
    snapshot_campaign(dir, &mut first, &r1).unwrap();
    let mut second = engine(second, workers);
    resume_campaign(dir, &mut second).unwrap();
    (r1, second.run())
}

/// The property, parameterized by which budget axis cuts the first run.
fn budget_cut_is_digest_invariant(cut: &dyn Fn(&mut EngineConfig), tag: &str, expect: StopReason) {
    let asm = firmware::branching_firmware(4);
    let whole = run_fresh(&asm, &config(), 1);
    assert_eq!(whole.stop, StopReason::Complete);
    let digest = whole.canonical_digest();
    for workers in [1usize, 2, 4] {
        let dir = tmp(&format!("{tag}-{workers}"));
        let mut first = config();
        cut(&mut first);
        let (r1, r2) = cut_and_resume(&asm, &first, &config(), workers, &dir);
        assert_eq!(
            r1.stop, expect,
            "{tag} workers={workers}: wrong stop reason"
        );
        assert!(
            r1.instructions < whole.instructions,
            "{tag} workers={workers}: the budget never actually cut the run"
        );
        assert_eq!(r2.stop, StopReason::Complete, "{tag} workers={workers}");
        assert_eq!(
            r2.canonical_digest(),
            digest,
            "{tag} workers={workers}: budget cut + resume changed the result"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn vtime_budget_cut_resumes_to_identical_digest() {
    budget_cut_is_digest_invariant(
        &|c| c.max_vtime_ns = 2_000,
        "vtime",
        StopReason::VirtualTime,
    );
}

#[test]
fn quanta_budget_cut_resumes_to_identical_digest() {
    budget_cut_is_digest_invariant(&|c| c.max_quanta = 6, "quanta", StopReason::Quanta);
}

#[test]
fn wall_clock_budget_cut_resumes_to_identical_digest() {
    // An already-expired deadline stops the run at the very first
    // quantum boundary — the extreme (and fully deterministic) case of
    // a wall-clock cut.
    budget_cut_is_digest_invariant(
        &|c| c.wall_deadline = Some(std::time::Instant::now()),
        "wall",
        StopReason::WallClock,
    );
}

#[test]
fn cancel_token_cut_resumes_to_identical_digest() {
    budget_cut_is_digest_invariant(
        &|c| {
            let t = CancelToken::new();
            t.cancel();
            c.cancel = t;
        },
        "cancel",
        StopReason::Cancelled,
    );
}

#[test]
fn resume_under_smaller_snapshot_budget_is_digest_invariant() {
    let asm = firmware::branching_firmware(4);
    let digest = run_fresh(&asm, &config(), 1).canonical_digest();
    for workers in [1usize, 2, 4] {
        let dir = tmp(&format!("membudget-{workers}"));
        let mut first = config();
        first.max_quanta = 8;
        // The resumed engine gets a drastically smaller snapshot RAM
        // budget than the one that wrote the checkpoint: cold snapshots
        // spill and page back in, and the digest must not notice.
        let mut second = config();
        second.snapshot_mem_budget = Some(1);
        let (r1, r2) = cut_and_resume(&asm, &first, &second, workers, &dir);
        assert_eq!(r1.stop, StopReason::Quanta, "workers={workers}");
        assert_eq!(r2.stop, StopReason::Complete, "workers={workers}");
        assert_eq!(
            r2.canonical_digest(),
            digest,
            "workers={workers}: spill-constrained resume changed the result"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn repeated_cuts_chain_to_identical_digest() {
    // Cut → resume → cut → resume … with a tiny quanta budget each leg:
    // the many-checkpoint chain must still land on the uninterrupted
    // digest, sequentially and in parallel.
    let asm = firmware::branching_firmware(4);
    let digest = run_fresh(&asm, &config(), 1).canonical_digest();
    for workers in [1usize, 2] {
        let dir = tmp(&format!("chain-{workers}"));
        let prog = hardsnap_isa::assemble(&asm).unwrap();
        let mut legs = 0u64;
        let final_digest = loop {
            let mut cfg = config();
            // Quanta carry across resume (like instructions), so each
            // leg grants five *more* than the chain has consumed.
            cfg.max_quanta = (legs + 1) * 5;
            let mut engine = engine(&cfg, workers);
            if legs == 0 {
                engine.load_firmware(&prog);
            } else {
                resume_campaign(&dir, &mut engine).unwrap();
            }
            let r = engine.run();
            snapshot_campaign(&dir, &mut engine, &r).unwrap();
            legs += 1;
            assert!(legs <= 1_000, "workers={workers}: chain never completed");
            if r.stop == StopReason::Complete {
                break r.canonical_digest();
            }
            assert_eq!(r.stop, StopReason::Quanta, "workers={workers}");
        };
        assert!(
            legs > 2,
            "workers={workers}: budget too loose to test the chain"
        );
        assert_eq!(
            final_digest, digest,
            "workers={workers}: {legs}-leg chain diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_budget_tripped_as_the_frontier_drains_reads_complete() {
    // `max_instructions` at the whole run's length: the quantum that
    // retires the last path also trips the budget, with nothing left to
    // resume.
    let asm = firmware::branching_firmware(3);
    let whole = run_fresh(&asm, &config(), 1);
    assert_eq!(
        (whole.stop, whole.instructions),
        (StopReason::Complete, 109)
    );
    let cut = EngineConfig {
        max_instructions: whole.instructions,
        ..config()
    };
    let mut engine = engine(&cut, 1);
    engine.load_firmware(&hardsnap_isa::assemble(&asm).unwrap());
    let r = engine.run();
    assert_eq!(r.stop, StopReason::Complete);
    assert_eq!((r.metrics.paths_completed, engine.active_states()), (8, 0));
    assert_eq!(r.canonical_digest(), whole.canonical_digest());
}

#[test]
fn budget_priority_is_stable() {
    // When several budgets are simultaneously exhausted the reported
    // reason follows the documented priority: cancelled > wall-clock >
    // instructions > paths > vtime > quanta.
    let asm = firmware::branching_firmware(3);
    let mut c = config();
    c.max_quanta = 1;
    c.max_vtime_ns = 1;
    let r = run_fresh(&asm, &c, 1);
    assert_eq!(r.stop, StopReason::VirtualTime);

    let t = CancelToken::new();
    t.cancel();
    let mut c = config();
    c.max_quanta = 1;
    c.cancel = t;
    let r = run_fresh(&asm, &c, 1);
    assert_eq!(r.stop, StopReason::Cancelled);
}
