//! Integration tests of the HardSnap engine over the real simulated SoC:
//! the consistency and bug-finding claims of the paper, at test scale.

use hardsnap::firmware::{self, PlantedBug};
use hardsnap::{ConsistencyMode, Engine, EngineConfig, Searcher};
use hardsnap_periph::golden;
use hardsnap_sim::SimTarget;

fn sim_engine(mode: ConsistencyMode, searcher: Searcher) -> Engine {
    let soc = hardsnap_periph::soc().unwrap();
    let target = Box::new(SimTarget::new(soc).unwrap());
    // A small quantum forces visible interleaving at test scale (the
    // evaluation binaries sweep this knob).
    let config = EngineConfig {
        mode,
        searcher,
        max_instructions: 300_000,
        quantum: 4,
        ..Default::default()
    };
    Engine::new(target, config)
}

/// Golden digest word 0 for a one-shot SHA-256 compression of a block
/// whose word 0 is `w0` and the rest zero (what fig1 firmware computes).
fn golden_digest_w0(w0: u32) -> u32 {
    let mut state = golden::SHA256_IV;
    let mut block = [0u32; 16];
    block[0] = w0;
    golden::sha256_compress(&mut state, &block);
    state[0]
}

#[test]
fn fig1_hardsnap_paths_get_private_hardware() {
    let mut engine = sim_engine(ConsistencyMode::HardSnap, Searcher::RoundRobin);
    let prog = hardsnap_isa::assemble(&firmware::fig1_firmware()).unwrap();
    engine.load_firmware(&prog);
    let result = engine.run();
    assert_eq!(result.metrics.paths_completed, 2);
    assert!(result.bugs.is_empty(), "{:?}", result.bugs);
    // Context switching really happened (round-robin over 2 states).
    assert!(result.metrics.context_switches > 2);
    assert!(result.metrics.snapshots_saved > 0);
    assert!(result.metrics.snapshots_restored > 0);
}

#[test]
fn branching_firmware_all_paths_consistent() {
    for searcher in [Searcher::Dfs, Searcher::Bfs, Searcher::RoundRobin] {
        let mut engine = sim_engine(ConsistencyMode::HardSnap, searcher);
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(4)).unwrap();
        engine.load_firmware(&prog);
        let result = engine.run();
        assert_eq!(result.metrics.paths_completed, 16, "{searcher:?}");
        // The firmware asserts that the timer readback matches the
        // path-private value; any context mixing trips the assert.
        assert!(result.bugs.is_empty(), "{searcher:?}: {:?}", result.bugs);
    }
}

/// Branch `i` of `branching_firmware` tests a variable of its own, so
/// each branch question slices to the condition alone. Only the first
/// path to reach a depth runs the decision procedure, for its two
/// questions; every other path's questions hit the executor's cache.
#[test]
fn one_worker_answers_branch_feasibility_from_the_cache() {
    // (k, questions, cached, digest): 2 per branch point, 2k decided.
    // The digests were recorded before answers were sliced or cached;
    // branching3's is also the golden corpus row's.
    for (k, questions, cached, digest) in [
        (3, 14, 8, 0x5ad6_0706_5cea_53c4_u64),
        (9, 1022, 1004, 0x91b4_38ae_5666_09ba),
    ] {
        let mut engine = sim_engine(ConsistencyMode::HardSnap, Searcher::RoundRobin);
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(k)).unwrap();
        engine.load_firmware(&prog);
        let result = engine.run();
        assert_eq!(result.metrics.paths_completed, 1 << k);
        assert_eq!(result.canonical_digest(), digest, "k={k}");
        let s = engine.executor.solver.stats;
        assert_eq!(
            (s.queries, s.sat, s.unsat, s.cached),
            (questions, questions, 0, cached),
            "k={k}"
        );
    }
}

#[test]
fn naive_inconsistent_corrupts_branching_firmware() {
    let mut engine = sim_engine(ConsistencyMode::NaiveInconsistent, Searcher::RoundRobin);
    let prog = hardsnap_isa::assemble(&firmware::branching_firmware(4)).unwrap();
    engine.load_firmware(&prog);
    let result = engine.run();
    // Shared hardware: paths overwrite each other's timer programming,
    // so readback asserts fail => false positives appear.
    assert!(
        !result.bugs.is_empty(),
        "inconsistent mode must produce (false-positive) assertion failures"
    );
    assert_eq!(result.metrics.snapshots_saved, 0);
    assert_eq!(result.metrics.reboots, 0);
}

#[test]
fn naive_consistent_is_correct_but_reboots() {
    let mut engine = sim_engine(ConsistencyMode::NaiveConsistent, Searcher::RoundRobin);
    let prog = hardsnap_isa::assemble(&firmware::branching_firmware(3)).unwrap();
    engine.load_firmware(&prog);
    let result = engine.run();
    assert_eq!(result.metrics.paths_completed, 8);
    assert!(result.bugs.is_empty(), "{:?}", result.bugs);
    assert!(result.metrics.reboots > 8, "reboot per context switch");
    assert!(result.metrics.replayed_ios > 0);
}

#[test]
fn hardsnap_uses_less_hw_time_than_reboot_on_init_heavy_firmware() {
    let src = firmware::init_heavy_firmware(40, 3);
    let prog = hardsnap_isa::assemble(&src).unwrap();

    let mut hs = sim_engine(ConsistencyMode::HardSnap, Searcher::RoundRobin);
    hs.load_firmware(&prog);
    let r_hs = hs.run();

    let mut nc = sim_engine(ConsistencyMode::NaiveConsistent, Searcher::RoundRobin);
    nc.load_firmware(&prog);
    let r_nc = nc.run();

    assert_eq!(r_hs.metrics.paths_completed, 8);
    assert_eq!(r_nc.metrics.paths_completed, 8);
    assert!(r_hs.bugs.is_empty() && r_nc.bugs.is_empty());
    // The replay of the 40-write init sequence on every switch must cost
    // far more virtual hardware time than snapshot save/restore.
    assert!(
        r_nc.hw_virtual_time_ns > r_hs.hw_virtual_time_ns,
        "reboot {} ns should exceed hardsnap {} ns",
        r_nc.hw_virtual_time_ns,
        r_hs.hw_virtual_time_ns
    );
}

#[test]
fn finds_length_overflow_bug_with_testcase() {
    let mut engine = sim_engine(ConsistencyMode::HardSnap, Searcher::Dfs);
    let prog =
        hardsnap_isa::assemble(&firmware::vulnerable_firmware(PlantedBug::LengthOverflow)).unwrap();
    engine.load_firmware(&prog);
    let result = engine.run();
    let bug = result
        .bugs
        .iter()
        .find(|b| b.kind == hardsnap::BugKind::Unmapped)
        .expect("overflow bug found");
    let tc = bug.testcase.as_ref().expect("testcase");
    let (_, len) = tc.iter().next().unwrap();
    assert_eq!(len & 0x1f, 17, "exactly the off-by-one length");
}

#[test]
fn finds_magic_command_bug_via_hardware_readback() {
    let mut engine = sim_engine(ConsistencyMode::HardSnap, Searcher::Dfs);
    let prog =
        hardsnap_isa::assemble(&firmware::vulnerable_firmware(PlantedBug::MagicCommand)).unwrap();
    engine.load_firmware(&prog);
    let result = engine.run();
    let bug = result
        .bugs
        .iter()
        .find(|b| b.kind == hardsnap::BugKind::FailHit)
        .expect("magic-command bug found");
    // The test case depends on the timer value the firmware read back:
    // input == 0xDEAD0000 ^ timer_value, and the timer delta is small.
    let tc = bug.testcase.as_ref().unwrap();
    let (_, v) = tc.iter().next().unwrap();
    assert_eq!(v as u32 >> 16, 0xDEAD, "high half survives the xor: {v:#x}");
}

#[test]
fn finds_irq_gated_bug_only_with_interrupts() {
    let mut engine = sim_engine(ConsistencyMode::HardSnap, Searcher::Dfs);
    let prog =
        hardsnap_isa::assemble(&firmware::vulnerable_firmware(PlantedBug::IrqGated)).unwrap();
    engine.load_firmware(&prog);
    let result = engine.run();
    assert!(result.metrics.irqs_delivered > 0, "the timer irq must fire");
    let bug = result
        .bugs
        .iter()
        .find(|b| b.kind == hardsnap::BugKind::FailHit)
        .expect("irq-gated bug found");
    let tc = bug.testcase.as_ref().unwrap();
    let (_, v) = tc.iter().next().unwrap();
    assert_eq!(v as u32, 0x00BA_DBAD);
}

#[test]
fn hw_assertions_fire_on_snapshots() {
    let mut engine = sim_engine(ConsistencyMode::HardSnap, Searcher::RoundRobin);
    // Property: the timer's prescaler register must never exceed 100.
    engine.add_hw_assertion("prescaler-bound", |snap| {
        snap.reg("u_timer.prescaler")
            .map(|v| v <= 100)
            .unwrap_or(true)
    });
    let prog = hardsnap_isa::assemble(&format!(
        "
        .equ TIMER_BASE, {:#x}
        .org 0x100
        entry:
            li r3, TIMER_BASE
            sym r1, #0
            movi r2, #0
            beq r1, r2, small
            li r4, 50000
            stw r4, [r3, #0x10]    ; violates the property
            j end
        small:
            movi r4, #10
            stw r4, [r3, #0x10]
        end:
            nop
            halt
        ",
        hardsnap_bus::map::soc::TIMER_BASE
    ))
    .unwrap();
    engine.load_firmware(&prog);
    let result = engine.run();
    assert_eq!(result.metrics.paths_completed, 2);
    assert!(
        engine
            .hw_violations
            .iter()
            .any(|(n, _)| n == "prescaler-bound"),
        "violation detected through snapshot inspection: {:?}",
        engine.hw_violations
    );
}

#[test]
fn multi_target_switch_mid_analysis() {
    use hardsnap_fpga::{FpgaOptions, FpgaTarget};
    let soc = hardsnap_periph::soc().unwrap();
    let target = Box::new(FpgaTarget::new(soc, &FpgaOptions::default()).unwrap());
    let config = EngineConfig {
        max_instructions: 200_000,
        ..Default::default()
    };
    let mut engine = Engine::new(target, config);
    let prog = hardsnap_isa::assemble(&firmware::branching_firmware(2)).unwrap();
    engine.load_firmware(&prog);
    assert_eq!(engine.target().caps().kind, hardsnap::TargetKind::Fpga);
    // Switch to the simulator (full traces) mid-analysis.
    let sim = Box::new(SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap());
    engine.switch_target(sim).unwrap();
    assert_eq!(engine.target().caps().kind, hardsnap::TargetKind::Simulator);
    let result = engine.run();
    assert_eq!(result.metrics.paths_completed, 4);
    assert!(result.bugs.is_empty(), "{:?}", result.bugs);
}

#[test]
fn golden_digest_sanity_for_fig1_harness() {
    // The constants the consistency experiment compares against.
    let a = golden_digest_w0(0xAAAA_0001);
    let b = golden_digest_w0(0xBBBB_0002);
    assert_ne!(a, b);
}

#[test]
fn delta_snapshots_are_correct_and_smaller() {
    let prog = hardsnap_isa::assemble(&firmware::branching_firmware(4)).unwrap();
    let mut peaks = Vec::new();
    for delta in [false, true] {
        let soc = hardsnap_periph::soc().unwrap();
        let config = EngineConfig {
            searcher: Searcher::Bfs, // widest frontier => most snapshots
            quantum: 4,
            delta_snapshots: delta,
            max_instructions: 300_000,
            ..Default::default()
        };
        let mut engine = Engine::new(Box::new(SimTarget::new(soc).unwrap()), config);
        engine.load_firmware(&prog);
        let r = engine.run();
        assert_eq!(r.metrics.paths_completed, 16, "delta={delta}");
        assert!(r.bugs.is_empty(), "delta={delta}: {:?}", r.bugs);
        peaks.push(engine.store.peak_bytes());
    }
    assert!(
        peaks[1] < peaks[0],
        "delta store peak {} must be below full store peak {}",
        peaks[1],
        peaks[0]
    );
}

#[test]
fn random_searcher_explores_all_paths() {
    let prog = hardsnap_isa::assemble(&firmware::branching_firmware(3)).unwrap();
    let soc = hardsnap_periph::soc().unwrap();
    let config = EngineConfig {
        searcher: Searcher::Random(0xC0FFEE),
        quantum: 4,
        ..Default::default()
    };
    let mut engine = Engine::new(Box::new(SimTarget::new(soc).unwrap()), config);
    engine.load_firmware(&prog);
    let r = engine.run();
    assert_eq!(r.metrics.paths_completed, 8);
    assert!(r.bugs.is_empty(), "{:?}", r.bugs);
}

#[test]
fn exhaustive_policy_forks_over_mmio_write_data() {
    use hardsnap::Concretization;
    // The firmware writes a symbolic 1-bit-masked value into the timer
    // prescaler: exhaustive concretization must explore both hardware
    // configurations as separate paths (each with private hardware).
    let src = format!(
        "
        .equ TIMER_BASE, {:#x}
        .org 0x100
        entry:
            li r3, TIMER_BASE
            sym r1, #0
            andi r1, r1, #1
            stw r1, [r3, #0x10]    ; PRESCALER = 0 or 1
            ldw r5, [r3, #0x10]
            sub r6, r5, r1
            movi r7, #1
            beq r6, r0, ok
            movi r7, #0
        ok:
            assert r7              ; readback matches this path's value
            halt
        ",
        hardsnap_bus::map::soc::TIMER_BASE
    );
    let prog = hardsnap_isa::assemble(&src).unwrap();
    for (policy, want_paths) in [
        (Concretization::Minimal, 1u64),
        (Concretization::Exhaustive(4), 2u64),
    ] {
        let config = EngineConfig {
            policy,
            ..Default::default()
        };
        let mut engine = Engine::new(
            Box::new(SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap()),
            config,
        );
        engine.load_firmware(&prog);
        let r = engine.run();
        assert_eq!(r.metrics.paths_completed, want_paths, "{policy:?}");
        assert!(r.bugs.is_empty(), "{policy:?}: {:?}", r.bugs);
    }
}
