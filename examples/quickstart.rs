//! Quickstart: symbolic co-analysis of firmware + simulated RTL with
//! hardware snapshotting.
//!
//! Builds the 4-peripheral SoC from its Verilog sources, loads a small
//! branching firmware, and runs the HardSnap engine: every symbolic path
//! gets a private hardware snapshot, so all 2^k paths see consistent
//! peripheral state.
//!
//! Run with: `cargo run --release --example quickstart`

use hardsnap::{Engine, EngineConfig};
use hardsnap_sim::SimTarget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Hardware: parse + elaborate the SoC (UART, TIMER, SHA-256,
    //    AES-128 behind an AXI4-Lite interconnect) and put it on the
    //    cycle-accurate simulator target.
    let soc = hardsnap_periph::soc()?;
    let stats = hardsnap_rtl::ModuleStats::of(&soc);
    println!("SoC: {stats}");
    let target = Box::new(SimTarget::new(soc)?);

    // 2. Firmware: 3 symbolic branches -> 8 paths, each programming the
    //    timer with a path-specific value and asserting the readback.
    let asm = hardsnap::firmware::branching_firmware(3);
    let program = hardsnap_isa::assemble(&asm)?;
    println!(
        "firmware: {} bytes, entry {:#x}",
        program.image.len(),
        program.entry
    );

    // 3. Analyze.
    let mut engine = Engine::new(target, EngineConfig::default());
    engine.load_firmware(&program);
    let result = engine.run();

    println!();
    println!("paths completed : {}", result.metrics.paths_completed);
    println!("bugs found      : {}", result.bugs.len());
    println!("context switches: {}", result.metrics.context_switches);
    println!("snapshots saved : {}", result.metrics.snapshots_saved);
    println!(
        "hw virtual time : {} ms",
        result.hw_virtual_time_ns / 1_000_000
    );
    let solver = engine.executor.solver.stats;
    println!(
        "solver queries  : {} ({} cached)",
        solver.queries, solver.cached
    );
    assert_eq!(result.metrics.paths_completed, 8);
    assert!(result.bugs.is_empty());
    println!();
    println!("all 8 paths saw consistent private hardware — no false alarms.");
    Ok(())
}
