//! Ablations of the design choices DESIGN.md calls out: snapshot storage
//! representation, scheduling quantum, and concretization policy.

use hardsnap::firmware;
use hardsnap::{Concretization, Engine, EngineConfig, Searcher};
use hardsnap_bench::{banner, fmt_ns, row};
use hardsnap_sim::SimTarget;

fn engine(config: EngineConfig) -> Engine {
    Engine::new(
        Box::new(SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap()),
        config,
    )
}

fn main() {
    banner(
        "ABL",
        "Design-choice ablations",
        "delta storage shrinks the controller footprint; larger quanta cut \
         context switches at the cost of interleaving granularity; the \
         exhaustive concretization policy trades paths for completeness",
    );

    // ---- 1. snapshot storage: full vs delta ------------------------------
    println!("--- snapshot storage representation (branching k=5, BFS) ---");
    let widths = [8, 9, 12, 13, 11];
    row(
        &["store", "paths", "snapshots", "peak-bytes", "live-bytes"],
        &widths,
    );
    for delta in [false, true] {
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(5)).unwrap();
        let mut e = engine(EngineConfig {
            searcher: Searcher::Bfs,
            quantum: 4,
            delta_snapshots: delta,
            max_instructions: 2_000_000,
            ..Default::default()
        });
        e.load_firmware(&prog);
        let r = e.run();
        assert_eq!(r.metrics.paths_completed, 32);
        row(
            &[
                if delta { "delta" } else { "full" },
                &r.metrics.paths_completed.to_string(),
                &r.metrics.snapshots_saved.to_string(),
                &e.store.peak_bytes().to_string(),
                &e.store.total_bytes().to_string(),
            ],
            &widths,
        );
    }

    // ---- 2. scheduling quantum -------------------------------------------
    println!();
    println!("--- scheduling quantum (branching k=4, round-robin) ---");
    let widths = [9, 9, 11, 15];
    row(&["quantum", "paths", "switches", "hw-time"], &widths);
    for quantum in [1u64, 4, 16, 64] {
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(4)).unwrap();
        let mut e = engine(EngineConfig {
            searcher: Searcher::RoundRobin,
            quantum,
            max_instructions: 2_000_000,
            ..Default::default()
        });
        e.load_firmware(&prog);
        let r = e.run();
        assert_eq!(r.metrics.paths_completed, 16);
        row(
            &[
                &quantum.to_string(),
                &r.metrics.paths_completed.to_string(),
                &r.metrics.context_switches.to_string(),
                &fmt_ns(r.hw_virtual_time_ns),
            ],
            &widths,
        );
    }

    // ---- 3. concretization policy ------------------------------------------
    println!();
    println!("--- concretization policy at the VM boundary ---");
    // Firmware writing through a symbolic (masked) register offset:
    // minimal tests one concrete offset; exhaustive forks per value.
    let src = format!(
        "
        .equ TIMER_BASE, {:#x}
        .org 0x100
        entry:
            li r3, TIMER_BASE
            sym r1, #0
            andi r1, r1, #0x10     ; offset 0x00 (CTRL) or 0x10 (PRESCALER)
            add r3, r3, r1
            movi r4, #0
            stw r4, [r3]
            halt
        ",
        hardsnap_bus::map::soc::TIMER_BASE
    );
    let widths = [16, 7, 17, 9, 8];
    row(
        &["policy", "paths", "concretizations", "queries", "cached"],
        &widths,
    );
    for (name, policy) in [
        ("minimal", Concretization::Minimal),
        ("exhaustive(8)", Concretization::Exhaustive(8)),
    ] {
        let prog = hardsnap_isa::assemble(&src).unwrap();
        let mut e = engine(EngineConfig {
            policy,
            ..Default::default()
        });
        e.load_firmware(&prog);
        let r = e.run();
        row(
            &[
                name,
                &r.metrics.paths_completed.to_string(),
                &e.executor.stats.concretizations.to_string(),
                &e.executor.solver.stats.queries.to_string(),
                &e.executor.solver.stats.cached.to_string(),
            ],
            &widths,
        );
    }
    println!();
    println!("minimal explores one concrete boundary value per path (fast);");
    println!("exhaustive forks one successor per feasible value (complete).");
}
