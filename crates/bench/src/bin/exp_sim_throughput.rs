//! E-sim — "How much faster is compiled RTL evaluation?"
//!
//! Raw simulation throughput of the three RTL evaluation backends over
//! the peripheral corpus and the full SoC, under two workloads:
//!
//! * **active** — an input net is poked with fresh random data every
//!   cycle, so a real cone of logic re-evaluates each step;
//! * **quiescent** — inputs held constant after reset, the regime the
//!   dirty-cone scheduler is built for (an idle peripheral's fabric
//!   settles and stays settled, so almost every comb op is skipped, and
//!   a clocked process runs only while something it reads or writes
//!   still changes).
//!
//! Every measured run must end in the same architectural state on all
//! three engines (checksum over every net and memory word) — a
//! throughput number from a diverging simulator is worthless.
//!
//! Usage: `exp_sim_throughput [--smoke] [--json PATH]`.

use hardsnap_bench::{banner, row};
use hardsnap_rtl::{Module, PortDir};
use hardsnap_sim::{SimEngine, Simulator};
use hardsnap_util::Rng;
use std::time::Instant;

const ENGINES: [SimEngine; 3] = [
    SimEngine::Interpreter,
    SimEngine::BytecodeFullEval,
    SimEngine::Bytecode,
];

/// Pulses `rst` (when present) and leaves the design in its post-reset
/// steady state.
fn reset(sim: &mut Simulator) {
    if sim.module().find_net("rst").is_some() {
        sim.poke("rst", 1).unwrap();
        sim.step(2);
        sim.poke("rst", 0).unwrap();
        sim.step(1);
    }
}

/// FNV-1a over every net value and memory word: engines must agree on
/// the full architectural state, not just some outputs.
fn state_checksum(sim: &Simulator) -> u64 {
    let module = sim.module().clone();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (id, _) in module.iter_nets() {
        mix(sim.peek_id(id).bits());
    }
    for (id, _) in module.iter_mems() {
        for &w in sim.mem_words(id) {
            mix(w);
        }
    }
    h
}

/// One measured run.
struct Measured {
    /// Simulated cycles per host second (best of the reps).
    hz: f64,
    /// [`state_checksum`] at the end of the run.
    checksum: u64,
    /// Share of comb ops the dirty-cone pass skipped, percent.
    skip_pct: f64,
    /// Share of clocked-block runs skipped as idle, percent.
    clk_skip_pct: f64,
}

/// `skipped` as a percentage of `done + skipped` (0 when both are 0).
fn pct(done: u64, skipped: u64) -> f64 {
    100.0 * skipped as f64 / (done + skipped).max(1) as f64
}

fn measure(module: &Module, engine: SimEngine, cycles: u64, active: bool, reps: u32) -> Measured {
    let inputs: Vec<_> = module
        .ports()
        .filter(|(_, n)| n.port == Some(PortDir::Input) && n.name != "clk" && n.name != "rst")
        .map(|(id, _)| id)
        .collect();
    let mut best = f64::INFINITY;
    let mut checksum = 0;
    let mut comb = (0, 0);
    let mut clocked = (0, 0);
    for _ in 0..reps {
        let mut sim = Simulator::with_engine(module.clone(), engine).unwrap();
        reset(&mut sim);
        let mut rng = Rng::seed_from_u64(0x51_7480);
        let t0 = Instant::now();
        if active {
            for _ in 0..cycles {
                let id = inputs[rng.gen_range(0..inputs.len())];
                sim.poke_id(id, rng.next_u64());
                sim.step(1);
            }
        } else {
            sim.step(cycles);
        }
        best = best.min(t0.elapsed().as_secs_f64());
        checksum = state_checksum(&sim);
        comb = sim.comb_activity();
        clocked = sim.clocked_activity();
    }
    Measured {
        hz: cycles as f64 / best,
        checksum,
        skip_pct: pct(comb.0, comb.1),
        clk_skip_pct: pct(clocked.0, clocked.1),
    }
}

struct Row {
    design: String,
    workload: &'static str,
    hz: [f64; 3],
    skip_pct: f64,
    clk_skip_pct: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut json_path = "BENCH_sim_throughput.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--json" => {
                i += 1;
                json_path = args.get(i).expect("--json needs a path").clone();
            }
            other => panic!("unknown argument {other:?} (try --smoke / --json PATH)"),
        }
        i += 1;
    }
    let (cycles_active, cycles_quiet, reps) = if smoke {
        (500, 2_000, 1)
    } else {
        (5_000, 20_000, 3)
    };

    banner(
        "E-sim",
        "Compiled RTL evaluation: bytecode + dirty-cone vs interpreter",
        "levelized bytecode beats the tree-walking interpreter outright; \
         activity-driven scheduling adds a large factor on idle fabric",
    );
    let mut designs: Vec<(String, Module)> = hardsnap_periph::corpus()
        .into_iter()
        .map(|(name, f)| (name.to_string(), f().unwrap()))
        .collect();
    designs.push(("soc_top".to_string(), hardsnap_periph::soc().unwrap()));

    let widths = [8, 10, 12, 14, 12, 10, 10, 7, 10];
    row(
        &[
            "design",
            "workload",
            "interp",
            "bytecode-full",
            "bytecode",
            "vs-interp",
            "vs-full",
            "skip%",
            "clk-skip%",
        ],
        &widths,
    );
    let mut rows = Vec::new();
    for (name, module) in &designs {
        for (workload, cycles) in [("active", cycles_active), ("quiescent", cycles_quiet)] {
            let active = workload == "active";
            let mut hz = [0.0f64; 3];
            let mut sums = [0u64; 3];
            let (mut skip_pct, mut clk_skip_pct) = (0.0, 0.0);
            for (e, &engine) in ENGINES.iter().enumerate() {
                let m = measure(module, engine, cycles, active, reps);
                hz[e] = m.hz;
                sums[e] = m.checksum;
                if engine == SimEngine::Bytecode {
                    (skip_pct, clk_skip_pct) = (m.skip_pct, m.clk_skip_pct);
                }
            }
            assert!(
                sums[1] == sums[0] && sums[2] == sums[0],
                "{name}/{workload}: engines diverged ({:016x} {:016x} {:016x})",
                sums[0],
                sums[1],
                sums[2]
            );
            row(
                &[
                    name,
                    workload,
                    &format!("{:.2} MHz", hz[0] / 1e6),
                    &format!("{:.2} MHz", hz[1] / 1e6),
                    &format!("{:.2} MHz", hz[2] / 1e6),
                    &format!("{:.1}x", hz[2] / hz[0]),
                    &format!("{:.1}x", hz[2] / hz[1]),
                    &format!("{skip_pct:.0}%"),
                    &format!("{clk_skip_pct:.1}%"),
                ],
                &widths,
            );
            rows.push(Row {
                design: name.clone(),
                workload,
                hz,
                skip_pct,
                clk_skip_pct,
            });
        }
    }

    // The acceptance bars: compiled evaluation is worth shipping only
    // if it clearly beats the interpreter on real logic, and activity
    // scheduling (idle comb blocks and idle clocked processes skipped)
    // pays off on idle fabric.
    if !smoke {
        for r in &rows {
            let speedup = r.hz[2] / r.hz[0];
            if (r.design == "aes128" || r.design == "soc_top") && r.workload == "active" {
                assert!(
                    speedup >= 2.0,
                    "{}/active: bytecode only {speedup:.2}x over interpreter",
                    r.design
                );
            }
            if r.design == "soc_top" && r.workload == "quiescent" {
                assert!(
                    speedup >= 5.0,
                    "soc_top/quiescent: bytecode only {speedup:.2}x over interpreter"
                );
                let over_full = r.hz[2] / r.hz[1];
                assert!(
                    over_full >= 10.0,
                    "soc_top/quiescent: bytecode only {over_full:.2}x over bytecode-full"
                );
            }
        }
    }

    let mut entries = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"design\": \"{}\", \"workload\": \"{}\", \
             \"interp_hz\": {:.0}, \"bytecode_full_hz\": {:.0}, \"bytecode_hz\": {:.0}, \
             \"speedup_vs_interp\": {:.2}, \"speedup_vs_full\": {:.2}, \
             \"comb_skip_pct\": {:.1}, \"clocked_skip_pct\": {:.1}}}",
            r.design,
            r.workload,
            r.hz[0],
            r.hz[1],
            r.hz[2],
            r.hz[2] / r.hz[0],
            r.hz[2] / r.hz[1],
            r.skip_pct,
            r.clk_skip_pct,
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"sim_throughput\",\n  \
         \"workloads\": \"active = random input poke per cycle; quiescent = inputs held after reset\",\n  \
         \"cycles\": {{\"active\": {cycles_active}, \"quiescent\": {cycles_quiet}}}, \"reps\": {reps},\n  \
         \"metric\": \"simulated cycles per host second (best of reps); engines checksum-verified\",\n  \
         \"points\": [\n{entries}\n  ]\n}}\n"
    );
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    println!();
    println!("recorded {json_path}");
    println!("note: all three engines are checksum-verified against each other");
    println!("on every row before a number is reported; 'skip%' is the share of");
    println!("comb bytecode the dirty-cone scheduler never had to execute, and");
    println!("'clk-skip%' the share of clocked-process runs skipped because nothing");
    println!("the process reads or writes had changed since its last run.");
}
