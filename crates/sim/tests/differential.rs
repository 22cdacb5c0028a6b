//! Differential properties: the compiled bytecode engine must be
//! bit-for-bit indistinguishable from the tree-walking interpreter on
//! randomly generated designs under random stimulus — every net value,
//! every memory word, every captured snapshot image, every cycle. This
//! is the safety net that lets the bytecode engine be the default: any
//! scheduling bug in the dirty-cone pass or codegen bug in the lowering
//! shows up as a divergence here with a reproducing seed.

use hardsnap_rtl::{Module, PortDir};
use hardsnap_sim::{SimEngine, Simulator};
use hardsnap_util::prop::from_fn;
use hardsnap_util::prop_check;
use hardsnap_util::Rng;
use hardsnap_verilog::gen_module;

/// A serialized register+memory image, the moral equivalent of the
/// snapshot a `SimTarget::capture` would take.
fn snapshot_image(sim: &Simulator) -> Vec<u8> {
    let m = sim.module().clone();
    let mut out = Vec::new();
    for id in m.clocked_regs() {
        out.extend_from_slice(&sim.peek_id(id).bits().to_le_bytes());
    }
    for (id, _) in m.iter_mems() {
        for &w in sim.mem_words(id) {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    out
}

/// Drives `sims` in lockstep with identical random stimulus for
/// `cycles` cycles, asserting full-state agreement after every step.
/// Returns the concatenated snapshot images taken along the way.
///
/// Besides input pokes the stimulus has quiet stretches (inputs held
/// for 2–8 cycles, so an engine that skips idle logic actually gets
/// to skip), direct pokes of one clocked register or memory word, and
/// restores: every register and memory word poked back to an image
/// saved earlier, as a snapshot restore writes them.
fn drive_lockstep(module: &Module, sims: &mut [Simulator], seed: u64, cycles: u32) -> Vec<u8> {
    let inputs: Vec<_> = module
        .ports()
        .filter(|(_, n)| n.port == Some(PortDir::Input) && n.name != "clk")
        .map(|(id, _)| id)
        .collect();
    let regs = module.clocked_regs();
    let mems: Vec<_> = module
        .iter_mems()
        .map(|(id, m)| (m.name.clone(), id))
        .collect();
    let mut rng = Rng::seed_from_u64(seed);
    let mut images = Vec::new();
    let mut quiet = 0u32;
    let mut saved: Option<(Vec<u64>, Vec<Vec<u64>>)> = None;
    for cycle in 0..cycles {
        if quiet > 0 {
            quiet -= 1;
        } else if rng.gen_bool(0.2) {
            quiet = rng.gen_range(2u32..=8);
        } else {
            for &id in &inputs {
                if rng.gen_bool(0.7) {
                    let v = rng.next_u64();
                    for sim in sims.iter_mut() {
                        sim.poke_id(id, v);
                    }
                }
            }
        }
        if let Some(&id) = rng.choose(&regs) {
            if rng.gen_bool(0.15) {
                let v = rng.next_u64();
                for sim in sims.iter_mut() {
                    sim.poke_id(id, v);
                }
            }
        }
        if rng.gen_bool(0.05) {
            let s = &sims[0];
            saved = Some((
                regs.iter().map(|&id| s.peek_id(id).bits()).collect(),
                mems.iter()
                    .map(|(_, id)| s.mem_words(*id).to_vec())
                    .collect(),
            ));
        }
        if let Some((reg_vals, mem_vals)) = &saved {
            if rng.gen_bool(0.05) {
                for sim in sims.iter_mut() {
                    for (&id, &v) in regs.iter().zip(reg_vals) {
                        sim.poke_id(id, v);
                    }
                    for ((name, _), words) in mems.iter().zip(mem_vals) {
                        for (addr, &w) in words.iter().enumerate() {
                            sim.poke_mem(name, addr as u32, w).unwrap();
                        }
                    }
                }
            }
        }
        if let Some((name, id)) = rng.choose(&mems) {
            if rng.gen_bool(0.1) {
                let addr = rng.gen_range(0..sims[0].mem_words(*id).len() as u32);
                let v = rng.next_u64();
                for sim in sims.iter_mut() {
                    sim.poke_mem(name, addr, v).unwrap();
                }
            }
        }
        if rng.gen_bool(0.02) {
            for sim in sims.iter_mut() {
                sim.clear_state();
            }
        }
        for sim in sims.iter_mut() {
            sim.step(1);
        }
        for (i, net) in module.iter_nets() {
            let want = sims[0].peek_id(i);
            for sim in &sims[1..] {
                assert_eq!(
                    sim.peek_id(i),
                    want,
                    "cycle {cycle}: net '{}' diverged between {:?} and {:?}",
                    net.name,
                    sims[0].engine(),
                    sim.engine(),
                );
            }
        }
        for (name, id) in &mems {
            let want = sims[0].mem_words(*id);
            for sim in &sims[1..] {
                assert_eq!(
                    sim.mem_words(*id),
                    want,
                    "cycle {cycle}: memory '{name}' diverged"
                );
            }
        }
        if cycle % 7 == 0 {
            let img = snapshot_image(&sims[0]);
            for sim in &sims[1..] {
                assert_eq!(snapshot_image(sim), img, "cycle {cycle}: snapshot diverged");
            }
            images.extend_from_slice(&img);
        }
    }
    images
}

#[test]
fn bytecode_and_interpreter_agree_on_random_designs() {
    prop_check!(cases = 48, seed = 0xD1FF_BEEF, (case_seed in from_fn(|rng: &mut Rng| rng.next_u64())) => {
        let mut rng = Rng::seed_from_u64(case_seed);
        let module = gen_module(&mut rng, "fuzz");
        let mut sims = [
            Simulator::with_engine(module.clone(), SimEngine::Bytecode)
                .unwrap_or_else(|e| panic!("seed {case_seed:#x}: bytecode: {e}")),
            Simulator::with_engine(module.clone(), SimEngine::BytecodeFullEval)
                .unwrap_or_else(|e| panic!("seed {case_seed:#x}: bytecode-full: {e}")),
            Simulator::with_engine(module.clone(), SimEngine::Interpreter)
                .unwrap_or_else(|e| panic!("seed {case_seed:#x}: interpreter: {e}")),
        ];
        drive_lockstep(&module, &mut sims, case_seed ^ 0x5715_0CAB, 64);
    });
}

#[test]
fn same_seed_gives_byte_identical_snapshots() {
    for case_seed in [3u64, 17, 99] {
        let run = |engine: SimEngine| {
            let mut rng = Rng::seed_from_u64(case_seed);
            let module = gen_module(&mut rng, "fuzz");
            let mut sims = [Simulator::with_engine(module.clone(), engine).unwrap()];
            drive_lockstep(&module, &mut sims, case_seed, 64)
        };
        let a = run(SimEngine::Bytecode);
        let b = run(SimEngine::Bytecode);
        assert_eq!(a, b, "bytecode runs must be deterministic");
        let c = run(SimEngine::Interpreter);
        assert_eq!(a, c, "interpreter snapshot stream must match bytecode");
        assert!(!a.is_empty());
    }
}
