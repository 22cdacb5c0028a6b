//! The RTL evaluation backend is an implementation detail: the compiled
//! bytecode engine (with and without dirty-cone scheduling) and the
//! reference interpreter must produce bit-identical analysis results on
//! the demo firmware, at every worker count.
//! This is the engine-level analogue of the `ci/check.sh` digest gate.

use hardsnap::firmware;
use hardsnap::{ConsistencyMode, Engine, EngineConfig, RunResult, Searcher};
use hardsnap_sim::{SimEngine, SimTarget};

fn config() -> EngineConfig {
    EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        max_instructions: 300_000,
        quantum: 4,
        ..Default::default()
    }
}

fn run(engine: SimEngine, workers: usize, asm: &str, config: &EngineConfig) -> RunResult {
    let soc = hardsnap_periph::soc().unwrap();
    let target = Box::new(SimTarget::with_engine(soc, engine).unwrap());
    let mut e = Engine::with_workers(target, workers, config.clone()).unwrap();
    e.load_firmware(&hardsnap_isa::assemble(asm).unwrap());
    e.run()
}

#[test]
fn sim_engine_choice_never_changes_the_digest() {
    // Same workload the CI gate drives: `analyze demo` = 2^3 paths.
    let asm = firmware::branching_firmware(3);
    let config = config();
    let reference = run(SimEngine::Interpreter, 1, &asm, &config);
    assert_eq!(reference.metrics.paths_completed, 8);
    let want = reference.canonical_digest();
    for engine in [
        SimEngine::Bytecode,
        SimEngine::BytecodeFullEval,
        SimEngine::Interpreter,
    ] {
        for workers in [1, 2, 4] {
            let r = run(engine, workers, &asm, &config);
            assert_eq!(
                r.canonical_digest(),
                want,
                "{engine:?} workers={workers}: digest diverged from interpreter"
            );
            assert_eq!(r.instructions, reference.instructions);
            assert_eq!(r.covered_pcs, reference.covered_pcs);
        }
    }
}
