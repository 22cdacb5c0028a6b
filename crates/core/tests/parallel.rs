//! The engine's headline invariant: worker count changes the wall
//! clock, never the result. Every test compares runs across worker
//! counts via the canonical digest.

use hardsnap::firmware::{self, PlantedBug};
use hardsnap::{
    ConsistencyMode, Engine, EngineConfig, EngineMetrics, ParallelEngine, RunResult, Searcher,
    StopReason, TelemetryConfig,
};
use hardsnap_bus::{BusError, HwSnapshot, HwTarget, TargetCaps, TargetError};
use hardsnap_sim::SimTarget;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

fn config() -> EngineConfig {
    EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        max_instructions: 300_000,
        quantum: 4,
        ..Default::default()
    }
}

fn sequential_run(asm: &str, config: &EngineConfig) -> RunResult {
    parallel_run(asm, config, 1).0
}

fn sim() -> Box<SimTarget> {
    Box::new(SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap())
}

fn parallel_run(asm: &str, config: &EngineConfig, workers: usize) -> (RunResult, EngineMetrics) {
    let mut engine = Engine::with_workers(sim(), workers, config.clone()).unwrap();
    let prog = hardsnap_isa::assemble(asm).unwrap();
    engine.load_firmware(&prog);
    let result = engine.run();
    assert!(
        engine.store.is_empty() && engine.store.total_bytes() == 0,
        "all private snapshots and their delta bases retired with their states \
         ({} left, {} bytes)",
        engine.store.len(),
        engine.store.total_bytes()
    );
    (result, engine.metrics)
}

#[test]
fn worker_count_does_not_change_the_result() {
    let asm = firmware::branching_firmware(4);
    let config = config();
    let seq = sequential_run(&asm, &config);
    assert_eq!(seq.metrics.paths_completed, 16);
    let seq_digest = seq.canonical_digest();

    let mut par_digests = Vec::new();
    for workers in [1, 2, 4] {
        let (r, metrics) = parallel_run(&asm, &config, workers);
        assert_eq!(metrics.paths_completed, 16, "workers={workers}");
        assert!(r.bugs.is_empty(), "workers={workers}: {:?}", r.bugs);
        assert_eq!(r.covered_pcs, seq.covered_pcs, "workers={workers}");
        assert_eq!(r.instructions, seq.instructions, "workers={workers}");
        par_digests.push((workers, r.canonical_digest(), r.hw_virtual_time_ns));
    }
    for &(workers, digest, _) in &par_digests {
        assert_eq!(
            digest, seq_digest,
            "workers={workers}: parallel result differs from sequential"
        );
    }
    // Hardware virtual time is a sum of per-state costs, so past one
    // worker it too is schedule-invariant (one worker restores less
    // because consecutive quanta of a state can share a live context).
    let t2 = par_digests[1].2;
    for &(workers, _, t) in &par_digests[1..] {
        assert_eq!(t, t2, "workers={workers}: virtual time diverged");
    }
    assert!(
        par_digests[0].2 <= t2,
        "one worker skips restores, never adds"
    );
}

/// A budget stop returns every worker's deque to the engine's frontier
/// (flattened, but for worker 0's), and the next `run()` on the same
/// engine starts all of it in worker 0's deque. The legs together must
/// complete exactly the paths of one uninterrupted run, each once.
#[test]
fn rerunning_one_engine_after_budget_stops_completes_every_path_once() {
    let asm = firmware::branching_firmware(5);
    let whole = sequential_run(&asm, &config());
    assert_eq!(whole.metrics.paths_completed, 32);
    let path = |s: &hardsnap_symex::SymState| (s.id.0, s.pc, s.instret, s.console.clone());
    let want: Vec<_> = whole.completed.iter().map(path).collect();
    let prog = hardsnap_isa::assemble(&asm).unwrap();
    for workers in [2, 4] {
        // Each run counts instructions from zero (no campaign carry).
        let cfg = EngineConfig {
            max_instructions: whole.instructions / 4,
            ..config()
        };
        let mut engine = Engine::with_workers(sim(), workers, cfg).unwrap();
        engine.load_firmware(&prog);
        let (mut got, mut instructions, mut runs) = (Vec::new(), 0, 0);
        let last = loop {
            let r = engine.run();
            runs += 1;
            got.extend(r.completed.iter().map(path));
            instructions += r.instructions;
            if r.stop == StopReason::Complete {
                break r;
            }
            assert_eq!(r.stop, StopReason::Instructions, "workers={workers}");
            assert!(
                engine.active_states() > 0,
                "workers={workers}: a drained run read {}",
                r.stop
            );
            assert!(runs < 100, "workers={workers}: never completed");
        };
        assert!(runs >= 3, "workers={workers}: only {runs} runs");
        got.sort();
        let mut ids: Vec<u64> = got.iter().map(|p| p.0).collect();
        ids.dedup();
        assert_eq!(
            ids.len(),
            got.len(),
            "workers={workers}: a path completed twice"
        );
        assert_eq!(got, want, "workers={workers}: completed paths differ");
        assert_eq!(instructions, whole.instructions, "workers={workers}");
        assert_eq!(last.covered_pcs, whole.covered_pcs, "workers={workers}");
        assert!(
            engine.store.is_empty() && engine.store.total_bytes() == 0,
            "workers={workers}: snapshots left in the store"
        );
    }
}

#[test]
fn parallel_engine_finds_the_same_bugs() {
    let config = config();
    for bug in PlantedBug::all() {
        let asm = firmware::vulnerable_firmware(bug);
        let seq = sequential_run(&asm, &config);
        assert!(
            !seq.bugs.is_empty(),
            "{}: seed workload finds bugs",
            bug.name()
        );
        for workers in [1, 4] {
            let (r, _) = parallel_run(&asm, &config, workers);
            assert_eq!(
                r.canonical_digest(),
                seq.canonical_digest(),
                "{} workers={workers}",
                bug.name()
            );
            assert_eq!(r.bugs.len(), seq.bugs.len());
        }
    }
}

#[test]
fn fork_heavy_stress_hammers_the_shared_store() {
    // 2^7 = 128 paths with a 2-instruction quantum: every state is
    // context-switched constantly, so the sharded store sees a dense
    // mix of concurrent insert/update/remove from all 4 workers.
    let asm = firmware::branching_firmware(7);
    let config = EngineConfig {
        quantum: 2,
        ..config()
    };
    let seq_digest = sequential_run(&asm, &config).canonical_digest();
    for delta in [false, true] {
        let config = EngineConfig {
            delta_snapshots: delta,
            ..config.clone()
        };
        let (r, metrics) = parallel_run(&asm, &config, 4);
        assert_eq!(metrics.paths_completed, 128, "delta={delta}");
        assert!(r.bugs.is_empty(), "delta={delta}: {:?}", r.bugs);
        assert_eq!(
            r.canonical_digest(),
            seq_digest,
            "delta={delta}: stress run must stay deterministic"
        );
    }
}

#[test]
fn baselines_are_rejected() {
    for mode in [
        ConsistencyMode::NaiveConsistent,
        ConsistencyMode::NaiveInconsistent,
    ] {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        assert!(
            Engine::with_workers(sim(), 2, config).is_err(),
            "{mode:?} must be refused (baselines serialize on one device)"
        );
    }
}

/// Threads seen by a [`ThreadSpy`] and its replicas.
#[derive(Default)]
struct Seen {
    stepped: Mutex<HashSet<ThreadId>>,
    restored: Mutex<HashSet<ThreadId>>,
    met: Condvar,
}

/// How long a [`ThreadSpy`] restore waits for the other worker: long
/// enough for a spawned thread to start and wait for a hand-off.
const MEET_WAIT: Duration = Duration::from_millis(50);

/// Delegating target that records which threads clock it; the replicas
/// it forks record into the same set. Each restore waits, at most
/// [`MEET_WAIT`], until `meet` distinct threads have reached one. Every
/// item starts in worker 0's deque, and worker 0 hands one to the other
/// worker only between quanta, once that worker waits; so worker 0
/// holds back a restore at a time until the other worker has restored a
/// handed-off item, and with two workers both run.
struct ThreadSpy {
    inner: Box<dyn HwTarget>,
    seen: Arc<Seen>,
    meet: usize,
    /// Panic in every restore, after recording the thread.
    panic_on_restore: bool,
}

impl HwTarget for ThreadSpy {
    fn name(&self) -> &str {
        "thread-spy"
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
        let me = std::thread::current().id();
        self.seen.stepped.lock().unwrap().insert(me);
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
        self.inner.save_snapshot()
    }
    fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError> {
        let mut met = self.seen.restored.lock().unwrap();
        met.insert(std::thread::current().id());
        self.seen.met.notify_all();
        if self.panic_on_restore {
            drop(met);
            panic!("restore refused");
        }
        let deadline = Instant::now() + MEET_WAIT;
        while met.len() < self.meet && Instant::now() < deadline {
            met = self
                .seen
                .met
                .wait_timeout(met, Duration::from_millis(50))
                .unwrap()
                .0;
        }
        drop(met);
        self.inner.restore_snapshot(snap)
    }
    fn virtual_time_ns(&self) -> u64 {
        self.inner.virtual_time_ns()
    }
    fn snapshot_shape(&self) -> u64 {
        self.inner.snapshot_shape()
    }
    fn fork_clean(&self) -> Result<Box<dyn HwTarget>, TargetError> {
        Ok(Box::new(ThreadSpy {
            inner: self.inner.fork_clean()?,
            seen: self.seen.clone(),
            meet: self.meet,
            panic_on_restore: self.panic_on_restore,
        }))
    }
}

/// Worker 0 runs on the calling thread, so a one-worker run spawns no
/// thread at all (whichever constructor built it) and two workers spawn
/// exactly one. Every item starts in worker 0's deque, so the other
/// worker runs only what worker 0 handed it, and the hand-off counter
/// shows it.
#[test]
fn worker_zero_runs_on_the_calling_thread() {
    let prog = hardsnap_isa::assemble(&firmware::branching_firmware(3)).unwrap();
    let me = std::thread::current().id();
    let config = || EngineConfig {
        telemetry: TelemetryConfig::ON,
        ..config()
    };
    let threads = |meet: usize, build: &dyn Fn(Box<dyn HwTarget>) -> Engine| {
        let seen = Arc::new(Seen::default());
        let spy = ThreadSpy {
            inner: sim(),
            seen: seen.clone(),
            meet,
            panic_on_restore: false,
        };
        let mut engine = build(Box::new(spy));
        engine.load_firmware(&prog);
        let r = engine.run();
        assert_eq!(r.metrics.paths_completed, 8);
        let handed_off = r
            .telemetry
            .expect("telemetry on")
            .counter("states_handed_off");
        let stepped = seen.stepped.lock().unwrap().clone();
        (stepped, handed_off)
    };
    let one = threads(1, &|t| Engine::new(t, config()));
    assert_eq!(one, (HashSet::from([me]), 0), "Engine::new");
    let one = threads(1, &|t| {
        ParallelEngine::new(t.as_ref(), 1, config()).unwrap()
    });
    assert_eq!(
        one,
        (HashSet::from([me]), 0),
        "ParallelEngine::new at 1 worker"
    );
    let (two, handed_off) = threads(2, &|t| Engine::with_workers(t, 2, config()).unwrap());
    assert!(two.contains(&me), "worker 0 ran elsewhere: {two:?}");
    assert_eq!(two.len(), 2, "want the caller plus one worker: {two:?}");
    assert!(handed_off >= 1, "the other worker ran without a hand-off");
}

/// A worker that panics stops the run: the other workers return instead
/// of waiting forever for its in-flight item, and the panic reaches the
/// caller of `run`.
#[test]
fn a_panicking_worker_stops_the_run() {
    let prog = hardsnap_isa::assemble(&firmware::branching_firmware(3)).unwrap();
    for workers in [2, 4] {
        let (tx, rx) = std::sync::mpsc::channel();
        let prog = prog.clone();
        std::thread::spawn(move || {
            let spy = ThreadSpy {
                inner: sim(),
                seen: Arc::new(Seen::default()),
                meet: 1,
                panic_on_restore: true,
            };
            let mut engine = Engine::with_workers(Box::new(spy), workers, config()).unwrap();
            engine.load_firmware(&prog);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run()));
            tx.send(run.is_err()).unwrap();
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("workers={workers}: the run hung after a worker panicked"));
        assert!(
            panicked,
            "workers={workers}: the panic did not reach the caller"
        );
    }
}
