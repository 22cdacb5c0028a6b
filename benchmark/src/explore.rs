//! `explore_w1` / `explore_w2`: HardSnap-mode symbolic exploration of a
//! seeded 512-path firmware, campaigns back to back.

use crate::gen::{explore_firmware, EXPLORE_BRANCHES};
use crate::report::Report;
use crate::stats::Failure;
use crate::timed::Clock;
use crate::workload::{check_layers_fit, closed_loop, report_peak_rss, set_up};
use crate::workload::{Outcome, RunSpec};
use hardsnap::{
    ConsistencyMode, Engine, EngineConfig, HwTarget, ParallelEngine, RunResult, Searcher,
    StopReason, StoreStats, TelemetryConfig,
};
use hardsnap_bus::TargetError;
use hardsnap_isa::Program;
use hardsnap_symex::SolverStats;

/// The exploration configuration: HardSnap mode, round-robin, a context
/// switch every 4 instructions, full snapshots, telemetry off.
pub fn config() -> EngineConfig {
    EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        quantum: 4,
        delta_snapshots: false,
        telemetry: TelemetryConfig::OFF,
        ..EngineConfig::default()
    }
}

/// One exploration campaign and the layer statistics its engine exposes.
pub struct Exploration {
    /// The engine's result.
    pub result: RunResult,
    /// Solver statistics (`Engine` only: `ParallelEngine` keeps one
    /// solver per worker and exposes none).
    pub solver: Option<SolverStats>,
    /// Snapshot-store statistics.
    pub store: StoreStats,
    /// Snapshot-store resident high-water mark, bytes.
    pub store_peak_bytes: usize,
}

/// Explores `program` on power-on replicas of `proto`, dispatching as
/// `hardsnap-cli analyze` does: one worker runs `Engine`, more run
/// `ParallelEngine`.
///
/// # Errors
///
/// A replica that cannot be forked.
pub fn explore(
    proto: &dyn HwTarget,
    workers: usize,
    program: &Program,
    config: EngineConfig,
) -> Result<Exploration, TargetError> {
    if workers > 1 {
        let mut engine = ParallelEngine::new(proto, workers, config)?;
        engine.load_firmware(program);
        let result = engine.run();
        Ok(Exploration {
            result,
            solver: None,
            store: engine.store.stats(),
            store_peak_bytes: engine.store.peak_bytes(),
        })
    } else {
        let mut engine = Engine::new(proto.fork_clean()?, config);
        engine.load_firmware(program);
        let result = engine.run();
        Ok(Exploration {
            result,
            solver: Some(engine.executor.solver.stats),
            store: engine.store.stats(),
            store_peak_bytes: engine.store.peak_bytes(),
        })
    }
}

/// What a correct campaign over the clean firmware must reproduce.
#[derive(Clone, Copy, Debug)]
struct Expected {
    /// Completed paths.
    pub paths: u64,
    /// Canonical digest.
    pub digest: u64,
    /// Modeled hardware time, ns (`None` until the first campaign of
    /// the workload's own engine sets it).
    pub vtime_ns: Option<u64>,
}

/// Checks one campaign: complete, every path done, no bug report (the
/// firmware's assertion holds whenever each path sees its own hardware
/// context), and the reference digest and modeled time.
fn judge(r: &RunResult, want: &Expected) -> Result<(), Failure> {
    if r.stop != StopReason::Complete {
        return Err(Failure::Wrong(format!("stopped: {}", r.stop)));
    }
    if r.metrics.paths_completed != want.paths {
        return Err(Failure::Wrong(format!(
            "{} paths, want {}",
            r.metrics.paths_completed, want.paths
        )));
    }
    if let Some(b) = r.bugs.first() {
        return Err(Failure::BugReport(format!(
            "{:?}: {}",
            b.kind, b.description
        )));
    }
    let digest = r.canonical_digest();
    if digest != want.digest {
        return Err(Failure::Digest(format!(
            "{digest:#x} != {:#x}",
            want.digest
        )));
    }
    match want.vtime_ns {
        Some(v) if v != r.hw_virtual_time_ns => Err(Failure::Wrong(format!(
            "modeled time {} ns != {v} ns",
            r.hw_virtual_time_ns
        ))),
        _ => Ok(()),
    }
}

/// Layer statistics of one traced campaign.
#[derive(Default)]
struct Stats {
    solver: Option<SolverStats>,
    store: StoreStats,
    store_peak_bytes: usize,
    context_switches: u64,
    quanta: u64,
}

/// Runs `explore_w1` (`workers` = 1) or `explore_w2` (`workers` = 2).
pub fn run(spec: &RunSpec, name: &str, workers: usize) -> Report {
    let mut report = Report::new(name, spec.traced);
    let firmware = explore_firmware(spec.seed, EXPLORE_BRANCHES);
    let (proto, program, first_setup) = match set_up(&firmware) {
        Ok(x) => x,
        Err(e) => {
            report.problems.push(format!("set-up failed: {e}"));
            return report;
        }
    };
    // The reference comes from the sequential engine, so explore_w2 is
    // checked against a different engine than the one it runs.
    let reference = match explore(&proto, 1, &program, config()) {
        Ok(x) => x.result,
        Err(e) => {
            report.problems.push(format!("reference run failed: {e}"));
            return report;
        }
    };
    let mut want = Expected {
        paths: 1 << EXPLORE_BRANCHES,
        digest: reference.canonical_digest(),
        vtime_ns: None,
    };
    if let Err(f) = judge(&reference, &want) {
        report.problems.push(format!("reference run wrong: {f:?}"));
    }
    let clock = spec.traced.then(Clock::new);
    let lp = closed_loop(
        spec,
        &proto,
        &firmware,
        first_setup,
        clock.as_ref(),
        &mut report,
        |_, target| {
            match explore(target, workers, &program, config()) {
                Ok(x) => {
                    let r = &x.result;
                    // The engine's modeled time is deterministic: the first
                    // campaign fixes it for the rest.
                    let vt = *want.vtime_ns.get_or_insert(r.hw_virtual_time_ns);
                    let check = judge(
                        r,
                        &Expected {
                            vtime_ns: Some(vt),
                            ..want
                        },
                    );
                    Outcome {
                        check,
                        units: r.metrics.paths_completed,
                        vtime_ns: r.hw_virtual_time_ns,
                        digest: r.canonical_digest(),
                        stats: Stats {
                            solver: x.solver,
                            store: x.store,
                            store_peak_bytes: x.store_peak_bytes,
                            context_switches: r.metrics.context_switches,
                            quanta: r.metrics.quanta,
                        },
                    }
                }
                Err(e) => Outcome::failed(Failure::Wrong(format!("engine set-up: {e}"))),
            }
        },
    );
    lp.report_end_to_end(&mut report);
    report_peak_rss(&mut report);
    if let Some(clock) = clock {
        let sim_ms = lp.report_sim_layer(&mut report);
        let n = lp.traced_stats.len().max(1) as f64;
        let mean = |f: &dyn Fn(&Stats) -> f64| lp.traced_stats.iter().map(f).sum::<f64>() / n;
        let solver = |f: fn(&SolverStats) -> u64| {
            move |s: &Stats| s.solver.as_ref().map_or(0.0, |x| f(x) as f64)
        };
        let solver_ms = mean(&solver(|x| x.time_us)) / 1e3;
        report.set(
            "symex.solver.queries",
            mean(&solver(|x| x.queries)),
            "count",
        );
        report.set("symex.solver.sat", mean(&solver(|x| x.sat)), "count");
        report.set("symex.solver.unsat", mean(&solver(|x| x.unsat)), "count");
        report.set("symex.solver.busy_ms", solver_ms, "ms");
        let self_ms = check_layers_fit(
            &mut report,
            workers as f64,
            lp.traced_wall_ms(),
            sim_ms + solver_ms,
        );
        report.set("core.engine.self_ms", self_ms, "ms");
        report.set(
            "core.engine.context_switches",
            mean(&|s| s.context_switches as f64),
            "count",
        );
        report.set("core.engine.quanta", mean(&|s| s.quanta as f64), "count");
        report.set("core.store.hits", mean(&|s| s.store.hits as f64), "count");
        report.set(
            "core.store.misses",
            mean(&|s| s.store.misses as f64),
            "count",
        );
        report.set(
            "core.store.evictions",
            mean(&|s| s.store.evictions as f64),
            "count",
        );
        report.set(
            "core.store.peak_kb",
            mean(&|s| s.store_peak_bytes as f64) / 1024.0,
            "kB",
        );
        crate::trace::finish(spec, &mut report, &clock);
    }
    report
}
