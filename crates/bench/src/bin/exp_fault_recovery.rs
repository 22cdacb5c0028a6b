//! E-FR — "What does an unreliable target link cost, and does recovery
//! preserve the analysis result?"
//!
//! Sweeps a deterministic fault-injection rate over the transport
//! between the engine and its target replicas (bus handshake
//! timeouts, scan-chain bit flips, truncated captures, restore
//! timeouts, full hangs — see `hardsnap_bus::FaultPlan`) and records
//! the recovery work (retries, re-captures, quarantines) plus the
//! virtual-time overhead. The hard invariant checked on every run:
//! the canonical result digest is **bit-identical to the fault-free
//! run** — recovery is semantically invisible.
//!
//! The engine runs two workers, and which replica draws which fault
//! follows the schedule, so a faulted point is a distribution: each
//! point runs [`RUNS`] times and the record holds the median and range
//! of every count and of the modeled time. The fault-free point's
//! modeled time is a sum of per-state costs and must not move at all.
//!
//! Usage: `exp_fault_recovery [--smoke] [--json PATH]` (`--smoke`, the
//! CI chaos gate, runs each point once on a smaller firmware).

use hardsnap::firmware;
use hardsnap::{
    ConsistencyMode, Engine, EngineConfig, FaultPlan, FaultyTarget, HwTarget, MetricsSnapshot,
    Searcher, TelemetryConfig,
};
use hardsnap_bench::{banner, fmt_ns, row, Spread};
use hardsnap_sim::SimTarget;

const WORKERS: usize = 2;

/// Runs per point outside `--smoke`.
const RUNS: usize = 9;

/// Modeled time of the fault-free campaign over `branching_firmware(5)`:
/// a sum of per-state costs, the same at any worker count and on every
/// run.
const CLEAN_VTIME_NS_K5: u64 = 4_510_605_800;

fn config() -> EngineConfig {
    EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        quantum: 4,
        max_instructions: 3_000_000,
        // Telemetry on: the per-fault-class recovery histograms below
        // come from it, and running the digest invariant with telemetry
        // enabled doubles as an observer-effect regression test.
        telemetry: TelemetryConfig {
            enabled: true,
            trace_io: false,
        },
        ..Default::default()
    }
}

/// Per-fault-class recovery latency summary, extracted from the
/// telemetry histograms (`recovery_vtime_ns.<class>` ×
/// `recovery_retries.<class>`).
struct Recovery {
    class: String,
    episodes: u64,
    p50_vtime_ns: u64,
    p99_vtime_ns: u64,
    p99_retries: u64,
}

fn recovery_stats(t: Option<&MetricsSnapshot>) -> Vec<Recovery> {
    let Some(t) = t else { return Vec::new() };
    let mut out = Vec::new();
    for h in &t.hists {
        if let Some(class) = h.name.strip_prefix("recovery_vtime_ns.") {
            let retries = t.hist(&format!("recovery_retries.{class}"));
            out.push(Recovery {
                class: class.to_string(),
                episodes: h.count(),
                p50_vtime_ns: h.approx_quantile(0.5),
                p99_vtime_ns: h.approx_quantile(0.99),
                p99_retries: retries.map(|r| r.approx_quantile(0.99)).unwrap_or(0),
            });
        }
    }
    out
}

/// One fault-rate point of the sweep.
struct Point {
    rate: f64,
    injected: u64,
    retried: u64,
    recovered: u64,
    quarantined: u64,
    vtime_ns: u64,
    digest: u64,
    host_ms: u64,
    recovery: Vec<Recovery>,
}

/// One fault class's recovery over a point's runs.
struct ClassSpread {
    class: String,
    /// Per run, 0 where the class did not occur.
    episodes: Spread,
    /// Medians over the runs where the class occurred.
    p50_vtime_ns: u64,
    p99_vtime_ns: u64,
    /// The largest over the runs.
    p99_retries: u64,
}

/// Every fault class seen in any of `runs`, in first-seen order.
fn class_spreads(runs: &[Point]) -> Vec<ClassSpread> {
    let mut classes: Vec<&str> = Vec::new();
    for rec in runs.iter().flat_map(|p| &p.recovery) {
        if !classes.contains(&rec.class.as_str()) {
            classes.push(&rec.class);
        }
    }
    classes
        .into_iter()
        .map(|class| {
            let per_run: Vec<Option<&Recovery>> = runs
                .iter()
                .map(|p| p.recovery.iter().find(|r| r.class == class))
                .collect();
            let seen: Vec<&Recovery> = per_run.iter().flatten().copied().collect();
            let median = |f: fn(&Recovery) -> u64| {
                Spread::of(seen.iter().map(|r| f(r) as f64).collect()).median as u64
            };
            let episodes = per_run.iter().map(|r| r.map_or(0.0, |r| r.episodes as f64));
            ClassSpread {
                class: class.to_string(),
                episodes: Spread::of(episodes.collect()),
                p50_vtime_ns: median(|r| r.p50_vtime_ns),
                p99_vtime_ns: median(|r| r.p99_vtime_ns),
                p99_retries: seen.iter().map(|r| r.p99_retries).max().unwrap_or(0),
            }
        })
        .collect()
}

fn run_point(asm: &str, rate: f64, config: &EngineConfig) -> Point {
    let prog = hardsnap_isa::assemble(asm).unwrap();
    let soc = hardsnap_periph::soc().unwrap();
    let sim = SimTarget::new(soc).unwrap();
    let target: Box<dyn HwTarget> = if rate > 0.0 {
        Box::new(FaultyTarget::new(sim, FaultPlan::uniform(0xE4_FA17, rate)))
    } else {
        Box::new(sim)
    };
    let mut engine = Engine::with_workers(target, WORKERS, config.clone()).unwrap();
    engine.load_firmware(&prog);
    let r = engine.run();
    assert!(
        r.fault_log.is_empty(),
        "rate {rate}: states died: {:?}",
        r.fault_log
    );
    Point {
        rate,
        injected: r.faults.injected,
        retried: r.faults.retried,
        recovered: r.faults.recovered,
        quarantined: r.faults.quarantined,
        vtime_ns: r.hw_virtual_time_ns,
        digest: r.canonical_digest(),
        host_ms: r.host_time.as_millis() as u64,
        recovery: recovery_stats(r.telemetry.as_ref()),
    }
}

/// Dedicated quarantine point: zero fault budget plus a hang-prone
/// link forces replica replacement on every wedge.
fn run_quarantine(asm: &str, config: &EngineConfig) -> Point {
    let mut config = config.clone();
    config.retry.replica_fault_budget = 0;
    let prog = hardsnap_isa::assemble(asm).unwrap();
    let soc = hardsnap_periph::soc().unwrap();
    let sim = SimTarget::new(soc).unwrap();
    let plan = FaultPlan {
        seed: 0x0AB5_EC07,
        hang_rate: 0.10,
        ..FaultPlan::off()
    };
    let proto = Box::new(FaultyTarget::new(sim, plan));
    let mut engine = Engine::with_workers(proto, WORKERS, config.clone()).unwrap();
    engine.load_firmware(&prog);
    let r = engine.run();
    assert!(r.fault_log.is_empty(), "states died: {:?}", r.fault_log);
    Point {
        rate: 0.10,
        injected: r.faults.injected,
        retried: r.faults.retried,
        recovered: r.faults.recovered,
        quarantined: r.faults.quarantined,
        vtime_ns: r.hw_virtual_time_ns,
        digest: r.canonical_digest(),
        host_ms: r.host_time.as_millis() as u64,
        recovery: recovery_stats(r.telemetry.as_ref()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut json_path = "BENCH_fault_recovery.json".to_string();
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
    let fork_k: u32 = if smoke { 3 } else { 5 };
    let rates: &[f64] = if smoke {
        &[0.0, 0.10]
    } else {
        &[0.0, 0.02, 0.05, 0.10]
    };

    banner(
        "E-FR",
        "Fault-injected transport: recovery cost and result integrity",
        "retry/re-capture/quarantine absorb link faults; the canonical \
         digest must stay bit-identical to the fault-free run",
    );
    println!();
    println!(
        "--- {WORKERS}-worker engine over branching firmware (k={fork_k}), \
         uniform fault rate sweep ---"
    );
    let widths = [7, 12, 12, 12, 12, 10, 20, 9];
    row(
        &[
            "rate",
            "injected",
            "retried",
            "recovered",
            "quarantined",
            "hw-vtime",
            "overhead",
            "digest",
        ],
        &widths,
    );

    let asm = firmware::branching_firmware(fork_k);
    let config = config();
    let runs = if smoke { 1 } else { RUNS };
    let mut points: Vec<Vec<Point>> = rates
        .iter()
        .map(|&r| (0..runs).map(|_| run_point(&asm, r, &config)).collect())
        .collect();
    points.push((0..runs).map(|_| run_quarantine(&asm, &config)).collect());
    let (clean_vtime, clean_digest) = (points[0][0].vtime_ns, points[0][0].digest);
    for p in &points[0] {
        assert_eq!(
            p.vtime_ns, clean_vtime,
            "the fault-free modeled time moved between runs"
        );
    }
    if fork_k == 5 {
        assert_eq!(clean_vtime, CLEAN_VTIME_NS_K5, "fault-free modeled time");
    }
    let overhead = |p: &Point| p.vtime_ns as f64 / clean_vtime as f64 - 1.0;
    let spread =
        |runs: &[Point], f: &dyn Fn(&Point) -> f64| Spread::of(runs.iter().map(f).collect());
    let counts = |s: &Spread| format!("{} ({}-{})", s.median, s.min, s.max);
    let tag = |i: usize, p: &Point| {
        if i == points.len() - 1 {
            format!("q@{:.2}", p.rate)
        } else {
            format!("{:.2}", p.rate)
        }
    };
    for (i, runs) in points.iter().enumerate() {
        for p in runs {
            assert_eq!(
                p.digest, clean_digest,
                "rate {}: faults leaked into the result",
                p.rate
            );
        }
        let over = spread(runs, &|p| overhead(p) * 100.0);
        row(
            &[
                &tag(i, &runs[0]),
                &counts(&spread(runs, &|p| p.injected as f64)),
                &counts(&spread(runs, &|p| p.retried as f64)),
                &counts(&spread(runs, &|p| p.recovered as f64)),
                &counts(&spread(runs, &|p| p.quarantined as f64)),
                &fmt_ns(spread(runs, &|p| p.vtime_ns as f64).median as u64),
                &format!("{:+.1}% ({:+.1}..{:+.1})", over.median, over.min, over.max),
                &format!("{:08x}", runs[0].digest as u32),
            ],
            &widths,
        );
    }
    assert!(
        points.last().unwrap().iter().all(|p| p.quarantined >= 1),
        "the zero-budget hang plan must quarantine at least one replica"
    );

    println!();
    println!("--- per-fault-class recovery latency (telemetry histograms) ---");
    println!(
        "(episodes: median and range over runs; latencies: median over the runs with an episode)"
    );
    let rwidths = [7, 16, 13, 13, 13, 12];
    row(
        &[
            "rate",
            "class",
            "episodes",
            "p50 latency",
            "p99 latency",
            "p99 retries",
        ],
        &rwidths,
    );
    let mut point_recovery: Vec<Vec<ClassSpread>> = Vec::new();
    for (i, runs) in points.iter().enumerate() {
        let classes = class_spreads(runs);
        for c in &classes {
            row(
                &[
                    &tag(i, &runs[0]),
                    &c.class,
                    &counts(&c.episodes),
                    &fmt_ns(c.p50_vtime_ns),
                    &fmt_ns(c.p99_vtime_ns),
                    &c.p99_retries.to_string(),
                ],
                &rwidths,
            );
        }
        point_recovery.push(classes);
    }
    assert!(
        point_recovery
            .iter()
            .skip(1)
            .any(|classes| classes.iter().any(|c| c.episodes.max > 0.0)),
        "faulted points must produce per-class recovery histograms"
    );

    let mut entries = String::new();
    for (i, (runs, classes)) in points.iter().zip(&point_recovery).enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        let recovery = classes
            .iter()
            .map(|c| {
                format!(
                    "{{\"class\": \"{}\", \"episodes\": {}, \"p50_vtime_ns\": {}, \
                     \"p99_vtime_ns\": {}, \"p99_retries\": {}}}",
                    c.class,
                    c.episodes.json(0),
                    c.p50_vtime_ns,
                    c.p99_vtime_ns,
                    c.p99_retries
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        entries.push_str(&format!(
            "    {{\"rate\": {:.2}, \"zero_budget_quarantine\": {}, \"runs\": {}, \
             \"injected\": {}, \"retried\": {}, \"recovered\": {}, \"quarantined\": {}, \
             \"hw_vtime_ns\": {}, \"overhead_vs_clean\": {}, \
             \"host_ms\": {}, \"digest\": \"{:016x}\", \"recovery\": [{recovery}]}}",
            runs[0].rate,
            i == points.len() - 1,
            runs.len(),
            spread(runs, &|p| p.injected as f64).json(0),
            spread(runs, &|p| p.retried as f64).json(0),
            spread(runs, &|p| p.recovered as f64).json(0),
            spread(runs, &|p| p.quarantined as f64).json(0),
            spread(runs, &|p| p.vtime_ns as f64).json(0),
            spread(runs, &overhead).json(4),
            spread(runs, &|p| p.host_ms as f64).json(0),
            runs[0].digest,
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"fault_recovery\",\n  \
         \"workload\": \"branching_firmware({fork_k}), quantum 4, {WORKERS} workers, HardSnap\",\n  \
         \"invariant\": \"canonical digest bit-identical to fault-free on every run\",\n  \
         \"runs_per_point\": {runs},\n  \
         \"spread\": \"which replica draws which fault follows the schedule: counts, modeled time \
         and overhead are the median, min and max over the runs\",\n  \
         \"points\": [\n{entries}\n  ]\n}}\n"
    );
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    println!();
    println!("recorded {json_path}");
    println!("note: every row's digest equals the fault-free row — retries,");
    println!("re-captures and replica quarantines cost only virtual time. The");
    println!("final row reruns the 10% hang plan with a zero fault budget, so");
    println!("each wedge is survived by quarantine + rebuild instead of reset.");
}
