//! E-FR — "What does an unreliable target link cost, and does recovery
//! preserve the analysis result?"
//!
//! Sweeps a deterministic fault-injection rate over the transport
//! between the engine and its target replicas (bus handshake
//! timeouts, scan-chain bit flips, truncated captures, restore
//! timeouts, full hangs — see `hardsnap_bus::FaultPlan`) and records
//! the recovery work (retries, re-captures, quarantines) plus the
//! virtual-time overhead. The hard invariant checked on every point:
//! the canonical result digest is **bit-identical to the fault-free
//! run** — recovery is semantically invisible.
//!
//! Usage: `exp_fault_recovery [--smoke] [--json PATH]`.

use hardsnap::firmware;
use hardsnap::{
    ConsistencyMode, Engine, EngineConfig, FaultPlan, FaultyTarget, HwTarget, MetricsSnapshot,
    Searcher, TelemetryConfig,
};
use hardsnap_bench::{banner, fmt_ns, row};
use hardsnap_sim::SimTarget;

const WORKERS: usize = 2;

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
    let widths = [7, 9, 8, 10, 12, 13, 10, 9];
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
    let mut points: Vec<Point> = rates.iter().map(|&r| run_point(&asm, r, &config)).collect();
    points.push(run_quarantine(&asm, &config));
    let clean_vtime = points[0].vtime_ns;
    let clean_digest = points[0].digest;
    for (i, p) in points.iter().enumerate() {
        let quarantine_row = i == points.len() - 1;
        assert_eq!(
            p.digest, clean_digest,
            "rate {}: faults leaked into the result",
            p.rate
        );
        row(
            &[
                &if quarantine_row {
                    format!("q@{:.2}", p.rate)
                } else {
                    format!("{:.2}", p.rate)
                },
                &p.injected.to_string(),
                &p.retried.to_string(),
                &p.recovered.to_string(),
                &p.quarantined.to_string(),
                &fmt_ns(p.vtime_ns),
                &format!(
                    "{:+.1}%",
                    (p.vtime_ns as f64 / clean_vtime as f64 - 1.0) * 100.0
                ),
                &format!("{:08x}", p.digest as u32),
            ],
            &widths,
        );
    }
    let quarantine = points.last().unwrap();
    assert!(
        quarantine.quarantined >= 1,
        "the zero-budget hang plan must quarantine at least one replica"
    );

    println!();
    println!("--- per-fault-class recovery latency (telemetry histograms) ---");
    let rwidths = [7, 16, 9, 13, 13, 12];
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
    for (i, p) in points.iter().enumerate() {
        let tag = if i == points.len() - 1 {
            format!("q@{:.2}", p.rate)
        } else {
            format!("{:.2}", p.rate)
        };
        for rec in &p.recovery {
            row(
                &[
                    &tag,
                    &rec.class,
                    &rec.episodes.to_string(),
                    &fmt_ns(rec.p50_vtime_ns),
                    &fmt_ns(rec.p99_vtime_ns),
                    &rec.p99_retries.to_string(),
                ],
                &rwidths,
            );
        }
    }
    assert!(
        points
            .iter()
            .skip(1)
            .any(|p| p.recovery.iter().any(|r| r.episodes > 0)),
        "faulted points must produce per-class recovery histograms"
    );

    let mut entries = String::new();
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        let recovery = p
            .recovery
            .iter()
            .map(|r| {
                format!(
                    "{{\"class\": \"{}\", \"episodes\": {}, \"p50_vtime_ns\": {}, \
                     \"p99_vtime_ns\": {}, \"p99_retries\": {}}}",
                    r.class, r.episodes, r.p50_vtime_ns, r.p99_vtime_ns, r.p99_retries
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        entries.push_str(&format!(
            "    {{\"rate\": {:.2}, \"zero_budget_quarantine\": {}, \"injected\": {}, \
             \"retried\": {}, \"recovered\": {}, \"quarantined\": {}, \
             \"hw_vtime_ns\": {}, \"overhead_vs_clean\": {:.4}, \
             \"host_ms\": {}, \"digest\": \"{:016x}\", \"recovery\": [{recovery}]}}",
            p.rate,
            i == points.len() - 1,
            p.injected,
            p.retried,
            p.recovered,
            p.quarantined,
            p.vtime_ns,
            p.vtime_ns as f64 / clean_vtime as f64 - 1.0,
            p.host_ms,
            p.digest,
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"fault_recovery\",\n  \
         \"workload\": \"branching_firmware({fork_k}), quantum 4, {WORKERS} workers, HardSnap\",\n  \
         \"invariant\": \"canonical digest bit-identical to fault-free at every point\",\n  \
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
