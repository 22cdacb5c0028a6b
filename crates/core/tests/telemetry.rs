//! Telemetry observer-effect and export guarantees.
//!
//! The telemetry layer is observe-only: switching it on (or varying
//! the worker count under it) must never change the canonical result
//! digest, and its Chrome-trace export must be valid, per-track
//! monotonic JSON that names the span taxonomy the engine emits.

use hardsnap::firmware;
use hardsnap::{
    ConsistencyMode, Engine, EngineConfig, FaultPlan, FaultyTarget, MetricsSnapshot, RunResult,
    Searcher, TelemetryConfig,
};
use hardsnap_sim::SimTarget;
use hardsnap_util::json;

fn config(telemetry: TelemetryConfig) -> EngineConfig {
    EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        quantum: 4,
        telemetry,
        ..Default::default()
    }
}

fn run_workers(workers: usize, telemetry: TelemetryConfig) -> RunResult {
    let prog = hardsnap_isa::assemble(&firmware::branching_firmware(3)).unwrap();
    let proto = Box::new(SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap());
    let mut engine = Engine::with_workers(proto, workers, config(telemetry)).unwrap();
    engine.load_firmware(&prog);
    engine.run()
}

#[test]
fn digest_identical_with_telemetry_on_off_across_worker_counts() {
    let baseline = run_workers(1, TelemetryConfig::OFF).canonical_digest();
    for workers in [1usize, 2, 4] {
        for telemetry in [TelemetryConfig::OFF, TelemetryConfig::ON] {
            let r = run_workers(workers, telemetry);
            assert_eq!(
                r.canonical_digest(),
                baseline,
                "workers={workers} telemetry={telemetry:?} diverged"
            );
            assert_eq!(
                r.telemetry.is_some(),
                telemetry.enabled,
                "telemetry snapshot present iff enabled"
            );
        }
    }
}

#[test]
fn one_worker_collects_its_track_telemetry() {
    let prog = hardsnap_isa::assemble(&firmware::branching_firmware(2)).unwrap();
    let target = Box::new(SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap());
    let mut engine = Engine::new(target, config(TelemetryConfig::ON));
    engine.load_firmware(&prog);
    let r = engine.run();
    let t = r.telemetry.expect("telemetry enabled");
    assert_eq!(t.tracks, vec![(0, "worker-0".to_string())]);
    assert_eq!(t.counter("context_switches"), r.metrics.context_switches);
    assert_eq!(t.counter("snapshots_saved"), r.metrics.snapshots_saved);
    assert!(t.counter("quanta") > 0, "quantum counter must tick");
    assert_eq!(
        t.counter("states_handed_off"),
        0,
        "one worker has no one to hand a state to"
    );
    assert!(
        t.hist("quantum_instructions").is_some(),
        "quantum length histogram recorded"
    );
    assert!(
        t.counter("store_hits") > 0,
        "store stats folded into the snapshot"
    );
}

/// End-to-end Chrome-trace contract: parses with the in-tree JSON
/// reader, has per-track thread-name metadata, strictly non-decreasing
/// timestamps per track, and covers the capture/restore/quantum span
/// taxonomy (plus retry spans when faults are injected).
#[test]
fn chrome_trace_roundtrips_and_names_the_span_taxonomy() {
    let prog = hardsnap_isa::assemble(&firmware::branching_firmware(3)).unwrap();
    let sim = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
    let proto = Box::new(FaultyTarget::new(sim, FaultPlan::uniform(0xE4_FA17, 0.08)));
    let mut engine = Engine::with_workers(proto, 2, config(TelemetryConfig::ON)).unwrap();
    engine.load_firmware(&prog);
    let r = engine.run();
    let t: &MetricsSnapshot = r.telemetry.as_ref().expect("telemetry enabled");

    let trace = t.chrome_trace_json();
    let v = json::parse(&trace).expect("trace is valid JSON");
    let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    assert!(!events.is_empty());

    let mut names: Vec<&str> = Vec::new();
    let mut meta_tracks = 0usize;
    let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).unwrap();
        let name = ev.get("name").and_then(|n| n.as_str()).unwrap();
        if ph == "M" {
            meta_tracks += 1;
            continue;
        }
        names.push(name);
        let tid = ev.get("tid").and_then(json::Value::as_u64).unwrap();
        let ts = ev.get("ts").and_then(json::Value::as_f64).unwrap();
        let prev = last_ts.entry(tid).or_insert(f64::MIN);
        assert!(ts >= *prev, "track {tid} not monotonic: {ts} < {prev}");
        *prev = ts;
    }
    assert_eq!(meta_tracks, 2, "one thread_name record per worker track");
    for expected in ["capture", "restore", "quantum"] {
        assert!(
            names.iter().any(|n| *n == expected),
            "trace must contain {expected:?} spans; got {names:?}"
        );
    }
    assert!(
        names
            .iter()
            .any(|n| n.starts_with("retry:") || n.starts_with("inject:")),
        "faulted run must contain retry/inject events; got {names:?}"
    );

    // The metrics JSON export parses too and agrees on a counter.
    let m = json::parse(&t.metrics_json()).expect("metrics JSON parses");
    assert_eq!(
        m.get("counters")
            .and_then(|c| c.get("context_switches"))
            .and_then(json::Value::as_u64),
        Some(t.counter("context_switches")),
    );
}
