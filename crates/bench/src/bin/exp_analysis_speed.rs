//! E3 — "How beneficial is hardware snapshotting for firmware analysis?"
//!
//! Symbolic-execution throughput over branching firmware: HardSnap's
//! snapshot context switches vs the naive-and-consistent reboot+replay
//! baseline, sweeping the number of symbolic branches (paths = 2^k) and
//! the length of the device init sequence. A second part sweeps the
//! engine's worker count over a fork-heavy workload and records
//! the scaling curve in `BENCH_analysis_speed.json`. Past one worker
//! the campaign clock depends on the schedule, so every worker count
//! runs [`REPS`] times and the record holds the median and range.
//!
//! Usage: `exp_analysis_speed [--workers 1,2,4,8] [--json PATH]`.
//! With an explicit `--workers` list only the parallel sweep runs
//! (the CI smoke mode); without arguments the full experiment runs.

use hardsnap::firmware;
use hardsnap::{ConsistencyMode, Engine, EngineConfig, Searcher, TelemetryConfig};
use hardsnap_bench::{banner, fmt_ns, row, Spread};
use hardsnap_bus::HwTarget;
use hardsnap_fpga::{FpgaOptions, FpgaTarget};
use hardsnap_sim::SimTarget;

fn target(fpga: bool) -> Box<dyn HwTarget> {
    let soc = hardsnap_periph::soc().unwrap();
    if fpga {
        Box::new(FpgaTarget::new(soc, &FpgaOptions::default()).unwrap())
    } else {
        Box::new(SimTarget::new(soc).unwrap())
    }
}

fn run(mode: ConsistencyMode, src: &str, fpga: bool) -> (u64, u64, u64) {
    let prog = hardsnap_isa::assemble(src).unwrap();
    let config = EngineConfig {
        mode,
        searcher: Searcher::RoundRobin,
        quantum: 8,
        max_instructions: 3_000_000,
        ..Default::default()
    };
    let mut engine = Engine::new(target(fpga), config);
    engine.load_firmware(&prog);
    let r = engine.run();
    assert!(r.bugs.is_empty(), "{mode:?}: {:?}", r.bugs);
    (
        r.metrics.paths_completed,
        r.hw_virtual_time_ns,
        r.metrics.context_switches,
    )
}

/// Runs per worker count in the sweep, and alternating off/on pairs in
/// the telemetry check. Past one worker which replica takes which state
/// is a race, so one run is one sample of a wide distribution of
/// campaign clocks (a 1.5–5.9× speedup at 8 workers over 16 runs on a
/// 2-vCPU host).
const REPS: usize = 9;

/// One run of the worker sweep.
struct ScalePoint {
    instructions: u64,
    paths: u64,
    campaign_vtime_ns: u64,
    sum_vtime_ns: u64,
    digest: u64,
    host_secs: f64,
}

/// Runs the fork-heavy workload on `workers` replicas.
fn scale_point(asm: &str, workers: usize) -> ScalePoint {
    scale_point_telemetry(asm, workers, TelemetryConfig::OFF)
}

fn scale_point_telemetry(asm: &str, workers: usize, telemetry: TelemetryConfig) -> ScalePoint {
    let prog = hardsnap_isa::assemble(asm).unwrap();
    let config = EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        quantum: 4,
        max_instructions: 3_000_000,
        telemetry,
        ..Default::default()
    };
    let mut engine = Engine::with_workers(target(false), workers, config).unwrap();
    engine.load_firmware(&prog);
    let r = engine.run();
    assert!(r.bugs.is_empty(), "workers={workers}: {:?}", r.bugs);
    ScalePoint {
        instructions: r.instructions,
        paths: r.metrics.paths_completed,
        campaign_vtime_ns: engine.worker_vtimes_ns.iter().copied().max().unwrap_or(0),
        sum_vtime_ns: r.hw_virtual_time_ns,
        digest: r.canonical_digest(),
        host_secs: r.host_time.as_secs_f64(),
    }
}

/// Runs the worker sweep, prints the table and writes the JSON record.
fn parallel_sweep(worker_counts: &[usize], json_path: &str) {
    const FORK_K: u32 = 7; // 2^7 = 128 paths: fork-heavy.
    println!();
    println!(
        "--- parallel scaling: engine workers over branching firmware (k={FORK_K}), \
         {REPS} runs each ---"
    );
    let widths = [8, 7, 13, 14, 22, 20, 9];
    row(
        &[
            "workers",
            "paths",
            "instructions",
            "campaign-time",
            "campaign-time range",
            "speedup (range)",
            "digest",
        ],
        &widths,
    );
    let asm = firmware::branching_firmware(FORK_K);
    let mut base: Option<(u64, f64)> = None;
    let mut entries = Vec::new();
    for &workers in worker_counts {
        let runs: Vec<ScalePoint> = (0..REPS).map(|_| scale_point(&asm, workers)).collect();
        let p = &runs[0];
        let (digest, base_vtime) = *base.get_or_insert_with(|| {
            let one = Spread::of(runs.iter().map(|r| r.campaign_vtime_ns as f64).collect());
            (p.digest, one.median)
        });
        for r in &runs {
            assert_eq!(
                (r.digest, r.instructions),
                (digest, p.instructions),
                "workers={workers}: result diverged from workers={}",
                worker_counts[0]
            );
        }
        let spread = |f: &dyn Fn(&ScalePoint) -> f64| Spread::of(runs.iter().map(f).collect());
        let vtime = spread(&|r| r.campaign_vtime_ns as f64);
        let sum_vtime = spread(&|r| r.sum_vtime_ns as f64);
        let host_ms = spread(&|r| r.host_secs * 1e3);
        // Every worker count runs the same instructions, so the speedup
        // in instructions per modeled second is a ratio of clocks.
        let speedup = vtime.map(|v| base_vtime / v);
        let throughput = p.instructions as f64 / (vtime.median / 1e9);
        row(
            &[
                &workers.to_string(),
                &p.paths.to_string(),
                &p.instructions.to_string(),
                &fmt_ns(vtime.median as u64),
                &format!(
                    "{} – {}",
                    fmt_ns(vtime.min as u64),
                    fmt_ns(vtime.max as u64)
                ),
                &format!(
                    "{:.2}x ({:.2}–{:.2})",
                    speedup.median, speedup.min, speedup.max
                ),
                &format!("{:08x}", digest as u32),
            ],
            &widths,
        );
        entries.push(format!(
            "    {{\"workers\": {workers}, \"runs\": {REPS}, \"paths\": {}, \"instructions\": {}, \
             \"campaign_vtime_ns\": {}, \"sum_vtime_ns\": {}, \
             \"throughput_instr_per_s_median\": {throughput:.1}, \"speedup_vs_first\": {}, \
             \"host_ms\": {}, \"digest\": \"{digest:016x}\"}}",
            p.paths,
            p.instructions,
            vtime.json(0),
            sum_vtime.json(0),
            speedup.json(3),
            host_ms.json(1),
        ));
    }
    let telemetry = telemetry_check(&asm, *worker_counts.last().unwrap());
    let json = format!(
        "{{\n  \"experiment\": \"analysis_speed_parallel_scaling\",\n  \
         \"workload\": \"branching_firmware({FORK_K}), quantum 4, HardSnap, RoundRobin\",\n  \
         \"metric\": \"instructions per modeled second; campaign time = max per-replica virtual time; \
         each worker count runs {REPS} times, reported as median, min and max\",\n  \
         \"points\": [\n{}\n  ],\n  \"telemetry_check\": {telemetry}\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    println!();
    println!("recorded {json_path}");
    println!("note: throughput is instructions per modeled second (replicated");
    println!("boards run concurrently, so the campaign clock is the slowest");
    println!("replica's virtual time); host wall-clock additionally depends on");
    println!("how many host cores back the worker threads.");
}

/// Telemetry observer-effect check: the same workload with the
/// recorder disabled and enabled, in [`REPS`] alternating pairs, must
/// produce one canonical digest. The host times of runs this short
/// (tens of ms) spread more than any overhead they could show, so they
/// are reported as a spread, not as an overhead figure. Returns the
/// JSON record.
fn telemetry_check(asm: &str, workers: usize) -> String {
    let mut off = Vec::new();
    let mut on = Vec::new();
    for _ in 0..REPS {
        off.push(scale_point_telemetry(asm, workers, TelemetryConfig::OFF));
        on.push(scale_point_telemetry(asm, workers, TelemetryConfig::ON));
    }
    let digest = off[0].digest;
    assert!(
        off.iter().chain(&on).all(|p| p.digest == digest),
        "telemetry must not perturb the analysis result"
    );
    let ms = |runs: &[ScalePoint]| Spread::of(runs.iter().map(|p| p.host_secs * 1e3).collect());
    let (off_ms, on_ms) = (ms(&off), ms(&on));
    println!();
    println!(
        "telemetry check (workers={workers}, {REPS} alternating pairs): digests identical; \
         host ms disabled {:.1} ({:.1}–{:.1}), enabled {:.1} ({:.1}–{:.1})",
        off_ms.median, off_ms.min, off_ms.max, on_ms.median, on_ms.min, on_ms.max,
    );
    format!(
        "{{\"workers\": {workers}, \"pairs\": {REPS}, \"digests_identical\": true, \
         \"host_ms_disabled\": {}, \"host_ms_enabled\": {}}}",
        off_ms.json(1),
        on_ms.json(1)
    )
}

fn main() {
    // Minimal flag parsing: --workers 1,2,4,8 / --json PATH.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut worker_counts: Option<Vec<usize>> = None;
    let mut json_path = "BENCH_analysis_speed.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                i += 1;
                let list = args.get(i).expect("--workers needs a comma-separated list");
                worker_counts = Some(
                    list.split(',')
                        .map(|s| s.trim().parse().expect("worker count"))
                        .collect(),
                );
            }
            "--json" => {
                i += 1;
                json_path = args.get(i).expect("--json needs a path").clone();
            }
            other => panic!("unknown argument {other:?} (try --workers 1,2,4,8)"),
        }
        i += 1;
    }
    if let Some(counts) = worker_counts {
        // Smoke mode: just the parallel sweep.
        banner(
            "E3p",
            "Parallel scaling sweep (smoke mode)",
            "worker count changes the campaign clock, never the result",
        );
        parallel_sweep(&counts, &json_path);
        return;
    }

    banner(
        "E3",
        "Analysis speed: HardSnap vs naive-and-consistent reboots",
        "HardSnap avoids per-switch reboots; speedup grows with path count \
         and with init length (paper: snapshots amortize the INIT sequence)",
    );
    let widths = [9, 7, 15, 15, 9, 10];
    for fpga in [false, true] {
        println!();
        println!(
            "--- branching firmware (paths = 2^k) on the {} target ---",
            if fpga { "FPGA" } else { "simulator" }
        );
        row(
            &[
                "k",
                "paths",
                "hardsnap-time",
                "reboot-time",
                "speedup",
                "switches",
            ],
            &widths,
        );
        for k in [2u32, 3, 4, 5] {
            let src = firmware::branching_firmware(k);
            let (p_hs, t_hs, sw) = run(ConsistencyMode::HardSnap, &src, fpga);
            let (p_nc, t_nc, _) = run(ConsistencyMode::NaiveConsistent, &src, fpga);
            assert_eq!(p_hs, p_nc);
            row(
                &[
                    &k.to_string(),
                    &p_hs.to_string(),
                    &fmt_ns(t_hs),
                    &fmt_ns(t_nc),
                    &format!("{:.1}x", t_nc as f64 / t_hs as f64),
                    &sw.to_string(),
                ],
                &widths,
            );
        }
    }
    println!();
    println!("--- init-heavy firmware (k=3, sweeping init writes, simulator) ---");
    row(
        &[
            "init",
            "paths",
            "hardsnap-time",
            "reboot-time",
            "speedup",
            "switches",
        ],
        &widths,
    );
    for init in [10u32, 40, 160] {
        let src = firmware::init_heavy_firmware(init, 3);
        let (p_hs, t_hs, sw) = run(ConsistencyMode::HardSnap, &src, false);
        let (p_nc, t_nc, _) = run(ConsistencyMode::NaiveConsistent, &src, false);
        assert_eq!(p_hs, p_nc);
        row(
            &[
                &init.to_string(),
                &p_hs.to_string(),
                &fmt_ns(t_hs),
                &fmt_ns(t_nc),
                &format!("{:.1}x", t_nc as f64 / t_hs as f64),
                &sw.to_string(),
            ],
            &widths,
        );
    }
    println!();
    println!("note: on the simulator target the snapshot itself is CRIU-priced");
    println!("(~20 ms), so the advantage over a 100 ms reboot is a small factor;");
    println!("on the FPGA target the scan-chain snapshot costs ~70 us and the");
    println!("speedup is orders of magnitude — the shape the paper reports.");

    parallel_sweep(&[1, 2, 4, 8], &json_path);
}
