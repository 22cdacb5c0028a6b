//! `hardsnap-cli` — command-line front door to the framework.
//!
//! ```text
//! hardsnap-cli stats <design.v> [--top NAME]
//! hardsnap-cli instrument <design.v> [--top NAME] [--scope PREFIX] -o <out.v>
//! hardsnap-cli sim <design.v> [--top NAME] --cycles N [--vcd out.vcd]
//! hardsnap-cli analyze <firmware.s> [--target sim|fpga] [--mode hardsnap|reboot|shared]
//!                      [--sim-engine bytecode|bytecode-full|interp]
//!                      [--fault-rate R [--fault-seed N]] [--workers N]
//!                      [--delta-snapshots on|off] [--max-instructions N]
//!                      [--snapshot-mem-budget BYTES]
//!                      [--save-snapshots DIR] [--resume DIR]
//!                      [--trace-out trace.json] [--metrics-out metrics.json]
//! hardsnap-cli trace-check <trace.json>
//! hardsnap-cli fuzz <firmware.s> [--inputs N] [--reset snapshot|reboot]
//!                   [--delta-snapshots on|off]
//! hardsnap-cli snapshot inspect <file>
//! hardsnap-cli snapshot validate [--deep] <file>
//! hardsnap-cli soc-stats
//! ```
//!
//! The built-in SoC (UART + TIMER + SHA-256 + AES-128) is used as the
//! hardware for `analyze` and `fuzz`; `stats`/`instrument`/`sim` accept
//! any Verilog file in the supported subset.

use hardsnap::{
    resume_campaign, snapshot_campaign, ConsistencyMode, Engine, EngineConfig, Searcher,
};
use hardsnap_bus::{FaultPlan, FaultyTarget, HwTarget, SnapshotFile};
use hardsnap_fpga::{FpgaOptions, FpgaTarget};
use hardsnap_fuzz::{FuzzConfig, Fuzzer, ResetStrategy};
use hardsnap_scan::{instrument, ScanOptions};
use hardsnap_sim::{SimEngine, SimTarget};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The campaign-service verbs carry CI-meaningful exit codes
    // (0 completed/stable, 1 error, 2 saturated, 3 flaky,
    // 4 cancelled/over-budget), so they dispatch before the plain
    // ok/fail commands.
    if let Some(
        cmd @ ("submit" | "status" | "cancel" | "wait" | "metrics" | "subscribe" | "dump-flight"
        | "top"),
    ) = args.first().map(String::as_str)
    {
        return match cmd_service(cmd, &args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                serve_error_code(&e)
            }
        };
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn run(args: &[String]) -> CliResult {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "stats" => cmd_stats(rest),
        "instrument" => cmd_instrument(rest),
        "sim" => cmd_sim(rest),
        "analyze" => cmd_analyze(rest),
        "trace-check" => cmd_trace_check(rest),
        "fuzz" => cmd_fuzz(rest),
        "snapshot" => cmd_snapshot(rest),
        "soc-stats" => cmd_soc_stats(),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'hardsnap-cli help')").into()),
    }
}

fn print_usage() {
    println!(
        "hardsnap — hardware/software co-testing with hardware snapshotting

USAGE:
  hardsnap-cli stats <design.v> [--top NAME]
      Parse + elaborate a Verilog design and print netlist statistics.
  hardsnap-cli instrument <design.v> [--top NAME] [--scope PREFIX] -o <out.v>
      Insert the scan chain + memory collars; write instrumented Verilog.
  hardsnap-cli sim <design.v> [--top NAME] --cycles N [--vcd out.vcd]
      Simulate a design for N cycles (inputs held at reset values).
  hardsnap-cli analyze <firmware.s> [--target sim|fpga] [--mode hardsnap|reboot|shared]
                       [--sim-engine bytecode|bytecode-full|interp] [--workers N]
                       [--delta-snapshots on|off] [--max-instructions N]
                       [--snapshot-mem-budget BYTES]
                       [--save-snapshots DIR] [--resume DIR]
                       [--trace-out trace.json] [--metrics-out metrics.json]
      Symbolically analyze HS32 firmware against the built-in SoC.
      --sim-engine selects the RTL evaluation backend (sim target only;
      all three produce bit-identical results — the digest proves it);
      --workers N explores with N hardware replicas, worker 0 on the
      main thread (more than one needs --mode hardsnap);
      --delta-snapshots on makes capture/restore O(changed state) with
      copy-on-write delta images (bit-identical digests either way);
      --snapshot-mem-budget caps resident snapshot bytes — cold entries
      spill to disk and page back in transparently;
      --save-snapshots checkpoints an interrupted campaign into
      DIR/campaign.hscamp and --resume continues one in a fresh process,
      on this host or any other the file is copied to (HardSnap mode
      only; the combined digest equals one uninterrupted run's);
      --trace-out / --metrics-out switch telemetry on and export a
      Chrome trace_event file (Perfetto / chrome://tracing) or a
      machine-readable metrics dump.
  hardsnap-cli trace-check <file>
      Validate an observability artifact, auto-detecting its format:
      a Chrome trace (monotonic per-track timestamps), a metrics
      snapshot (schema hardsnap-telemetry-v1), a flight-recorder dump
      (schema hardsnap-flight-v1), an NDJSON event stream (as captured
      by `subscribe`), or Prometheus text exposition.
  hardsnap-cli fuzz <firmware.s> [--inputs N] [--reset snapshot|reboot]
                    [--delta-snapshots on|off]
      Coverage-guided fuzzing of HS32 firmware against the built-in SoC.
  hardsnap-cli snapshot inspect <file>
      Print the metadata and section table of a snapshot file: a full
      or delta image, or a campaign checkpoint (DIR/campaign.hscamp).
  hardsnap-cli snapshot validate [--deep] <file>
      Validate a snapshot file; --deep re-verifies every checksum, and
      for a checkpoint deep-validates every nested image.
  hardsnap-cli soc-stats
      Print statistics of the built-in 4-peripheral SoC.

  The campaign-service verbs below talk to a running `hardsnap-serve`
  daemon (see `hardsnap-serve --help`) over its unix socket.
  hardsnap-cli submit <firmware> [--socket PATH] [--name S] [--workers N]
                      [--priority 0..7] [--fault-rate R] [--fault-seed N]
                      [--repeat N] [--max-instructions N] [--max-vtime-ns N]
                      [--max-quanta N] [--wall-ms N]
                      [--snapshot-mem-budget BYTES]
                      [--delta-snapshots on|off] [--leg-instructions N]
                      [--wait SECS]
      Submit a job. With --wait SECS, block until the terminal verdict
      and exit with its code. Exit codes: 0 completed/stable, 1 error,
      2 saturated (rejected at admission), 3 flaky, 4 cancelled or
      over-budget. --repeat N re-executes a completed job N times total
      with re-seeded fault plans and reports stable vs flaky.
      --priority picks the scheduling lane (7 = most urgent, default 3);
      it affects when the job starts, never its digest.
  hardsnap-cli status [JOB-ID] [--socket PATH]
      Print one job (exits with its verdict code) or the whole table,
      headed by daemon occupancy (queue depth, pool busy/total, warm
      pool, subscribers, events published/dropped) and per-job
      budget-consumed, lane and warm/cold-provenance columns.
  hardsnap-cli metrics [--socket PATH] [--format json|prom]
      Fetch the daemon's aggregated telemetry snapshot — engine
      counters/histograms merged across all jobs plus serve-level
      counters and occupancy gauges — as schema'd JSON (default) or
      Prometheus text exposition.
  hardsnap-cli subscribe [--socket PATH] [--count N] [--timeout-secs S]
                         [--out PATH]
      Stream live job-lifecycle events as NDJSON (one event object per
      line) to stdout or --out; stops after N events, after S seconds
      (default 30), or when the daemon shuts down.
  hardsnap-cli dump-flight [--socket PATH] [--out PATH]
      Dump the daemon's in-memory flight recorder (the last N protocol
      and lifecycle events, schema hardsnap-flight-v1).
  hardsnap-cli top [--socket PATH] [--interval-ms N] [--frames N]
      Live ANSI dashboard over subscribe + metrics: job table with
      budget bars, lane and queue-age columns, pool and warm-pool
      occupancy, per-lane queue depths, instructions/s and events/s,
      plus the most recent lifecycle events. --frames 0 (default) runs
      until the daemon goes away or Ctrl-C.
  hardsnap-cli cancel <job-id | daemon> [--socket PATH]
      Cooperatively cancel a job (it stops at the next quantum boundary
      with a resumable checkpoint), or shut the daemon down.
  hardsnap-cli wait <job-id> [--timeout SECS] [--socket PATH]
      Block until a job is terminal; exit with its verdict code."
    );
}

/// Tiny flag parser: positional args plus `--flag value` pairs.
fn parse_flags(args: &[String]) -> Result<(Vec<&str>, Vec<(&str, &str)>), String> {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name, v.as_str()));
            i += 2;
        } else if a == "-o" {
            let v = args.get(i + 1).ok_or("-o needs a value")?;
            flags.push(("out", v.as_str()));
            i += 2;
        } else {
            pos.push(a);
            i += 1;
        }
    }
    Ok((pos, flags))
}

fn flag<'a>(flags: &[(&'a str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

fn load_design(path: &str, top: Option<&str>) -> Result<hardsnap_rtl::Module, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let design = hardsnap_verilog::parse_design(&src).map_err(|e| format!("{path}:{e}"))?;
    let top = match top {
        Some(t) => t.to_string(),
        None => design
            .iter()
            .last()
            .map(|m| m.name.clone())
            .ok_or_else(|| format!("{path}: no modules"))?,
    };
    hardsnap_rtl::elaborate(&design, &top).map_err(|e| e.to_string())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let (pos, flags) = parse_flags(args)?;
    let path = pos.first().ok_or("stats: missing <design.v>")?;
    let m = load_design(path, flag(&flags, "top"))?;
    let stats = hardsnap_rtl::ModuleStats::of(&m);
    println!("{stats}");
    let (_, chain) =
        instrument(&m, &ScanOptions::default()).map_err(|e| format!("instrumentation: {e}"))?;
    println!(
        "scan chain: {} bits, {} memory collar words",
        chain.chain_bits(),
        chain.mem_words()
    );
    Ok(())
}

fn cmd_instrument(args: &[String]) -> CliResult {
    let (pos, flags) = parse_flags(args)?;
    let path = pos.first().ok_or("instrument: missing <design.v>")?;
    let out = flag(&flags, "out").ok_or("instrument: missing -o <out.v>")?;
    let m = load_design(path, flag(&flags, "top"))?;
    let opts = ScanOptions {
        scope: flag(&flags, "scope").map(str::to_string),
        skip_memories: false,
        ..ScanOptions::default()
    };
    let (instrumented, chain) = instrument(&m, &opts)?;
    std::fs::write(out, hardsnap_verilog::print_module(&instrumented))?;
    println!(
        "wrote {out}: {} chain bits across {} registers, {} collared memories",
        chain.chain_bits(),
        chain.segments.len(),
        chain.mems.len()
    );
    Ok(())
}

fn cmd_sim(args: &[String]) -> CliResult {
    let (pos, flags) = parse_flags(args)?;
    let path = pos.first().ok_or("sim: missing <design.v>")?;
    let cycles: u64 = flag(&flags, "cycles")
        .ok_or("sim: missing --cycles N")?
        .parse()?;
    let m = load_design(path, flag(&flags, "top"))?;
    let mut sim = hardsnap_sim::Simulator::new(m)?;
    let mut trace = flag(&flags, "vcd").map(|_| hardsnap_sim::VcdTrace::new(&mut sim));
    if sim.module().find_net("rst").is_some() {
        sim.poke("rst", 1)?;
        sim.step(2);
        sim.poke("rst", 0)?;
    }
    for _ in 0..cycles {
        sim.step(1);
        if let Some(t) = &mut trace {
            t.sample(&mut sim);
        }
    }
    println!("simulated {cycles} cycles of '{}'", sim.module().name);
    if let (Some(t), Some(path)) = (trace, flag(&flags, "vcd")) {
        std::fs::write(path, t.into_string())?;
        println!("trace written to {path}");
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> CliResult {
    let (pos, flags) = parse_flags(args)?;
    let path = pos.first().ok_or("analyze: missing <firmware.s>")?;
    // `demo` / `demo:K` runs the built-in branching firmware (2^K
    // paths) — no firmware file needed, used by the CI telemetry gate.
    let src = match path.strip_prefix("demo") {
        Some("") => hardsnap::firmware::branching_firmware(3),
        Some(rest) => match rest.strip_prefix(':').map(str::parse) {
            Some(Ok(k)) => hardsnap::firmware::branching_firmware(k),
            _ => return Err(format!("bad demo firmware spec '{path}' (want demo[:K])").into()),
        },
        None => std::fs::read_to_string(path)?,
    };
    let program = hardsnap_isa::assemble(&src).map_err(|e| format!("{path}:{e}"))?;
    let soc = hardsnap_periph::soc()?;
    let sim_engine = match flag(&flags, "sim-engine") {
        Some(name) => SimEngine::from_name(name).ok_or_else(|| {
            format!("unknown --sim-engine '{name}' (want bytecode|bytecode-full|interp)")
        })?,
        None => SimEngine::Bytecode,
    };
    let target: Box<dyn HwTarget> = match flag(&flags, "target").unwrap_or("sim") {
        "sim" => Box::new(SimTarget::with_engine(soc, sim_engine)?),
        "fpga" if flag(&flags, "sim-engine").is_some() => {
            return Err("--sim-engine only applies to --target sim".into())
        }
        "fpga" => Box::new(FpgaTarget::new(soc, &FpgaOptions::default())?),
        other => return Err(format!("unknown target '{other}'").into()),
    };
    let mode = match flag(&flags, "mode").unwrap_or("hardsnap") {
        "hardsnap" => ConsistencyMode::HardSnap,
        "reboot" => ConsistencyMode::NaiveConsistent,
        "shared" => ConsistencyMode::NaiveInconsistent,
        other => return Err(format!("unknown mode '{other}'").into()),
    };
    // --fault-rate injects deterministic link faults (seeded by
    // --fault-seed) between the engine and the target; recovery stats
    // land in the summary below.
    let target: Box<dyn HwTarget> = match flag(&flags, "fault-rate") {
        Some(r) => {
            let rate: f64 = r.parse().map_err(|_| format!("bad --fault-rate '{r}'"))?;
            let seed: u64 = match flag(&flags, "fault-seed") {
                Some(s) => s.parse().map_err(|_| format!("bad --fault-seed '{s}'"))?,
                None => 1,
            };
            Box::new(FaultyTarget::new(target, FaultPlan::uniform(seed, rate)))
        }
        None => target,
    };
    let workers: usize = match flag(&flags, "workers") {
        Some(w) => w.parse().map_err(|_| format!("bad --workers '{w}'"))?,
        None => 1,
    };
    let delta_snapshots = match flag(&flags, "delta-snapshots") {
        Some("on") => true,
        Some("off") | None => false,
        Some(other) => return Err(format!("bad --delta-snapshots '{other}' (want on|off)").into()),
    };
    let trace_out = flag(&flags, "trace-out");
    let metrics_out = flag(&flags, "metrics-out");
    let save_dir = flag(&flags, "save-snapshots");
    let resume_dir = flag(&flags, "resume");
    if (save_dir.is_some() || resume_dir.is_some()) && mode != ConsistencyMode::HardSnap {
        return Err("--save-snapshots/--resume require --mode hardsnap".into());
    }
    let mut config = EngineConfig {
        mode,
        searcher: Searcher::RoundRobin,
        delta_snapshots,
        ..Default::default()
    };
    if let Some(n) = flag(&flags, "max-instructions") {
        config.max_instructions = n
            .parse()
            .map_err(|_| format!("bad --max-instructions '{n}'"))?;
    }
    if let Some(b) = flag(&flags, "snapshot-mem-budget") {
        let bytes: usize = b
            .parse()
            .map_err(|_| format!("bad --snapshot-mem-budget '{b}'"))?;
        config.snapshot_mem_budget = Some(bytes);
    }
    if trace_out.is_some() || metrics_out.is_some() {
        config.telemetry.enabled = true;
    }
    let mut engine = Engine::with_workers(target, workers, config)?;
    match resume_dir {
        Some(dir) => resume_campaign(Path::new(dir), &mut engine)?,
        None => engine.load_firmware(&program),
    }
    let result = engine.run();
    if let Some(dir) = save_dir {
        snapshot_campaign(Path::new(dir), &mut engine, &result)?;
        println!("campaign saved to {dir}/");
    }
    println!("paths completed : {}", result.metrics.paths_completed);
    println!("instructions    : {}", result.instructions);
    println!("context switches: {}", result.metrics.context_switches);
    println!("hw virtual time : {} us", result.hw_virtual_time_ns / 1000);
    println!(
        "host time       : {:.3} ms",
        result.host_time.as_secs_f64() * 1e3
    );
    println!("canonical digest: {:#018x}", result.canonical_digest());
    let st = engine.store.stats();
    println!(
        "snapshot store  : spills {} / page-ins {} / resident peak {} bytes",
        st.spills,
        st.page_ins,
        engine.store.peak_bytes()
    );
    let solver = engine.executor.solver.stats;
    println!(
        "solver queries  : {} ({} cached)",
        solver.queries, solver.cached
    );
    println!(
        "faults          : injected {} / retried {} / recovered {} / quarantined {}",
        result.faults.injected,
        result.faults.retried,
        result.faults.recovered,
        result.faults.quarantined
    );
    for entry in &result.fault_log {
        println!("  fault: {entry}");
    }
    println!("bugs            : {}", result.bugs.len());
    for b in &result.bugs {
        println!(
            "  {:?} at pc {:#010x} ({}): {}",
            b.kind,
            b.pc,
            hardsnap_isa::disassemble_at(&program.image, b.pc),
            b.description
        );
        if let Some(tc) = &b.testcase {
            for (name, value) in tc.iter() {
                println!("    input {name} = {value:#x}");
            }
        }
    }
    if let Some(t) = &result.telemetry {
        println!();
        println!("{}", t.summary_table());
        let exec = t.counter("sim.ops_executed");
        let skip = t.counter("sim.ops_skipped");
        let runs = t.counter("sim.clocked_runs");
        let idle = t.counter("sim.clocked_skipped");
        if exec + skip > 0 {
            println!(
                "dirty-cone hit rate: {:.1}% of comb ops skipped ({skip} skipped, {exec} executed), \
                 {:.1}% of clocked-block runs skipped ({idle} skipped, {runs} run)",
                100.0 * skip as f64 / (exec + skip) as f64,
                100.0 * idle as f64 / (runs + idle).max(1) as f64
            );
        }
        if let Some(path) = trace_out {
            std::fs::write(path, t.chrome_trace_json())?;
            println!("chrome trace written to {path} (load in Perfetto / chrome://tracing)");
        }
        if let Some(path) = metrics_out {
            std::fs::write(path, t.metrics_json())?;
            println!("metrics written to {path}");
        }
    }
    Ok(())
}

/// Validates any observability artifact the toolchain emits, sniffing
/// the format: Chrome trace / metrics snapshot / flight dump (whole-file
/// JSON, discriminated by `traceEvents` or `schema`), an NDJSON event
/// stream captured from `subscribe`, or Prometheus text exposition.
fn cmd_trace_check(args: &[String]) -> CliResult {
    let (pos, _) = parse_flags(args)?;
    let path = pos.first().ok_or("trace-check: missing <file>")?;
    let src = std::fs::read_to_string(path)?;
    match hardsnap_util::json::parse(&src) {
        Ok(v) => {
            if v.get("traceEvents").is_some() {
                return check_chrome_trace(path, &v);
            }
            match v.get("schema").and_then(|s| s.as_str()) {
                Some("hardsnap-telemetry-v1") => {
                    hardsnap_telemetry::MetricsSnapshot::from_value(&v)
                        .map_err(|e| format!("{path}: {e}"))?;
                    println!("{path}: OK (metrics snapshot, schema hardsnap-telemetry-v1)");
                    Ok(())
                }
                Some("hardsnap-flight-v1") => {
                    hardsnap_telemetry::validate_flight_dump(&v)
                        .map_err(|e| format!("{path}: {e}"))?;
                    let n = v
                        .get("entries")
                        .and_then(|e| e.as_arr())
                        .map_or(0, <[_]>::len);
                    println!("{path}: OK (flight recorder dump, {n} entries)");
                    Ok(())
                }
                Some(other) => Err(format!("{path}: unknown schema '{other}'").into()),
                None => Err(format!(
                    "{path}: JSON, but neither a Chrome trace (traceEvents), a metrics \
                     snapshot, nor a flight dump (schema)"
                )
                .into()),
            }
        }
        // Not one JSON document: an NDJSON event stream or Prometheus
        // text exposition.
        Err(_) => check_event_stream_or_prometheus(path, &src),
    }
}

/// Validates an NDJSON event stream (every non-blank line a typed event
/// with strictly increasing `seq`), falling back to Prometheus text
/// exposition when the first line is not JSON.
fn check_event_stream_or_prometheus(path: &str, src: &str) -> CliResult {
    let lines: Vec<&str> = src.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err(format!("{path}: empty file").into());
    }
    if hardsnap_util::json::parse(lines[0]).is_ok() {
        let mut last_seq = None;
        for (i, line) in lines.iter().enumerate() {
            let v = hardsnap_util::json::parse(line)
                .map_err(|e| format!("{path}: line {}: {e}", i + 1))?;
            let ev = hardsnap_serve::Event::from_value(&v)
                .map_err(|e| format!("{path}: line {}: {e}", i + 1))?;
            if let Some(prev) = last_seq {
                if ev.seq <= prev {
                    return Err(format!(
                        "{path}: line {}: seq {} not increasing (prev {prev})",
                        i + 1,
                        ev.seq
                    )
                    .into());
                }
            }
            last_seq = Some(ev.seq);
        }
        println!("{path}: OK (event stream, {} events)", lines.len());
        return Ok(());
    }
    let families = hardsnap_telemetry::parse_prometheus(src).map_err(|e| format!("{path}: {e}"))?;
    hardsnap_telemetry::validate_exposition(&families).map_err(|e| format!("{path}: {e}"))?;
    let samples: usize = families.iter().map(|f| f.samples.len()).sum();
    println!(
        "{path}: OK (Prometheus exposition, {} families, {samples} samples)",
        families.len()
    );
    Ok(())
}

/// The original Chrome `trace_event` check: a non-empty `traceEvents`
/// array whose events carry the required keys, with timestamps
/// monotonically ordered within every track (`tid`).
fn check_chrome_trace(path: &str, v: &hardsnap_util::json::Value) -> CliResult {
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or("trace-check: missing traceEvents array")?;
    if events.is_empty() {
        return Err("trace-check: traceEvents is empty".into());
    }
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut checked = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("trace-check: event {i} missing ph"))?;
        ev.get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("trace-check: event {i} missing name"))?;
        if ph == "M" {
            continue; // metadata (thread names) carries no timestamp
        }
        let tid = ev
            .get("tid")
            .and_then(hardsnap_util::json::Value::as_u64)
            .ok_or_else(|| format!("trace-check: event {i} missing tid"))?;
        let ts = ev
            .get("ts")
            .and_then(hardsnap_util::json::Value::as_f64)
            .ok_or_else(|| format!("trace-check: event {i} missing ts"))?;
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "trace-check: event {i} on track {tid} goes back in time ({ts} < {prev})"
                )
                .into());
            }
        }
        last_ts.insert(tid, ts);
        checked += 1;
    }
    println!(
        "{path}: OK ({checked} events across {} tracks)",
        last_ts.len()
    );
    Ok(())
}

/// `snapshot inspect|validate` — poke at any file of the snapshot codec.
fn cmd_snapshot(args: &[String]) -> CliResult {
    let sub = args
        .first()
        .ok_or("snapshot: missing subcommand (inspect|validate)")?;
    // Parsed by hand: --deep is a boolean flag, which the generic flag
    // parser (every --flag eats a value) cannot express.
    let mut deep = false;
    let mut pos: Vec<&str> = Vec::new();
    for a in &args[1..] {
        match a.as_str() {
            "--deep" => deep = true,
            other if !other.starts_with('-') => pos.push(other),
            other => return Err(format!("snapshot {sub}: unknown flag '{other}'").into()),
        }
    }
    let file = *pos
        .first()
        .ok_or_else(|| format!("snapshot {sub}: missing <file>"))?;
    match sub.as_str() {
        "inspect" => {
            let f = SnapshotFile::open(Path::new(file))?;
            let meta = f.meta()?;
            println!("file         : {file} ({} bytes)", f.file_len());
            println!("kind         : {}", f.kind());
            println!("design       : {}", meta.design);
            println!("cycle        : {}", meta.cycle);
            println!("shape hash   : {:#018x}", meta.shape_hash);
            println!("content hash : {:#018x}", meta.content_hash);
            println!("regs / mems  : {} / {}", meta.n_regs, meta.n_mems);
            if !meta.base_ref.is_empty() {
                println!("base ref     : {}", meta.base_ref);
            }
            println!("sections     :");
            for s in f.sections() {
                println!(
                    "  {}[{}] offset {} len {} checksum {:#018x} content {:#018x}",
                    s.tag.name(),
                    s.index,
                    s.offset,
                    s.len,
                    s.checksum,
                    s.content_hash
                );
            }
            Ok(())
        }
        "validate" => {
            let f = SnapshotFile::open(Path::new(file))?;
            f.validate(deep)?;
            println!(
                "{file}: OK ({} validation, {} {} file, {} sections)",
                if deep { "deep" } else { "shallow" },
                f.kind(),
                f.meta()?.design,
                f.sections().len()
            );
            Ok(())
        }
        other => {
            Err(format!("unknown snapshot subcommand '{other}' (want inspect|validate)").into())
        }
    }
}

fn cmd_fuzz(args: &[String]) -> CliResult {
    let (pos, flags) = parse_flags(args)?;
    let path = pos.first().ok_or("fuzz: missing <firmware.s>")?;
    let src = std::fs::read_to_string(path)?;
    let program = hardsnap_isa::assemble(&src).map_err(|e| format!("{path}:{e}"))?;
    let inputs: u64 = flag(&flags, "inputs").unwrap_or("1000").parse()?;
    let reset = match flag(&flags, "reset").unwrap_or("snapshot") {
        "snapshot" => ResetStrategy::Snapshot,
        "reboot" => ResetStrategy::Reboot,
        other => return Err(format!("unknown reset strategy '{other}'").into()),
    };
    let delta_snapshots = match flag(&flags, "delta-snapshots") {
        Some("on") => true,
        Some("off") | None => false,
        Some(other) => return Err(format!("bad --delta-snapshots '{other}' (want on|off)").into()),
    };
    let target = Box::new(SimTarget::new(hardsnap_periph::soc()?)?);
    let mut fuzzer = Fuzzer::new(
        target,
        &program,
        FuzzConfig {
            max_inputs: inputs,
            reset,
            delta_snapshots,
            ..Default::default()
        },
    )?;
    let r = fuzzer.run()?;
    println!("executions      : {}", r.execs);
    println!("coverage (PCs)  : {}", r.coverage);
    println!("virtual hw time : {} ms", r.hw_virtual_time_ns / 1_000_000);
    println!("virtual execs/s : {:.1}", r.virtual_execs_per_sec);
    for c in &r.crashes {
        println!("crash: {} input {:#x?}", c.fault, c.input);
    }
    Ok(())
}

fn cmd_soc_stats() -> CliResult {
    let soc = hardsnap_periph::soc()?;
    println!("{}", hardsnap_rtl::ModuleStats::of(&soc));
    for (name, f) in hardsnap_periph::corpus() {
        let m = f()?;
        println!("  {}", hardsnap_rtl::ModuleStats::of(&m));
        let _ = name;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Campaign-service verbs (serve / submit / status / cancel / wait).
//
// These return real exit codes so CI can branch on the outcome:
//   0  completed / stable        3  flaky
//   1  error                     4  cancelled / over-budget
//   2  saturated (rejected at admission)

type ServeResult = Result<ExitCode, hardsnap_serve::ServeError>;

fn serve_error_code(e: &hardsnap_serve::ServeError) -> ExitCode {
    match e {
        hardsnap_serve::ServeError::Saturated { .. } => ExitCode::from(2),
        _ => ExitCode::FAILURE,
    }
}

fn cmd_service(cmd: &str, args: &[String]) -> ServeResult {
    let proto = |m: String| hardsnap_serve::ServeError::Protocol(m);
    let (pos, flags) = parse_flags(args).map_err(|e| proto(format!("{cmd}: {e}")))?;
    match cmd {
        "submit" => cmd_submit(&pos, &flags),
        "status" => cmd_status(&pos, &flags),
        "cancel" => cmd_cancel(&pos, &flags),
        "wait" => cmd_wait(&pos, &flags),
        "metrics" => cmd_metrics(&flags),
        "subscribe" => cmd_subscribe(&flags),
        "dump-flight" => cmd_dump_flight(&flags),
        "top" => cmd_top(&flags),
        _ => unreachable!("dispatched in main"),
    }
}

fn serve_socket(flags: &[(&str, &str)]) -> std::path::PathBuf {
    std::path::PathBuf::from(flag(flags, "socket").unwrap_or("hardsnap-serve-state/serve.sock"))
}

fn connect(flags: &[(&str, &str)]) -> Result<hardsnap_serve::Client, hardsnap_serve::ServeError> {
    hardsnap_serve::Client::connect_retry(&serve_socket(flags), std::time::Duration::from_secs(5))
}

fn parse_job_spec(
    pos: &[&str],
    flags: &[(&str, &str)],
) -> Result<hardsnap_serve::JobSpec, hardsnap_serve::ServeError> {
    let bad = |m: String| hardsnap_serve::ServeError::Protocol(m);
    let mut spec = hardsnap_serve::JobSpec {
        firmware: pos
            .first()
            .ok_or_else(|| bad("submit: missing <firmware> (e.g. demo:4)".into()))?
            .to_string(),
        ..hardsnap_serve::JobSpec::default()
    };
    if let Some(n) = flag(flags, "name") {
        spec.name = n.to_string();
    }
    let num = |name: &str, slot: &mut u64| -> Result<(), hardsnap_serve::ServeError> {
        if let Some(v) = flag(flags, name) {
            *slot = v.parse().map_err(|_| bad(format!("bad --{name} '{v}'")))?;
        }
        Ok(())
    };
    num("fault-seed", &mut spec.fault_seed)?;
    num("max-instructions", &mut spec.max_instructions)?;
    num("max-vtime-ns", &mut spec.max_vtime_ns)?;
    num("max-quanta", &mut spec.max_quanta)?;
    num("wall-ms", &mut spec.wall_ms)?;
    num("snapshot-mem-budget", &mut spec.snapshot_mem_budget)?;
    num("leg-instructions", &mut spec.leg_instructions)?;
    num("priority", &mut spec.priority)?;
    if let Some(v) = flag(flags, "workers") {
        spec.workers = v.parse().map_err(|_| bad(format!("bad --workers '{v}'")))?;
    }
    if let Some(v) = flag(flags, "fault-rate") {
        spec.fault_rate = v
            .parse()
            .map_err(|_| bad(format!("bad --fault-rate '{v}'")))?;
    }
    if let Some(v) = flag(flags, "repeat") {
        spec.repeat = v.parse().map_err(|_| bad(format!("bad --repeat '{v}'")))?;
    }
    match flag(flags, "delta-snapshots") {
        Some("on") => spec.delta_snapshots = true,
        Some("off") | None => {}
        Some(other) => {
            return Err(bad(format!(
                "bad --delta-snapshots '{other}' (want on|off)"
            )))
        }
    }
    Ok(spec)
}

fn print_summary(s: &hardsnap_serve::JobSummary) {
    let verdict = s
        .verdict
        .as_ref()
        .map(|v| v.as_str().to_string())
        .unwrap_or_else(|| "-".into());
    println!(
        "job {:>4}  {:<8}  L{}  {:<4}  {:<11}  bud {:>3}%  instr {:>9}  paths {:>5}  bugs {:>3}  wait {:>5} ms  run {:>6} ms  {}  {}",
        s.id,
        s.state.as_str(),
        s.lane,
        s.provenance.as_deref().unwrap_or("-"),
        verdict,
        s.budget_permille / 10,
        s.instructions,
        s.paths,
        s.bugs,
        s.queue_wait_ms,
        s.run_ms,
        s.digest.as_deref().unwrap_or("-"),
        s.name,
    );
}

/// One-line daemon occupancy header for `status` and `top`.
fn daemon_header(d: &hardsnap_serve::DaemonStats) -> String {
    let warm = if d.warm_target > 0 {
        format!(
            "  warm {}/{} ready (+{} building)",
            d.warm_ready, d.warm_target, d.warm_arming
        )
    } else {
        String::new()
    };
    format!(
        "daemon: queue {}  pool {}/{} busy{}  subscribers {}  events {} published / {} dropped",
        d.queue_depth,
        d.pool_busy,
        d.pool_replicas,
        warm,
        d.subscribers,
        d.events_published,
        d.events_dropped
    )
}

fn summary_exit(s: &hardsnap_serve::JobSummary) -> ExitCode {
    match &s.verdict {
        Some(v) => ExitCode::from(v.exit_code()),
        None => ExitCode::SUCCESS, // still queued/running: status is informational
    }
}

fn cmd_submit(pos: &[&str], flags: &[(&str, &str)]) -> ServeResult {
    let spec = parse_job_spec(pos, flags)?;
    let mut client = connect(flags)?;
    let id = client.submit(&spec)?;
    println!("submitted job {id}");
    if let Some(secs) = flag(flags, "wait") {
        let timeout = std::time::Duration::from_secs(secs.parse().map_err(|_| {
            hardsnap_serve::ServeError::Protocol(format!("bad --wait '{secs}' (want seconds)"))
        })?);
        let s = client.wait(id, timeout)?;
        print_summary(&s);
        return Ok(summary_exit(&s));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_status(pos: &[&str], flags: &[(&str, &str)]) -> ServeResult {
    let bad = |m: String| hardsnap_serve::ServeError::Protocol(m);
    let id = match pos.first() {
        Some(s) => Some(s.parse().map_err(|_| bad(format!("bad job id '{s}'")))?),
        None => None,
    };
    let mut client = connect(flags)?;
    let (jobs, daemon) = client.status_full(id)?;
    if let Some(id) = id {
        if jobs.is_empty() {
            return Err(hardsnap_serve::ServeError::Job(format!("unknown job {id}")));
        }
    }
    // The whole-table view leads with daemon occupancy; the single-job
    // view stays a bare summary (scripts parse its exit code anyway).
    if id.is_none() {
        if let Some(d) = &daemon {
            println!("{}", daemon_header(d));
        }
    }
    for s in &jobs {
        print_summary(s);
    }
    match (id, jobs.first()) {
        (Some(_), Some(s)) => Ok(summary_exit(s)),
        _ => Ok(ExitCode::SUCCESS),
    }
}

fn cmd_cancel(pos: &[&str], flags: &[(&str, &str)]) -> ServeResult {
    let bad = |m: String| hardsnap_serve::ServeError::Protocol(m);
    let what = pos
        .first()
        .ok_or_else(|| bad("cancel: missing <job-id | daemon>".into()))?;
    let mut client = connect(flags)?;
    if *what == "daemon" {
        client.shutdown()?;
        println!("daemon shutdown requested");
        return Ok(ExitCode::SUCCESS);
    }
    let id: u64 = what.parse().map_err(|_| bad("cancel: bad job id".into()))?;
    client.cancel(id)?;
    println!("cancel requested for job {id}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_wait(pos: &[&str], flags: &[(&str, &str)]) -> ServeResult {
    let bad = |m: String| hardsnap_serve::ServeError::Protocol(m);
    let id: u64 = pos
        .first()
        .ok_or_else(|| bad("wait: missing <job-id>".into()))?
        .parse()
        .map_err(|_| bad("wait: bad job id".into()))?;
    let timeout = match flag(flags, "timeout") {
        Some(s) => std::time::Duration::from_secs(
            s.parse().map_err(|_| bad(format!("bad --timeout '{s}'")))?,
        ),
        None => std::time::Duration::from_secs(600),
    };
    let mut client = connect(flags)?;
    let s = client.wait(id, timeout)?;
    print_summary(&s);
    Ok(summary_exit(&s))
}

fn cmd_metrics(flags: &[(&str, &str)]) -> ServeResult {
    let bad = |m: String| hardsnap_serve::ServeError::Protocol(m);
    let mut client = connect(flags)?;
    let v = client.metrics()?;
    match flag(flags, "format").unwrap_or("json") {
        "json" => println!("{}", v.to_json()),
        "prom" => {
            let snap = hardsnap_telemetry::MetricsSnapshot::from_value(&v)
                .map_err(|e| bad(format!("metrics: {e}")))?;
            print!("{}", hardsnap_telemetry::prometheus_text(&snap));
        }
        other => return Err(bad(format!("bad --format '{other}' (want json|prom)"))),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_dump_flight(flags: &[(&str, &str)]) -> ServeResult {
    let mut client = connect(flags)?;
    let v = client.dump_flight()?;
    match flag(flags, "out") {
        Some(path) => {
            std::fs::write(path, v.to_json())
                .map_err(|e| hardsnap_serve::ServeError::Io(format!("write {path}: {e}")))?;
            eprintln!("flight recorder written to {path}");
        }
        None => println!("{}", v.to_json()),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_subscribe(flags: &[(&str, &str)]) -> ServeResult {
    use std::io::Write;
    let bad = |m: String| hardsnap_serve::ServeError::Protocol(m);
    let count: usize = match flag(flags, "count") {
        Some(n) => n.parse().map_err(|_| bad(format!("bad --count '{n}'")))?,
        None => 0, // unbounded
    };
    let timeout_secs: u64 = match flag(flags, "timeout-secs") {
        Some(s) => s
            .parse()
            .map_err(|_| bad(format!("bad --timeout-secs '{s}'")))?,
        None => 30,
    };
    let mut out: Box<dyn Write> = match flag(flags, "out") {
        Some(path) => Box::new(
            std::fs::File::create(path)
                .map_err(|e| hardsnap_serve::ServeError::Io(format!("create {path}: {e}")))?,
        ),
        None => Box::new(std::io::stdout()),
    };
    let mut stream = connect(flags)?.subscribe()?;
    // Belt and braces: the deadline bounds keep-alive-punctuated waits,
    // the socket timeout bounds a silent dead stream.
    stream.set_read_timeout(Some(std::time::Duration::from_millis(250)))?;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(timeout_secs);
    stream.set_deadline(Some(deadline));
    let mut seen = 0usize;
    while std::time::Instant::now() < deadline && (count == 0 || seen < count) {
        match stream.next_event() {
            Ok(Some(ev)) => {
                writeln!(out, "{}", ev.to_value().to_json())
                    .map_err(|e| hardsnap_serve::ServeError::Io(format!("write: {e}")))?;
                seen += 1;
            }
            Ok(None) => break,  // daemon shut down
            Err(_) => continue, // read timeout: re-check the deadline
        }
    }
    out.flush()
        .map_err(|e| hardsnap_serve::ServeError::Io(format!("flush: {e}")))?;
    eprintln!("captured {seen} event(s)");
    Ok(ExitCode::SUCCESS)
}

/// 20-cell budget/occupancy bar, e.g. `[########------------]`.
fn bar20(permille: u64) -> String {
    let filled = (permille.min(1000) as usize * 20) / 1000;
    format!("[{}{}]", "#".repeat(filled), "-".repeat(20 - filled))
}

fn cmd_top(flags: &[(&str, &str)]) -> ServeResult {
    use std::io::Write;
    let bad = |m: String| hardsnap_serve::ServeError::Protocol(m);
    let interval_ms: u64 = match flag(flags, "interval-ms") {
        Some(n) => n
            .parse()
            .map_err(|_| bad(format!("bad --interval-ms '{n}'")))?,
        None => 500,
    };
    let frames: u64 = match flag(flags, "frames") {
        Some(n) => n.parse().map_err(|_| bad(format!("bad --frames '{n}'")))?,
        None => 0, // until the daemon goes away
    };
    let mut client = connect(flags)?;
    let mut stream = connect(flags)?.subscribe()?;
    stream.set_read_timeout(Some(std::time::Duration::from_millis(25)))?;
    let mut recent: std::collections::VecDeque<String> = std::collections::VecDeque::new();
    let mut events_total: u64 = 0;
    let mut last: Option<(u64, std::time::Instant)> = None;
    let mut frame: u64 = 0;
    loop {
        // Drain whatever the event stream buffered since the last
        // frame (bounded, so a burst cannot starve rendering).
        let mut drained = 0;
        loop {
            match stream.next_event() {
                Ok(Some(ev)) => {
                    events_total += 1;
                    recent.push_back(format!(
                        "#{:<8} {:<16} job {}",
                        ev.seq,
                        ev.body.kind(),
                        ev.body.job_id()
                    ));
                    while recent.len() > 6 {
                        recent.pop_front();
                    }
                    drained += 1;
                    if drained >= 256 {
                        break;
                    }
                }
                Ok(None) | Err(_) => break,
            }
        }
        let Ok((jobs, daemon)) = client.status_full(None) else {
            println!("top: daemon went away");
            break;
        };
        let snap = client
            .metrics()
            .ok()
            .and_then(|v| hardsnap_telemetry::MetricsSnapshot::from_value(&v).ok());
        let now = std::time::Instant::now();
        let instr: u64 = jobs.iter().map(|j| j.instructions).sum();
        let rate = match last {
            Some((prev, t)) if now > t => {
                (instr.saturating_sub(prev) as f64 / now.duration_since(t).as_secs_f64()) as u64
            }
            _ => 0,
        };
        last = Some((instr, now));

        let mut screen = String::from("\x1b[2J\x1b[H");
        screen.push_str(&format!(
            "hardsnap top — {}  (frame {frame}, every {interval_ms} ms)\n",
            serve_socket(flags).display()
        ));
        if let Some(d) = &daemon {
            let occ = if d.pool_replicas > 0 {
                d.pool_busy as u64 * 1000 / d.pool_replicas as u64
            } else {
                0
            };
            screen.push_str(&format!("{}\n", daemon_header(d)));
            screen.push_str(&format!(
                "pool {} {:>3}%   instr/s {rate}   events seen {events_total}\n",
                bar20(occ),
                occ / 10
            ));
            if d.warm_target > 0 {
                let ready = d.warm_ready * 1000 / d.warm_target;
                screen.push_str(&format!(
                    "warm {} {:>3}%   {} ready / {} leased / {} building of {}\n",
                    bar20(ready),
                    ready / 10,
                    d.warm_ready,
                    d.warm_leased,
                    d.warm_arming,
                    d.warm_target
                ));
            }
        }
        // Per-lane queue depth, from the queued jobs themselves.
        {
            let mut lanes = [0u64; 8];
            for j in &jobs {
                if j.state == hardsnap_serve::JobState::Queued {
                    lanes[(j.lane as usize).min(7)] += 1;
                }
            }
            if lanes.iter().any(|&n| n > 0) {
                screen.push_str("lanes ");
                for (i, n) in lanes.iter().enumerate() {
                    screen.push_str(&format!("L{i}:{n} "));
                }
                screen.push('\n');
            }
        }
        if let Some(s) = &snap {
            screen.push_str(&format!(
                "completed {}  cancelled {}  quanta {}  snapshots {}  scrapes {}\n",
                s.counter("serve.jobs_completed"),
                s.counter("serve.jobs_cancelled"),
                s.counter("quanta"),
                s.counter("snapshots_saved"),
                s.counter("serve.metrics_scrapes"),
            ));
        }
        screen.push('\n');
        screen.push_str(
            "  ID  STATE     LANE  SRC   AGE-MS  BUDGET                      INSTR      PATHS  BUGS  NAME\n",
        );
        for j in &jobs {
            screen.push_str(&format!(
                "{:>4}  {:<8}  L{}    {:<4}  {:>6}  {} {:>3}%  {:>9}  {:>5}  {:>4}  {}\n",
                j.id,
                j.state.as_str(),
                j.lane,
                j.provenance.as_deref().unwrap_or("-"),
                j.queue_wait_ms,
                bar20(j.budget_permille),
                j.budget_permille / 10,
                j.instructions,
                j.paths,
                j.bugs,
                j.name,
            ));
        }
        if !recent.is_empty() {
            screen.push_str("\nrecent events:\n");
            for line in &recent {
                screen.push_str("  ");
                screen.push_str(line);
                screen.push('\n');
            }
        }
        print!("{screen}");
        let _ = std::io::stdout().flush();

        frame += 1;
        if frames > 0 && frame >= frames {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
    Ok(ExitCode::SUCCESS)
}
