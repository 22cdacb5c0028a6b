//! Command line of the benchmark.
//!
//! ```text
//! hardsnap-benchmark --seed N [--workload W] [--seconds S] [--trace 0|1 | --traced]
//!                    [--smoke] [--out FILE]
//! ```
//!
//! With `--workload` it runs that workload in this process; without, it
//! runs every workload, each in a child process of its own so set-up
//! time and peak memory are per workload. It prints one
//! `workload metric value unit` line per metric and, last, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. It exits
//! with 1 when a correctness check fails and 2 on a usage error.

use hardsnap_benchmark::report::Report;
use hardsnap_benchmark::workload::{RunSpec, Workload};
use hardsnap_util::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Measured window of a full run, seconds.
const MEASURE_S: u64 = 25;
/// Unmeasured warm-up of a full run.
const WARMUP: Duration = Duration::from_secs(2);
/// Measured window and warm-up of a `--smoke` run.
const SMOKE_MEASURE: Duration = Duration::from_secs(2);
const SMOKE_WARMUP: Duration = Duration::from_millis(500);
/// Traces and the service's state directory, under the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    seed: u64,
    workload: Option<Workload>,
    seconds: Option<u64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: hardsnap-benchmark --seed N [--workload W] [--seconds S] \
                     [--trace 0|1 | --traced] [--smoke] [--out FILE]\n\
                     workloads: explore_w1 explore_w2 fuzz_uart serve_stream";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut seed = None;
    let mut args = Args {
        seed: 0,
        workload: None,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--workload" => {
                let w = value()?;
                args.workload = Some(Workload::parse(&w).ok_or(format!("unknown workload '{w}'"))?);
            }
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

/// One workload's JSON for `--out`: the result object plus every
/// printed line's metric (extras and digest included).
fn workload_json(result: &Value, lines: &[String]) -> Value {
    let mut obj = match result {
        Value::Obj(m) => m.clone(),
        _ => BTreeMap::new(),
    };
    let mut metrics = BTreeMap::new();
    for line in lines {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [_, name, value, unit] = f[..] {
            if name == "digest" {
                obj.insert("digest".into(), Value::Str(value.into()));
                continue;
            }
            let v = value.parse().map(Value::Num).unwrap_or(Value::Null);
            let m = BTreeMap::from([
                ("value".to_string(), v),
                ("unit".to_string(), Value::Str(unit.into())),
            ]);
            metrics.insert(name.to_string(), Value::Obj(m));
        }
    }
    obj.insert("metrics".into(), Value::Obj(metrics));
    Value::Obj(obj)
}

fn write_out(
    args: &Args,
    measure: Duration,
    workloads: BTreeMap<String, Value>,
) -> Result<(), String> {
    let Some(path) = &args.out else {
        return Ok(());
    };
    let doc = Value::Obj(BTreeMap::from([
        ("seed".to_string(), Value::Num(args.seed as f64)),
        ("seconds".to_string(), Value::Num(measure.as_secs_f64())),
        ("traced".to_string(), Value::Bool(args.traced)),
        ("workloads".to_string(), Value::Obj(workloads)),
    ]));
    std::fs::write(path, doc.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload here and prints its report.
fn run_one(args: &Args, w: Workload, spec: &RunSpec) -> Result<bool, String> {
    let report: Report = w.run(spec);
    let lines = report.lines();
    for l in &lines {
        println!("{l}");
    }
    for p in &report.problems {
        eprintln!("{}: {p}", w.name());
    }
    let result = report.result_json();
    println!("{result}");
    let v = parse(&result).map_err(|e| e.to_string())?;
    write_out(
        args,
        spec.measure,
        BTreeMap::from([(w.name().to_string(), workload_json(&v, &lines))]),
    )?;
    Ok(report.correct())
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args, measure: Duration) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = BTreeMap::new();
    let mut per_workload = BTreeMap::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &measure.as_secs().max(1).to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
        let last = lines.pop().unwrap_or_default();
        for l in &lines {
            println!("{l}");
        }
        let Ok(result) = parse(&last) else {
            eprintln!("{}: no result (exit {:?})", w.name(), out.status.code());
            all_ok = false;
            continue;
        };
        all_ok &=
            out.status.success() && result.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        if let Some(Value::Obj(m)) = result.get("metrics") {
            for (name, v) in m {
                metrics.insert(format!("{}.{name}", w.name()), v.clone());
            }
        }
        per_workload.insert(w.name().to_string(), workload_json(&result, &lines));
    }
    write_out(args, measure, per_workload)?;
    let summary = Value::Obj(BTreeMap::from([
        ("correct".to_string(), Value::Bool(all_ok)),
        ("attempted".to_string(), Value::Num(attempted)),
        ("failed".to_string(), Value::Num(failed)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ]));
    println!("{}", summary.to_json());
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (default_measure, warmup) = if args.smoke {
        (SMOKE_MEASURE, SMOKE_WARMUP)
    } else {
        (Duration::from_secs(MEASURE_S), WARMUP)
    };
    let measure = args.seconds.map_or(default_measure, Duration::from_secs);
    let outcome = match args.workload {
        Some(w) => {
            // Snapshot stores spill to the system temp directory unless
            // told otherwise: point it under the working directory so the
            // run writes nowhere else. Set before any thread starts.
            let tmp = PathBuf::from(OUT_DIR).join("tmp");
            if let Err(e) = std::fs::create_dir_all(&tmp) {
                eprintln!("{}: {e}", tmp.display());
                return ExitCode::from(1);
            }
            match std::fs::canonicalize(&tmp) {
                Ok(abs) => std::env::set_var("TMPDIR", abs),
                Err(e) => {
                    eprintln!("{}: {e}", tmp.display());
                    return ExitCode::from(1);
                }
            }
            let spec = RunSpec {
                seed: args.seed,
                measure,
                warmup,
                traced: args.traced,
                out_dir: PathBuf::from(OUT_DIR),
            };
            run_one(&args, w, &spec)
        }
        None => run_all(&args, measure),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}
