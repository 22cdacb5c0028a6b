//! What every workload shares: the run parameters, the set-up that
//! `setup_s` times, the closed loop the explore and fuzz workloads run,
//! and the process's peak memory.

use crate::report::Report;
use crate::stats::{median, Failure, Ledger};
use crate::timed::{Clock, Op, OpTotals};
use hardsnap::HwTarget;
use hardsnap_isa::Program;
use hardsnap_sim::SimTarget;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workloads, in run order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Symbolic exploration, one engine thread.
    ExploreW1,
    /// The same exploration on two engine threads.
    ExploreW2,
    /// Snapshot-reset fuzzing of the UART parser.
    FuzzUart,
    /// An open-loop job stream into the campaign service.
    ServeStream,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::ExploreW1,
        Workload::ExploreW2,
        Workload::FuzzUart,
        Workload::ServeStream,
    ];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreW1 => "explore_w1",
            Workload::ExploreW2 => "explore_w2",
            Workload::FuzzUart => "fuzz_uart",
            Workload::ServeStream => "serve_stream",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload and reports on it.
    pub fn run(self, spec: &RunSpec) -> Report {
        match self {
            Workload::ExploreW1 => crate::explore::run(spec, self.name(), 1),
            Workload::ExploreW2 => crate::explore::run(spec, self.name(), 2),
            Workload::FuzzUart => crate::fuzz::run(spec),
            Workload::ServeStream => crate::serve::run(spec),
        }
    }
}

/// Parameters of one workload run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the measured window.
    pub measure: Duration,
    /// Unmeasured warm-up before the window.
    pub warmup: Duration,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Directory for traces and the service's state directory.
    pub out_dir: PathBuf,
}

/// Host time of one set-up's steps, ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `hardsnap_periph::soc()`: Verilog parse and elaborate.
    pub soc_ms: f64,
    /// `SimTarget::new`: bytecode compile.
    pub sim_ms: f64,
    /// `hardsnap_isa::assemble`.
    pub asm_ms: f64,
    /// `Daemon::new` plus arming the warm pool (serve only).
    pub warm_ms: f64,
}

impl SetupTimes {
    fn total_s(&self) -> f64 {
        (self.soc_ms + self.sim_ms + self.asm_ms + self.warm_ms) / 1e3
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One fresh set-up: build the SoC, compile it for the simulator and
/// assemble `firmware`.
///
/// # Errors
///
/// The first step that fails, as text.
pub fn set_up(firmware: &str) -> Result<(SimTarget, Program, SetupTimes), String> {
    let t = Instant::now();
    let soc = hardsnap_periph::soc().map_err(|e| format!("soc: {e}"))?;
    let soc_ms = ms_since(t);
    let t = Instant::now();
    let sim = SimTarget::new(soc).map_err(|e| format!("sim: {e}"))?;
    let sim_ms = ms_since(t);
    let t = Instant::now();
    let program = hardsnap_isa::assemble(firmware).map_err(|e| format!("assemble: {e}"))?;
    let asm_ms = ms_since(t);
    Ok((
        sim,
        program,
        SetupTimes {
            soc_ms,
            sim_ms,
            asm_ms,
            warm_ms: 0.0,
        },
    ))
}

/// Reports `setup_s` and the `setup.*` layer as medians over `times`.
pub(crate) fn report_setup(report: &mut Report, times: &[SetupTimes]) {
    let m = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", m(SetupTimes::total_s), "s");
    report.set("setup.soc_build_ms", m(|t| t.soc_ms), "ms");
    report.set("setup.sim_compile_ms", m(|t| t.sim_ms), "ms");
    report.set("setup.assemble_ms", m(|t| t.asm_ms), "ms");
    report.set("setup.warm_pool_ms", m(|t| t.warm_ms), "ms");
}

/// Reports the process's peak resident set (`VmHWM`), MB.
pub(crate) fn report_peak_rss(report: &mut Report) {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    match kb {
        Some(kb) => report.set("peak_rss_mb", kb / 1024.0, "MB"),
        None => report.problems.push("cannot read VmHWM".into()),
    }
}

/// What one closed-loop operation produced.
pub(crate) struct Outcome<S> {
    /// `Ok` when the output passed every check.
    pub check: Result<(), Failure>,
    /// Work units done (paths, fuzz inputs).
    pub units: u64,
    /// Modeled hardware time the operation consumed, ns.
    pub vtime_ns: u64,
    /// Digest or fingerprint of the output.
    pub digest: u64,
    /// Layer statistics the operation exposes.
    pub stats: S,
}

impl<S: Default> Outcome<S> {
    /// An operation that could not run at all.
    pub(crate) fn failed(why: Failure) -> Self {
        Outcome {
            check: Err(why),
            units: 0,
            vtime_ns: 0,
            digest: 0,
            stats: S::default(),
        }
    }
}

/// The measured window of a closed loop.
pub(crate) struct ClosedLoop<S> {
    /// Every measured operation.
    pub ledger: Ledger,
    /// Work units of the operations that passed.
    pub units_ok: u64,
    /// Host time spent inside the measured operations.
    pub op_time: Duration,
    /// Modeled time of the first measured operation, ns.
    pub first_vtime_ns: u64,
    /// Digest of the first measured operation.
    pub first_digest: u64,
    /// Wall time of each traced operation, ms.
    pub traced_ms: Vec<f64>,
    /// Wall time of each untraced operation, ms.
    pub dark_ms: Vec<f64>,
    /// Layer statistics of the traced operations.
    pub traced_stats: Vec<S>,
    /// `sim` layer totals over the traced operations.
    pub sim: OpTotals,
}

/// Index of the first warm-up operation: warm-up inputs never coincide
/// with measured ones, so how many warm-up operations fit in the
/// warm-up time does not change what the window measures.
const WARMUP_INDEX: u64 = 1 << 32;

/// Runs `op` back to back: warm-up, then the measured window. Without a
/// clock every operation runs on `proto`; with one (the traced run)
/// every other measured operation runs on a timed replica of it, the
/// first of them with per-op spans, so the traced and untraced
/// operations of one run give the tracing overhead.
///
/// `setup_s` is the median of `first_setup` (the set-up that built
/// `proto`) and of a fresh set-up of `firmware` after every measured
/// operation. Spreading the set-ups over the window matters on a shared
/// host: its slow spells last up to a second or so, long enough to take
/// every set-up of a run made in one burst.
pub(crate) fn closed_loop<S>(
    spec: &RunSpec,
    proto: &SimTarget,
    firmware: &str,
    first_setup: SetupTimes,
    clock: Option<&Arc<Clock>>,
    report: &mut Report,
    mut op: impl FnMut(u64, &dyn HwTarget) -> Outcome<S>,
) -> ClosedLoop<S> {
    let warm_end = Instant::now() + spec.warmup;
    let mut i = WARMUP_INDEX;
    while i == WARMUP_INDEX || Instant::now() < warm_end {
        if let Err(f) = op(i, proto).check {
            report
                .problems
                .push(format!("warm-up operation {i} failed: {f:?}"));
        }
        i += 1;
    }
    let timed: Option<Box<dyn HwTarget>> = clock.map(|c| {
        let replica = proto.fork_clean().expect("simulator replicas always fork");
        Box::new(c.wrap(replica)) as Box<dyn HwTarget>
    });
    let mut out = ClosedLoop {
        ledger: Ledger::default(),
        units_ok: 0,
        op_time: Duration::ZERO,
        first_vtime_ns: 0,
        first_digest: 0,
        traced_ms: Vec::new(),
        dark_ms: Vec::new(),
        traced_stats: Vec::new(),
        sim: OpTotals::default(),
    };
    let mut setups = vec![first_setup];
    let start = Instant::now();
    let mut j = 0u64;
    while j == 0 || start.elapsed() < spec.measure {
        let on_timed = timed.as_deref().filter(|_| j.is_multiple_of(2));
        if let (Some(c), true) = (clock, j == 0) {
            c.set_spans(true);
        }
        let t0 = Instant::now();
        let o = op(j, on_timed.unwrap_or(proto));
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        out.op_time += t1 - t0;
        if let Some(c) = clock {
            c.set_spans(false);
            let name = if on_timed.is_some() {
                "campaign"
            } else {
                "campaign-dark"
            };
            c.span("harness", name, t0, t1);
        }
        if j == 0 {
            out.first_digest = o.digest;
            out.first_vtime_ns = o.vtime_ns;
        }
        match o.check {
            Ok(()) => {
                out.units_ok += o.units;
                out.ledger.push(Ok(ms));
            }
            Err(f) => out.ledger.push(Err(f)),
        }
        if on_timed.is_some() {
            out.traced_ms.push(ms);
            out.traced_stats.push(o.stats);
        } else {
            out.dark_ms.push(ms);
        }
        match set_up(firmware) {
            Ok((.., t)) => setups.push(t),
            Err(e) => report.problems.push(format!("set-up failed: {e}")),
        }
        j += 1;
    }
    report_setup(report, &setups);
    if let Some(c) = clock {
        out.sim = c.totals();
    }
    out
}

impl<S> ClosedLoop<S> {
    /// Reports what every workload reports from its measured window.
    pub(crate) fn report_end_to_end(&self, report: &mut Report) {
        report.attempted = self.ledger.attempted();
        report.failed = self.ledger.failed();
        for f in self.ledger.failures() {
            report.problems.push(format!("operation failed: {f:?}"));
        }
        // Work per second at the 10th-percentile operation time. On a
        // shared host, interference only ever adds time and comes in
        // episodes that last many operations, so the median moves with
        // the neighbours' load while the fast decile tracks the code.
        let ok_ops = report.attempted - report.failed;
        let units_per_op = self.units_ok as f64 / ok_ops.max(1) as f64;
        let p10 = self.ledger.latency_ms(0.1);
        report.set("throughput_per_s", units_per_op / (p10 / 1e3), "1/s");
        report.set(
            "mean_throughput_per_s",
            self.units_ok as f64 / self.op_time.as_secs_f64(),
            "1/s",
        );
        report.set("op_ms_p10", p10, "ms");
        report.set("op_ms_p50", self.ledger.latency_ms(0.5), "ms");
        report.set("op_ms_p90", self.ledger.latency_ms(0.9), "ms");
        report.set("vtime_ms_per_op", self.first_vtime_ns as f64 / 1e6, "ms");
        report.set(
            "failed_frac",
            report.failed as f64 / report.attempted as f64,
            "ratio",
        );
        report.set("ops", report.attempted as f64, "count");
        report.digest = format!("{:#018x}", self.first_digest);
    }

    /// Reports the `sim` layer per traced operation and the tracing
    /// overhead; returns the `sim` busy time per traced operation, ms.
    pub(crate) fn report_sim_layer(&self, report: &mut Report) -> f64 {
        let n = self.traced_stats.len().max(1) as f64;
        for (i, op) in Op::ALL.iter().enumerate() {
            let (calls, ns) = (self.sim.calls[i], self.sim.busy_ns[i]);
            report.set(
                &format!("sim.{}.calls", op.name()),
                calls as f64 / n,
                "count",
            );
            report.set(
                &format!("sim.{}.busy_ms", op.name()),
                ns as f64 / 1e6 / n,
                "ms",
            );
            let per_call = if calls == 0 {
                0.0
            } else {
                ns as f64 / calls as f64
            };
            report.set(&format!("sim.{}.ns_per_call", op.name()), per_call, "ns");
        }
        report.set(
            "harness.trace_overhead_frac",
            median(&self.traced_ms) / median(&self.dark_ms) - 1.0,
            "ratio",
        );
        self.sim.busy_ns_total() as f64 / 1e6 / n
    }

    /// Mean wall time of a traced operation, ms.
    pub(crate) fn traced_wall_ms(&self) -> f64 {
        self.traced_ms.iter().sum::<f64>() / self.traced_ms.len().max(1) as f64
    }
}

/// Checks that the layers of a traced operation fit in its wall time:
/// `layers_ms` measured inside `threads` threads cannot exceed
/// `threads × wall_ms`. The unattributed remainder (`*.self_ms`) is
/// what is left; a negative one means a layer was counted twice.
pub(crate) fn check_layers_fit(
    report: &mut Report,
    threads: f64,
    wall_ms: f64,
    layers_ms: f64,
) -> f64 {
    let self_ms = threads * wall_ms - layers_ms;
    if self_ms < -1e-6 * threads * wall_ms {
        report.problems.push(format!(
            "layer times {layers_ms:.3} ms exceed {threads} x wall {wall_ms:.3} ms"
        ));
    }
    self_ms
}
