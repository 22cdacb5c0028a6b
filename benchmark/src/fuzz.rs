//! `fuzz_uart`: snapshot-reset fuzzing of the UART command parser,
//! 5000-input campaigns back to back.

use crate::gen::{fuzz_campaign_seed, FUZZ_INPUTS};
use crate::report::Report;
use crate::stats::Failure;
use crate::timed::Clock;
use crate::workload::{check_layers_fit, closed_loop, report_peak_rss, set_up};
use crate::workload::{Outcome, RunSpec};
use hardsnap::HwTarget;
use hardsnap_fuzz::{FuzzConfig, FuzzReport, Fuzzer, ResetStrategy};
use hardsnap_isa::{CpuFault, Program};

/// The one crashing command of `uart_parser_firmware`: `'X'` then 0x42.
const PLANTED_CRASH: [u32; 2] = [0x58, 0x42];

/// Runs one campaign of `inputs` inputs on a power-on replica of `proto`.
///
/// # Errors
///
/// A replica that cannot be forked, or a failed baseline restore.
pub fn campaign(
    proto: &dyn HwTarget,
    program: &Program,
    seed: u64,
    inputs: u64,
) -> Result<FuzzReport, hardsnap_bus::TargetError> {
    let config = FuzzConfig {
        max_inputs: inputs,
        reset: ResetStrategy::Snapshot,
        tape_len: 2,
        seed,
        ..FuzzConfig::default()
    };
    Fuzzer::new(proto.fork_clean()?, program, config)?.run()
}

/// Fingerprint of a campaign: inputs run, coverage and crashing inputs.
pub fn fingerprint(r: &FuzzReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(r.execs);
    eat(r.coverage as u64);
    for c in &r.crashes {
        eat(c.input.len() as u64);
        for &w in &c.input {
            eat(u64::from(w));
        }
    }
    h
}

/// Checks one campaign: every input ran, and the only crash the clean
/// parser may report is the planted one.
pub fn judge(r: &FuzzReport, inputs: u64) -> Result<(), Failure> {
    if r.execs != inputs {
        return Err(Failure::Wrong(format!(
            "{} inputs run, want {inputs}",
            r.execs
        )));
    }
    if r.coverage == 0 {
        return Err(Failure::Wrong("no coverage".into()));
    }
    for c in &r.crashes {
        let bytes: Vec<u32> = c.input.iter().map(|w| w & 0xff).collect();
        if !matches!(c.fault, CpuFault::FailHit { .. }) || bytes[..] != PLANTED_CRASH[..] {
            return Err(Failure::BugReport(format!(
                "{:?} on {:x?}",
                c.fault, c.input
            )));
        }
    }
    Ok(())
}

/// Layer statistics of one traced campaign.
#[derive(Default)]
struct Stats {
    coverage: usize,
    crashes: usize,
}

/// Runs `fuzz_uart`.
pub fn run(spec: &RunSpec) -> Report {
    let mut report = Report::new("fuzz_uart", spec.traced);
    let firmware = hardsnap::firmware::uart_parser_firmware();
    let (proto, program, first_setup) = match set_up(&firmware) {
        Ok(x) => x,
        Err(e) => {
            report.problems.push(format!("set-up failed: {e}"));
            return report;
        }
    };
    let clock = spec.traced.then(Clock::new);
    let lp = closed_loop(
        spec,
        &proto,
        &firmware,
        first_setup,
        clock.as_ref(),
        &mut report,
        |i, target| match campaign(
            target,
            &program,
            fuzz_campaign_seed(spec.seed, i),
            FUZZ_INPUTS,
        ) {
            Ok(r) => Outcome {
                check: judge(&r, FUZZ_INPUTS),
                units: r.execs,
                vtime_ns: r.hw_virtual_time_ns,
                digest: fingerprint(&r),
                stats: Stats {
                    coverage: r.coverage,
                    crashes: r.crashes.len(),
                },
            },
            Err(e) => Outcome::failed(Failure::Wrong(format!("campaign: {e}"))),
        },
    );
    lp.report_end_to_end(&mut report);
    report_peak_rss(&mut report);
    if let Some(clock) = clock {
        let sim_ms = lp.report_sim_layer(&mut report);
        let self_ms = check_layers_fit(&mut report, 1.0, lp.traced_wall_ms(), sim_ms);
        report.set("fuzz.self_ms", self_ms, "ms");
        let n = lp.traced_stats.len().max(1) as f64;
        let cov = lp
            .traced_stats
            .iter()
            .map(|s| s.coverage as f64)
            .sum::<f64>()
            / n;
        let crashes = lp
            .traced_stats
            .iter()
            .map(|s| s.crashes as f64)
            .sum::<f64>()
            / n;
        report.set("fuzz.coverage", cov, "count");
        report.set("fuzz.crashes", crashes, "count");
        crate::trace::finish(spec, &mut report, &clock);
    }
    report
}
