//! `Instant`-based micro-bench timers replacing `criterion`.
//!
//! The API is deliberately criterion-shaped ([`Criterion`],
//! [`Bencher::iter`], [`criterion_group!`](crate::criterion_group!),
//! [`criterion_main!`](crate::criterion_main!)) so the bench files
//! under `crates/bench/benches/` only change imports. The
//! measurement model is much simpler than criterion's: a warmup phase,
//! then `sample_size` timed samples of an adaptively chosen batch size,
//! reported as min / median / max nanoseconds per iteration. No
//! statistics engine, no plots, no external deps — deterministic enough
//! for the relative comparisons the HardSnap evaluation makes
//! (snapshot vs reboot, sim vs FPGA).

use std::time::{Duration, Instant};

/// Result of one benchmark: per-iteration latencies in nanoseconds.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark id.
    pub name: String,
    /// Fastest observed sample (ns/iter).
    pub min_ns: f64,
    /// Median sample (ns/iter) — the headline number.
    pub median_ns: f64,
    /// Slowest observed sample (ns/iter).
    pub max_ns: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
}

/// Bench harness entry point (criterion-compatible shape).
pub struct Criterion {
    sample_size: usize,
    warmup: Duration,
    target_sample_time: Duration,
    /// Collected results, in run order.
    pub results: Vec<Sample>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 30,
            warmup: Duration::from_millis(200),
            target_sample_time: Duration::from_millis(20),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(3);
        self
    }

    /// Sets the warmup duration per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warmup = d;
        self
    }

    /// Runs `f` (which drives a [`Bencher`]) as the benchmark `name`,
    /// printing min/median/max per iteration.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher {
            warmup: self.warmup,
            target_sample_time: self.target_sample_time,
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
            iters_per_sample: 1,
        };
        f(&mut b);
        let mut ns = b.samples_ns;
        ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let sample = Sample {
            name: name.to_string(),
            min_ns: ns.first().copied().unwrap_or(f64::NAN),
            median_ns: ns.get(ns.len() / 2).copied().unwrap_or(f64::NAN),
            max_ns: ns.last().copied().unwrap_or(f64::NAN),
            iters_per_sample: b.iters_per_sample,
        };
        println!(
            "bench {:<44} median {:>12} min {:>12} max {:>12}  ({} samples x {} iters)",
            sample.name,
            fmt_ns(sample.median_ns),
            fmt_ns(sample.min_ns),
            fmt_ns(sample.max_ns),
            ns.len(),
            sample.iters_per_sample,
        );
        self.results.push(sample);
        self
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns.is_nan() {
        "n/a".into()
    } else if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Drives the timed closure: warmup, batch-size calibration, then
/// `sample_size` timed samples.
pub struct Bencher {
    warmup: Duration,
    target_sample_time: Duration,
    sample_size: usize,
    samples_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Times `f`, keeping its return value alive via `black_box`.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warmup: run until the warmup budget elapses, counting
        // iterations to calibrate the batch size.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let iters = ((self.target_sample_time.as_secs_f64() / per_iter.max(1e-9)) as u64).max(1);
        self.iters_per_sample = iters;
        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let dt = t0.elapsed();
            self.samples_ns.push(dt.as_nanos() as f64 / iters as f64);
        }
    }
}

/// Declares the benchmark runner function (criterion-compatible form):
///
/// ```text
/// criterion_group! {
///     name = benches;
///     config = Criterion::default().sample_size(20);
///     targets = bench_a, bench_b
/// }
/// criterion_main!(benches);
/// ```
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c: $crate::bench::Criterion = $config;
            $( $target(&mut c); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::bench::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares `main()` running the given
/// [`criterion_group!`](crate::criterion_group!) groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_produces_ordered_stats() {
        let mut c = Criterion::default()
            .sample_size(5)
            .warm_up_time(Duration::from_millis(1));
        c.bench_function("spin", |b| {
            b.iter(|| std::hint::black_box((0..100u64).sum::<u64>()))
        });
        let s = &c.results[0];
        assert_eq!(s.name, "spin");
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
        assert!(s.min_ns > 0.0);
    }

    #[test]
    fn group_and_main_macros_compile() {
        fn target(c: &mut Criterion) {
            let mut c2 = std::mem::take(&mut c.results);
            c2.clear();
        }
        criterion_group! {
            name = benches;
            config = Criterion::default().sample_size(3);
            targets = target
        }
        benches();
    }
}
