//! Metric catalog and output. Every workload reports every catalog
//! metric: the end-to-end ones from the normal run, the per-layer ones
//! from the traced run (0 where a workload does not exercise a layer).
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use crate::timed::Op;
use hardsnap_util::json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Latency percentiles are printed
/// too, but they are not in the catalog: their run-to-run spread on a
/// shared host is wider than any bound worth gating on (see README).
pub(crate) const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Counts and times
/// are per operation (campaign or job) unless the name says otherwise.
pub(crate) fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("setup.soc_build_ms", "ms"),
        ("setup.sim_compile_ms", "ms"),
        ("setup.assemble_ms", "ms"),
        ("setup.warm_pool_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for op in Op::ALL {
        m.push((format!("sim.{}.calls", op.name()), "count"));
        m.push((format!("sim.{}.busy_ms", op.name()), "ms"));
        m.push((format!("sim.{}.ns_per_call", op.name()), "ns"));
    }
    for (n, u) in [
        ("symex.solver.queries", "count"),
        ("symex.solver.sat", "count"),
        ("symex.solver.unsat", "count"),
        ("symex.solver.busy_ms", "ms"),
        ("core.engine.self_ms", "ms"),
        ("core.engine.context_switches", "count"),
        ("core.engine.quanta", "count"),
        ("core.store.hits", "count"),
        ("core.store.misses", "count"),
        ("core.store.evictions", "count"),
        ("core.store.peak_kb", "kB"),
        ("fuzz.self_ms", "ms"),
        ("fuzz.coverage", "count"),
        ("fuzz.crashes", "count"),
        ("serve.submit_us_p50", "us"),
        ("serve.submit_us_p90", "us"),
        ("serve.queue_wait_ms_p50", "ms"),
        ("serve.queue_wait_ms_p90", "ms"),
        ("serve.run_ms_p50", "ms"),
        ("serve.run_ms_p90", "ms"),
        ("serve.legs_per_job", "count"),
        ("serve.pool.hit_frac", "ratio"),
        ("serve.journal_fsync_us_p50", "us"),
        ("serve.pool_rearm_us_p50", "us"),
        ("serve.store.spills", "count"),
        ("serve.store.page_ins", "count"),
        ("serve.events_dropped", "count"),
        ("harness.gen_late_ms_p90", "ms"),
        ("harness.trace_overhead_frac", "ratio"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// One workload run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Of which failed.
    pub failed: u64,
    /// Failed checks of the harness itself (trace validity, layer
    /// accounting) and a description of each failed operation kind.
    pub problems: Vec<String>,
    /// Result digest or fingerprint every run of this workload and seed
    /// must reproduce (hex).
    pub digest: String,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &str, traced: bool) -> Report {
        Report {
            workload: workload.to_string(),
            traced,
            ..Report::default()
        }
    }

    /// Sets metric `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(m) => {
                m.1 = value;
                m.2 = unit;
            }
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// Value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// True when every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }

    /// The catalog this run reports: end-to-end, or per-layer when traced.
    fn catalog(&self) -> Vec<(String, &'static str)> {
        if self.traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    /// Human-readable `workload metric value unit` lines: the catalog
    /// metrics first, then the extras (modeled time, failure fraction,
    /// digest).
    pub fn lines(&self) -> Vec<String> {
        let catalog = self.catalog();
        let mut out: Vec<String> = catalog
            .iter()
            .map(|(n, u)| format!("{} {n} {} {u}", self.workload, self.value(n)))
            .collect();
        for (n, v, u) in &self.metrics {
            if !catalog.iter().any(|(c, _)| c == n) {
                out.push(format!("{} {n} {v} {u}", self.workload));
            }
        }
        out.push(format!("{} digest {} hex", self.workload, self.digest));
        out
    }

    /// A catalog metric's value: 0 for a layer this workload does not
    /// exercise; non-finite values (a quantile over failed operations)
    /// clamp to the largest finite number so the output stays JSON.
    fn value(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) if v.is_nan() => 0.0,
            Some(_) => f64::MAX,
            None => 0.0,
        }
    }

    /// The one-line result object: `correct`, `attempted`, `failed` and
    /// the catalog `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: BTreeMap<String, Value> = self
            .catalog()
            .into_iter()
            .map(|(n, u)| {
                let v = Value::Obj(BTreeMap::from([
                    ("value".to_string(), Value::Num(self.value(&n))),
                    ("unit".to_string(), Value::Str(u.to_string())),
                ]));
                (n, v)
            })
            .collect();
        Value::Obj(BTreeMap::from([
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ]))
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = hardsnap_util::json::parse(&src).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn result_json_reports_every_catalog_metric() {
        let mut r = Report::new("w", false);
        r.attempted = 3;
        r.set("setup_s", f64::INFINITY, "s");
        let v = hardsnap_util::json::parse(&r.result_json()).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let m = v.get("metrics").unwrap();
        for (name, _) in END_TO_END {
            assert!(m.get(name).is_some(), "{name}");
        }
        let setup = m.get("setup_s").and_then(|x| x.get("value"));
        assert_eq!(setup.and_then(Value::as_f64), Some(f64::MAX));
    }
}
