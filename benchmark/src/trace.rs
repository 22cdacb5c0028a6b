//! Chrome trace output of the traced run. Spans are kept in memory
//! during the run and written once at the end through the telemetry
//! crate's own exporter.

use crate::report::Report;
use crate::timed::Clock;
use crate::workload::RunSpec;
use hardsnap_telemetry::{MetricsSnapshot, SpanEvent};
use hardsnap_util::json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Writes the traced run's spans to `<out_dir>/trace-<workload>-<seed>.json`
/// and checks the file; a write or check failure makes the run wrong.
pub(crate) fn finish(spec: &RunSpec, report: &mut Report, clock: &Clock) {
    let (spans, dropped) = clock.take_spans();
    let path = spec
        .out_dir
        .join(format!("trace-{}-{}.json", report.workload, spec.seed));
    match write_trace(&path, spans, clock.tracks()) {
        Ok(events) => eprintln!(
            "{}: trace {} ({events} events, {dropped} per-op spans over the cap)",
            report.workload,
            path.display()
        ),
        Err(e) => report.problems.push(format!("trace: {e}")),
    }
}

/// Writes `spans` as a Chrome `trace_event` file: track 0 is the
/// harness (one root span per campaign or job), tracks `1..tracks` the
/// timed target replicas.
///
/// # Errors
///
/// The write error, or the reason the written trace fails
/// [`check_chrome_trace`].
fn write_trace(path: &Path, spans: Vec<SpanEvent>, tracks: u32) -> Result<usize, String> {
    let snap = MetricsSnapshot {
        tracks: (0..tracks.max(1))
            .map(|t| {
                let label = if t == 0 {
                    "harness".to_string()
                } else {
                    format!("replica-{t}")
                };
                (t, label)
            })
            .collect(),
        spans,
        ..MetricsSnapshot::default()
    };
    let json = snap.chrome_trace_json();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
    check_chrome_trace(&json).map_err(|e| format!("{}: {e}", path.display()))
}

/// The Chrome-trace rules `hardsnap-cli trace-check` applies: a
/// non-empty `traceEvents` array, `ph` and `name` on every event, and
/// `tid` plus a `ts` that never goes back in time within a track on
/// every non-metadata event. Returns the number of timed events.
///
/// # Errors
///
/// The first rule the trace breaks.
fn check_chrome_trace(src: &str) -> Result<usize, String> {
    let v = hardsnap_util::json::parse(src).map_err(|e| format!("not JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut checked = 0;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} missing ph"))?;
        ev.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} missing name"))?;
        if ph == "M" {
            continue;
        }
        let tid = ev
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i} missing tid"))?;
        let ts = ev
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i} missing ts"))?;
        if last_ts.get(&tid).is_some_and(|&prev| ts < prev) {
            return Err(format!("event {i} on track {tid} goes back in time"));
        }
        last_ts.insert(tid, ts);
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_what_trace_check_rejects() {
        assert!(check_chrome_trace("{\"traceEvents\": []}").is_err());
        let back = "{\"traceEvents\": [\
            {\"ph\": \"X\", \"name\": \"a\", \"tid\": 1, \"ts\": 5.0, \"dur\": 1.0},\
            {\"ph\": \"X\", \"name\": \"b\", \"tid\": 1, \"ts\": 4.0, \"dur\": 1.0}]}";
        assert!(check_chrome_trace(back).is_err());
        let ok = "{\"traceEvents\": [\
            {\"ph\": \"M\", \"name\": \"thread_name\", \"tid\": 1},\
            {\"ph\": \"X\", \"name\": \"a\", \"tid\": 1, \"ts\": 4.0, \"dur\": 1.0},\
            {\"ph\": \"X\", \"name\": \"b\", \"tid\": 2, \"ts\": 1.0, \"dur\": 1.0}]}";
        assert_eq!(check_chrome_trace(ok), Ok(2));
    }
}
