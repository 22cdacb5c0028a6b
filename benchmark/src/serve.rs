//! `serve_stream`: an open-loop, seeded Poisson stream of jobs into an
//! in-process campaign service with a warm replica pool.

use crate::gen::{arrival_schedule, job_list, SERVE_FIRMWARE_BRANCHES, SERVE_RATE_PER_S};
use crate::report::Report;
use crate::stats::{median, quantile, Failure, Ledger};
use crate::timed::Clock;
use crate::workload::{report_peak_rss, report_setup, set_up, RunSpec};
use hardsnap::{ConsistencyMode, Engine, EngineConfig, Searcher, StopReason, TelemetryConfig};
use hardsnap_serve::{
    digest_hex, Daemon, DaemonConfig, Event, EventBody, JobSpec, SchedPolicy, ServeError,
};
use hardsnap_telemetry::MetricsSnapshot;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine threads: the service's replica pool. One process, at most
/// this many engine threads at once.
const REPLICAS: usize = 2;

/// Fresh set-ups of the service before its stream; `setup_s` is their
/// median. (The explore and fuzz loops spread theirs over the window
/// instead; set-ups during the stream would disturb the service.)
const SETUPS: usize = 11;

/// Turnaround a job must meet; a failed job misses it by definition.
const TURNAROUND_LIMIT_MS: f64 = 1000.0;

/// How long after the last arrival the stream may take to drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Mixed into the seed for the warm-up stream's inputs.
const WARMUP_SEED: u64 = 0x5EED_0FF5;

/// The service under test: `REPLICAS` replicas, as many warm, the
/// default lanes scheduler, observation on. The queue and event bounds
/// are raised so that neither sheds work at the offered load.
fn daemon_config(state_dir: PathBuf) -> DaemonConfig {
    DaemonConfig {
        state_dir,
        pool_replicas: REPLICAS,
        warm_pool: REPLICAS,
        queue_max: 64,
        event_queue_cap: 1 << 16,
        observe: true,
        sched: SchedPolicy::Lanes,
        ..DaemonConfig::default()
    }
}

/// One open-loop submission.
#[derive(Debug)]
struct Submission<R> {
    /// When it was due, from the start of the stream.
    pub due: Duration,
    /// How late the generator made the call.
    pub late: Duration,
    /// How long the call took.
    pub took: Duration,
    /// What the call returned.
    pub result: R,
}

/// Calls `submit(i)` at `start + schedule[i]` for every `i`, whatever
/// the system is doing (open loop), recording how late each call was.
fn drive_open_loop<R>(
    start: Instant,
    schedule: &[Duration],
    mut submit: impl FnMut(usize) -> R,
) -> Vec<Submission<R>> {
    schedule
        .iter()
        .enumerate()
        .map(|(i, &due)| {
            let at = start + due;
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let t0 = Instant::now();
            let result = submit(i);
            Submission {
                due,
                late: t0.saturating_duration_since(at),
                took: t0.elapsed(),
                result,
            }
        })
        .collect()
}

/// A job's lifecycle as the subscriber saw it.
#[derive(Debug, Default)]
struct Timeline {
    /// `Admitted` received.
    pub admitted: Option<Instant>,
    /// `Started` received.
    pub started: Option<Instant>,
    /// `Terminal` received, with its verdict and digest.
    pub terminal: Option<(Instant, String, Option<String>)>,
    /// Legs run (`Heartbeat` events).
    pub legs: u64,
    /// Modeled hardware time at the last leg, ns.
    pub vtime_ns: u64,
}

fn timelines(events: &[(Instant, Event)]) -> HashMap<u64, Timeline> {
    let mut out: HashMap<u64, Timeline> = HashMap::new();
    for (at, ev) in events {
        let t = out.entry(ev.body.job_id()).or_default();
        match &ev.body {
            EventBody::Admitted { .. } => t.admitted = Some(*at),
            EventBody::Started { .. } => t.started = Some(*at),
            EventBody::Heartbeat { vtime_ns, .. } => {
                t.legs += 1;
                t.vtime_ns = *vtime_ns;
            }
            EventBody::Terminal {
                verdict, digest, ..
            } => t.terminal = Some((*at, verdict.clone(), digest.clone())),
            _ => {}
        }
    }
    out
}

/// Judges one submission: its turnaround (due time to `Terminal`) in ms,
/// or why it failed.
fn judge_job(
    start: Instant,
    sub: &Submission<Result<u64, ServeError>>,
    timeline: Option<&Timeline>,
    want_digest: &str,
) -> Result<f64, Failure> {
    let id = match &sub.result {
        Ok(id) => *id,
        Err(ServeError::Saturated { reason }) => return Err(Failure::Saturated(reason.clone())),
        Err(e) => return Err(Failure::Wrong(format!("submit: {e}"))),
    };
    let Some((at, verdict, digest)) = timeline.and_then(|t| t.terminal.as_ref()) else {
        return Err(Failure::Wrong(format!("job {id}: no terminal event")));
    };
    if verdict != "completed" {
        return Err(Failure::Verdict(format!("job {id}: {verdict}")));
    }
    if digest.as_deref() != Some(want_digest) {
        return Err(Failure::Digest(format!(
            "job {id}: {digest:?} != {want_digest}"
        )));
    }
    Ok(at.saturating_duration_since(start + sub.due).as_secs_f64() * 1e3)
}

struct Stream {
    start: Instant,
    subs: Vec<Submission<Result<u64, ServeError>>>,
    jobs: HashMap<u64, Timeline>,
}

/// Submits `jobs` on `schedule` while a subscriber records every event,
/// then waits for one `Terminal` per admitted job (or the drain timeout).
fn run_stream(daemon: &Arc<Daemon>, schedule: &[Duration], jobs: &[JobSpec]) -> Stream {
    let sub = daemon.subscribe();
    let expect = AtomicU64::new(u64::MAX);
    let (start, subs, events) = std::thread::scope(|s| {
        let expect = &expect;
        let collector = s.spawn(move || {
            let mut events: Vec<(Instant, Event)> = Vec::new();
            let mut terminals = 0u64;
            let mut give_up: Option<Instant> = None;
            loop {
                let want = expect.load(Ordering::SeqCst);
                if terminals >= want {
                    break;
                }
                if want != u64::MAX
                    && Instant::now() > *give_up.get_or_insert(Instant::now() + DRAIN_TIMEOUT)
                {
                    break;
                }
                if let Some(ev) = sub.recv_timeout(Duration::from_millis(20)) {
                    let at = Instant::now();
                    if matches!(ev.body, EventBody::Terminal { .. }) {
                        terminals += 1;
                    }
                    events.push((at, ev));
                }
            }
            events
        });
        let start = Instant::now();
        let subs = drive_open_loop(start, schedule, |i| daemon.submit(jobs[i].clone()));
        let admitted = subs.iter().filter(|x| x.result.is_ok()).count() as u64;
        expect.store(admitted, Ordering::SeqCst);
        (
            start,
            subs,
            collector.join().expect("event collector panicked"),
        )
    });
    Stream {
        start,
        subs,
        jobs: timelines(&events),
    }
}

/// The offered load over `window`: `SERVE_RATE_PER_S` seeded arrivals
/// per second, one generated job each.
fn offered_stream(daemon: &Arc<Daemon>, seed: u64, window: Duration) -> Stream {
    let n = (SERVE_RATE_PER_S * window.as_secs_f64()).round().max(1.0) as usize;
    run_stream(
        daemon,
        &arrival_schedule(seed, SERVE_RATE_PER_S, n),
        &job_list(seed, n),
    )
}

/// Digest every served job must reproduce: the same firmware explored
/// in one go by the sequential engine, outside the service.
fn reference_digest(
    sim: hardsnap_sim::SimTarget,
    program: &hardsnap_isa::Program,
) -> Result<String, String> {
    let config = EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        delta_snapshots: true,
        telemetry: TelemetryConfig::OFF,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(Box::new(sim), config);
    engine.load_firmware(program);
    let r = engine.run();
    let paths = 1u64 << SERVE_FIRMWARE_BRANCHES;
    if r.stop != StopReason::Complete || r.metrics.paths_completed != paths || !r.bugs.is_empty() {
        return Err(format!(
            "reference run: {} with {} paths and {} bugs",
            r.stop,
            r.metrics.paths_completed,
            r.bugs.len()
        ));
    }
    Ok(digest_hex(r.canonical_digest()))
}

fn hist_quantile_since(
    after: &MetricsSnapshot,
    before: &MetricsSnapshot,
    name: &str,
    q: f64,
) -> f64 {
    let Some(mut h) = after.hist(name).cloned() else {
        return 0.0;
    };
    if let Some(b) = before.hist(name) {
        for (x, y) in h.buckets.iter_mut().zip(&b.buckets) {
            *x -= y;
        }
        h.sum -= b.sum;
    }
    if h.count() == 0 {
        0.0
    } else {
        h.approx_quantile(q) as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sets the service up [`SETUPS`] times (SoC build, compile,
/// assemble, `Daemon::new` and arming the warm pool), reports the median
/// times and keeps the last daemon, with its state directory and the
/// digest every job must reproduce. `None` (the reason in the report)
/// when a step fails.
fn set_up_service(spec: &RunSpec, report: &mut Report) -> Option<(Arc<Daemon>, PathBuf, String)> {
    let firmware = hardsnap::firmware::branching_firmware(SERVE_FIRMWARE_BRANCHES);
    let mut times = Vec::new();
    let mut built = None;
    for i in 0..SETUPS {
        let (sim, program, mut t) = match set_up(&firmware) {
            Ok(x) => x,
            Err(e) => {
                report.problems.push(format!("set-up failed: {e}"));
                return None;
            }
        };
        let dir = spec
            .out_dir
            .join(format!("serve-state-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let daemon = match Daemon::new(daemon_config(dir.clone())) {
            Ok(d) => d,
            Err(e) => {
                report.problems.push(format!("daemon: {e}"));
                return None;
            }
        };
        let ready = daemon.wait_warm_ready(REPLICAS, Duration::from_secs(30));
        t.warm_ms = ms(t0.elapsed());
        if !ready {
            report.problems.push("warm pool never armed".into());
            return None;
        }
        times.push(t);
        if let Some((old, old_dir, ..)) = built.replace((daemon, dir, sim, program)) {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    report_setup(report, &times);
    let (daemon, dir, sim, program) = built.expect("at least one set-up");
    match reference_digest(sim, &program) {
        Ok(digest) => Some((daemon, dir, digest)),
        Err(e) => {
            report.problems.push(e);
            None
        }
    }
}

/// Judges every submission of `stream`; returns the ledger and the
/// timelines of the jobs that passed. Every job runs the same firmware,
/// so the first completed job's modeled time must be every job's.
fn judge_stream<'a>(stream: &'a Stream, want_digest: &str) -> (Ledger, Vec<&'a Timeline>) {
    let mut ledger = Ledger::default();
    let mut ok = Vec::new();
    let mut want_vtime = None;
    for sub in &stream.subs {
        let t = sub.result.as_ref().ok().and_then(|id| stream.jobs.get(id));
        let mut judged = judge_job(stream.start, sub, t, want_digest);
        if let (Ok(_), Some(t)) = (&judged, t) {
            let v = *want_vtime.get_or_insert(t.vtime_ns);
            if t.vtime_ns == v {
                ok.push(t);
            } else {
                judged = Err(Failure::Wrong(format!(
                    "modeled time {} ns != {v} ns",
                    t.vtime_ns
                )));
            }
        }
        ledger.push(judged);
    }
    (ledger, ok)
}

/// Reports the `serve` layer and the generator's lateness: event
/// timelines, submit calls, and the daemon's own metrics over the
/// measured stream (`after` minus `before`).
fn report_layers(
    report: &mut Report,
    stream: &Stream,
    ok: &[&Timeline],
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) {
    let q = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { quantile(v, q) };
    let submit_us: Vec<f64> = stream
        .subs
        .iter()
        .map(|s| s.took.as_secs_f64() * 1e6)
        .collect();
    let waits: Vec<f64> = ok
        .iter()
        .filter_map(|t| Some(ms(t.started?.saturating_duration_since(t.admitted?))))
        .collect();
    let runs: Vec<f64> = ok
        .iter()
        .filter_map(|t| {
            Some(ms(t
                .terminal
                .as_ref()?
                .0
                .saturating_duration_since(t.started?)))
        })
        .collect();
    let late: Vec<f64> = stream.subs.iter().map(|s| ms(s.late)).collect();
    let jobs = ok.len().max(1) as f64;
    let counter = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    report.set("serve.submit_us_p50", q(&submit_us, 0.5), "us");
    report.set("serve.submit_us_p90", q(&submit_us, 0.9), "us");
    report.set("serve.queue_wait_ms_p50", q(&waits, 0.5), "ms");
    report.set("serve.queue_wait_ms_p90", q(&waits, 0.9), "ms");
    report.set("serve.run_ms_p50", q(&runs, 0.5), "ms");
    report.set("serve.run_ms_p90", q(&runs, 0.9), "ms");
    let legs: u64 = ok.iter().map(|t| t.legs).sum();
    report.set("serve.legs_per_job", legs as f64 / jobs, "count");
    let (hits, misses) = (counter("serve.pool_hits"), counter("serve.pool_misses"));
    report.set(
        "serve.pool.hit_frac",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    let hist_p50 = |name: &str| hist_quantile_since(after, before, name, 0.5);
    report.set(
        "serve.journal_fsync_us_p50",
        hist_p50("serve.journal_fsync_us"),
        "us",
    );
    report.set(
        "serve.pool_rearm_us_p50",
        hist_p50("serve.pool_rearm_us"),
        "us",
    );
    report.set(
        "serve.store.spills",
        counter("store_spills") / jobs,
        "count",
    );
    report.set(
        "serve.store.page_ins",
        counter("store_page_ins") / jobs,
        "count",
    );
    report.set(
        "serve.events_dropped",
        counter("serve.events_dropped"),
        "count",
    );
    report.set("harness.gen_late_ms_p90", q(&late, 0.9), "ms");
    // Every timestamp behind the spans is one the untraced run takes
    // too; the spans are assembled after the stream, so tracing adds
    // nothing to it.
    report.set("harness.trace_overhead_frac", 0.0, "ratio");
}

/// Records each job's spans: `submit` (the call), `job` (due time to
/// `Terminal`), `queue_wait` (`Admitted` to `Started`) and `run`
/// (`Started` to `Terminal`).
fn record_spans(clock: &Clock, stream: &Stream) {
    for sub in &stream.subs {
        let due = stream.start + sub.due;
        let called = due + sub.late;
        clock.span("serve", "submit", called, called + sub.took);
        let Some(t) = sub.result.as_ref().ok().and_then(|id| stream.jobs.get(id)) else {
            continue;
        };
        if let Some((end, ..)) = &t.terminal {
            clock.span("serve", "job", due, *end);
            if let Some(started) = t.started {
                clock.span("serve", "run", started, *end);
            }
        }
        if let (Some(a), Some(s)) = (t.admitted, t.started) {
            clock.span("serve", "queue_wait", a, s);
        }
    }
}

/// Runs `serve_stream`.
pub fn run(spec: &RunSpec) -> Report {
    let mut report = Report::new("serve_stream", spec.traced);
    let clock = spec.traced.then(Clock::new);
    let Some((daemon, dir, want_digest)) = set_up_service(spec, &mut report) else {
        return report;
    };
    let warm = offered_stream(&daemon, spec.seed ^ WARMUP_SEED, spec.warmup);
    for f in judge_stream(&warm, &want_digest).0.failures() {
        report.problems.push(format!("warm-up job failed: {f:?}"));
    }

    let before = daemon.metrics_snapshot();
    let stream = offered_stream(&daemon, spec.seed, spec.measure);
    let after = daemon.metrics_snapshot();

    let (ledger, ok) = judge_stream(&stream, &want_digest);
    report.attempted = ledger.attempted();
    report.failed = ledger.failed();
    for f in ledger.failures() {
        report.problems.push(format!("job failed: {f:?}"));
    }
    let last = ok
        .iter()
        .filter_map(|t| t.terminal.as_ref().map(|x| x.0))
        .max()
        .unwrap_or(stream.start);
    let span = last.saturating_duration_since(stream.start).as_secs_f64();
    report.set("throughput_per_s", ok.len() as f64 / span.max(1e-9), "1/s");
    report.set("turnaround_ms_p50", ledger.latency_ms(0.5), "ms");
    report.set("turnaround_ms_p90", ledger.latency_ms(0.9), "ms");
    let vt: Vec<f64> = ok.iter().map(|t| t.vtime_ns as f64 / 1e6).collect();
    report.set("vtime_ms_per_op", median(&vt), "ms");
    let attempted = report.attempted as f64;
    report.set("failed_frac", report.failed as f64 / attempted, "ratio");
    report.set("ops", attempted, "count");
    let over = ledger.over_limit(TURNAROUND_LIMIT_MS) as f64;
    report.set("turnaround_over_limit_frac", over / attempted, "ratio");
    report.digest = want_digest;
    report_peak_rss(&mut report);

    if let Some(clock) = &clock {
        report_layers(&mut report, &stream, &ok, &before, &after);
        record_spans(clock, &stream);
        crate::trace::finish(spec, &mut report, clock);
    }

    daemon.wait_idle(DRAIN_TIMEOUT);
    // Returned leases re-arm on background threads: let them finish
    // before the state directory goes.
    daemon.wait_warm_ready(REPLICAS, Duration::from_secs(10));
    drop(daemon);
    let _ = std::fs::remove_dir_all(dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(verdict: &str, digest: &str) -> Timeline {
        let now = Instant::now();
        Timeline {
            admitted: Some(now),
            started: Some(now),
            terminal: Some((now, verdict.into(), Some(digest.into()))),
            legs: 1,
            vtime_ns: 1,
        }
    }

    fn submitted(result: Result<u64, ServeError>) -> Submission<Result<u64, ServeError>> {
        Submission {
            due: Duration::ZERO,
            late: Duration::ZERO,
            took: Duration::ZERO,
            result,
        }
    }

    #[test]
    fn saturation_wrong_verdicts_and_digests_fail_and_miss_the_limit() {
        let start = Instant::now();
        let good = done("completed", "0x1");
        let cases = [
            (
                submitted(Err(ServeError::Saturated {
                    reason: "queue full".into(),
                })),
                None,
            ),
            (submitted(Ok(1)), Some(done("over-budget", "0x1"))),
            (submitted(Ok(2)), Some(done("completed", "0x2"))),
            (submitted(Ok(3)), None),
        ];
        let mut ledger = Ledger::default();
        ledger.push(judge_job(start, &submitted(Ok(0)), Some(&good), "0x1"));
        assert!(ledger.failed() == 0);
        for (sub, t) in &cases {
            ledger.push(judge_job(start, sub, t.as_ref(), "0x1"));
        }
        assert_eq!(ledger.attempted(), 5);
        assert_eq!(ledger.failed(), 4);
        assert_eq!(ledger.over_limit(TURNAROUND_LIMIT_MS), 4);
        let kinds: Vec<&Failure> = ledger.failures();
        assert!(matches!(kinds[0], Failure::Saturated(_)));
        assert!(matches!(kinds[1], Failure::Verdict(_)));
        assert!(matches!(kinds[2], Failure::Digest(_)));
        assert!(matches!(kinds[3], Failure::Wrong(_)));
    }

    #[test]
    fn a_stalled_system_makes_the_generator_late_and_the_lateness_is_reported() {
        let schedule: Vec<Duration> = (0..6).map(|i| Duration::from_millis(2 * i)).collect();
        let subs = drive_open_loop(Instant::now(), &schedule, |_| {
            std::thread::sleep(Duration::from_millis(10));
        });
        assert_eq!(subs.len(), 6);
        // Each call blocks 10 ms while arrivals come every 2 ms: the
        // last one is due at 10 ms but cannot be sent before 50 ms.
        assert!(
            subs[5].late >= Duration::from_millis(35),
            "{:?}",
            subs[5].late
        );
        assert!(subs.iter().all(|s| s.took >= Duration::from_millis(10)));
    }
}
