//! E-serve — "Can a bounded replica pool safely multiplex many budgeted
//! campaigns, and does `kill -9` lose anything?"
//!
//! Exercises the campaign service end to end and records the three
//! operational numbers that matter for a shared board farm: queue wait
//! under contention, admission-rejection behaviour at saturation, and
//! recovery latency after a hard daemon kill — plus the cost of
//! watching it all. Five phases:
//!
//! 1. **Contention**: more jobs than replicas; all must complete with
//!    one canonical digest, queue waits recorded.
//! 2. **Saturation**: pool 1, queue 1 — overflow submissions must be
//!    rejected with the *typed* `Saturated` error, never silently
//!    queued or dropped.
//! 3. **Over-budget**: a vtime-budgeted job is cancelled at a quantum
//!    boundary; its checkpoint resumes under a raised budget to the
//!    exact uninterrupted digest.
//! 4. **Crash**: a real `hardsnap-serve` subprocess is SIGKILLed
//!    mid-run (checkpoint present, job unfinished), restarted, and
//!    every job must finish with a digest **bit-identical** to the
//!    uninterrupted reference.
//! 5. **Observer effect**: the same fleet runs dark, then under full
//!    observation (live subscriber draining the event stream + a TCP
//!    scraper hammering the Prometheus endpoint); digests must stay
//!    bit-identical and the wall-clock overhead within a small bound.
//!
//! Usage: `exp_serve [--smoke] [--json PATH]`.

use hardsnap::{CancelToken, StopReason};
use hardsnap_bench::{banner, row};
use hardsnap_serve::{
    runner, Client, Daemon, DaemonConfig, EventBody, JobSpec, JobState, ServeError, Verdict,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hardsnap-exp-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn demo_spec(name: &str, k: u32, leg: u64) -> JobSpec {
    JobSpec {
        name: name.into(),
        firmware: format!("demo:{k}"),
        leg_instructions: leg,
        ..JobSpec::default()
    }
}

/// Uninterrupted in-process reference run of a spec; returns its
/// canonical digest.
fn reference_digest(spec: &JobSpec, tag: &str) -> u64 {
    let dir = tmp(&format!("ref-{tag}"));
    let out = runner::run_job(spec, &dir, &CancelToken::new(), false, None, &mut |_| {})
        .expect("reference run");
    assert_eq!(out.verdict, Verdict::Completed, "reference must complete");
    let _ = std::fs::remove_dir_all(&dir);
    out.digest
}

struct Contention {
    jobs: usize,
    pool: usize,
    max_queue_wait_ms: u64,
    total_ms: u64,
}

fn phase_contention(k: u32, jobs: usize, reference: u64) -> Contention {
    let pool = 2;
    let dir = tmp("contention");
    let d = Daemon::new(DaemonConfig {
        state_dir: dir.clone(),
        pool_replicas: pool,
        queue_max: jobs,
        ..DaemonConfig::default()
    })
    .expect("daemon");
    let t0 = Instant::now();
    let ids: Vec<u64> = (0..jobs)
        .map(|i| {
            d.submit(demo_spec(&format!("c{i}"), k, 256))
                .expect("admit")
        })
        .collect();
    assert!(
        d.wait_idle(Duration::from_secs(600)),
        "contention phase hung"
    );
    let total_ms = t0.elapsed().as_millis() as u64;
    let mut max_wait = 0;
    for id in ids {
        let s = &d.status(Some(id))[0];
        assert_eq!(s.verdict, Some(Verdict::Completed));
        assert_eq!(
            s.digest.as_deref(),
            Some(format!("{reference:#018x}").as_str()),
            "job {id}: contention changed the digest"
        );
        max_wait = max_wait.max(s.queue_wait_ms);
    }
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
    Contention {
        jobs,
        pool,
        max_queue_wait_ms: max_wait,
        total_ms,
    }
}

struct Saturation {
    admitted: usize,
    rejected: usize,
}

fn phase_saturation(k: u32) -> Saturation {
    let dir = tmp("saturation");
    let d = Daemon::new(DaemonConfig {
        state_dir: dir.clone(),
        pool_replicas: 1,
        queue_max: 1,
        ..DaemonConfig::default()
    })
    .expect("daemon");
    // Burst-submit: with one replica and a one-slot queue, at most two
    // of these can be accepted before the first finishes.
    let mut admitted = 0;
    let mut rejected = 0;
    for i in 0..6 {
        match d.submit(demo_spec(&format!("s{i}"), k, 64)) {
            Ok(_) => admitted += 1,
            Err(ServeError::Saturated { .. }) => rejected += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    // A job wider than the pool must always be rejected, typed.
    let mut wide = demo_spec("wide", k, 64);
    wide.workers = 4;
    match d.submit(wide) {
        Err(ServeError::Saturated { reason }) => assert!(reason.contains("pool")),
        other => panic!("workers>pool must saturate, got {other:?}"),
    }
    rejected += 1;
    assert!(
        d.wait_idle(Duration::from_secs(600)),
        "saturation phase hung"
    );
    assert!(rejected >= 1, "burst never saturated a 1+1 daemon");
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
    Saturation { admitted, rejected }
}

struct OverBudget {
    stop: StopReason,
    partial_instructions: u64,
    resumed_matches: bool,
}

fn phase_over_budget(k: u32, reference: u64) -> OverBudget {
    let dir = tmp("over-budget");
    let mut spec = demo_spec("tight", k, 128);
    spec.max_vtime_ns = 50_000; // a handful of quanta
    let out = runner::run_job(&spec, &dir, &CancelToken::new(), false, None, &mut |_| {})
        .expect("budgeted run");
    let Verdict::OverBudget(stop) = out.verdict else {
        panic!("expected OverBudget, got {:?}", out.verdict);
    };
    // The cancelled-at-quantum-boundary checkpoint must resume under a
    // raised budget to the exact uninterrupted digest.
    spec.max_vtime_ns = 0;
    let resumed = runner::run_job(&spec, &dir, &CancelToken::new(), false, None, &mut |_| {})
        .expect("resumed run");
    assert_eq!(resumed.verdict, Verdict::Completed);
    let _ = std::fs::remove_dir_all(&dir);
    OverBudget {
        stop,
        partial_instructions: out.instructions,
        resumed_matches: resumed.digest == reference,
    }
}

struct Crash {
    jobs: usize,
    killed_after_ms: u64,
    recovery_ms: u64,
    resumed_jobs: usize,
    digests_match: bool,
}

fn serve_binary() -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("exe dir");
    let candidate = dir.join("hardsnap-serve");
    assert!(
        candidate.exists(),
        "hardsnap-serve not found next to exp_serve ({}); build the workspace first",
        candidate.display()
    );
    candidate
}

fn spawn_daemon(state: &Path, socket: &Path) -> std::process::Child {
    std::process::Command::new(serve_binary())
        .arg("--state-dir")
        .arg(state)
        .arg("--socket")
        .arg(socket)
        .arg("--pool")
        .arg("2")
        .arg("--queue-max")
        .arg("8")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn hardsnap-serve")
}

fn phase_crash(k: u32, jobs: usize, reference: u64) -> Crash {
    let state = tmp("crash");
    std::fs::create_dir_all(&state).expect("state dir");
    let socket = state.join("serve.sock");
    let mut child = spawn_daemon(&state, &socket);
    let mut client = Client::connect_retry(&socket, Duration::from_secs(10)).expect("connect");
    let t0 = Instant::now();
    let ids: Vec<u64> = (0..jobs)
        .map(|i| {
            client
                .submit(&demo_spec(&format!("k{i}"), k, 64))
                .expect("admit")
        })
        .collect();
    // Kill only once the daemon is demonstrably mid-run: some job has
    // checkpointed at least one leg (a campaign manifest exists) while
    // its terminal result.json does not yet.
    let deadline = Instant::now() + Duration::from_secs(120);
    let killable = |id: u64| {
        let dir = state.join("jobs").join(id.to_string());
        dir.join("checkpoint").join("campaign.hscamp").exists() && !dir.join("result.json").exists()
    };
    while !ids.iter().copied().any(killable) {
        assert!(
            Instant::now() < deadline,
            "no mid-run checkpoint appeared before every job finished"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL daemon");
    let _ = child.wait();
    let killed_after_ms = t0.elapsed().as_millis() as u64;

    // Restart on the same state directory: the journal re-enqueues every
    // job without a terminal result, each resuming from its checkpoint.
    let t1 = Instant::now();
    let mut child2 = spawn_daemon(&state, &socket);
    let mut client = Client::connect_retry(&socket, Duration::from_secs(10)).expect("reconnect");
    let mut digests_match = true;
    let mut resumed_jobs = 0;
    for &id in &ids {
        let s = client.wait(id, Duration::from_secs(600)).expect("terminal");
        assert_eq!(s.state, JobState::Done);
        assert_eq!(
            s.verdict,
            Some(Verdict::Completed),
            "job {id} did not complete after recovery"
        );
        digests_match &= s.digest.as_deref() == Some(format!("{reference:#018x}").as_str());
        // run_ms restarts from zero in the second incarnation only for
        // resumed jobs; jobs finished before the kill keep their stats.
        if s.queue_wait_ms == 0 || s.run_ms > 0 {
            resumed_jobs += 1;
        }
    }
    let recovery_ms = t1.elapsed().as_millis() as u64;
    assert!(
        digests_match,
        "kill -9 + restart changed a canonical digest"
    );
    let mut shutdown_client = client;
    let _ = shutdown_client.shutdown();
    let _ = child2.wait();
    let _ = std::fs::remove_dir_all(&state);
    Crash {
        jobs,
        killed_after_ms,
        recovery_ms,
        resumed_jobs,
        digests_match,
    }
}

struct ObserveOverhead {
    trials: usize,
    baseline_ms: u64,
    observed_ms: u64,
    overhead_percent: f64,
    events_seen: usize,
    scrapes: usize,
}

/// Runs `jobs` demo campaigns through an in-process daemon and returns
/// the fleet wall-clock. With `observe`, the run happens under maximal
/// observation: telemetry recorders on, a subscriber thread draining
/// the live event stream, and a TCP client scraping the real Prometheus
/// endpoint in a tight loop. Digests are asserted against `reference`
/// either way — observation must never change what the fleet computes.
fn timed_fleet(
    tag: &str,
    k: u32,
    jobs: usize,
    observe: bool,
    reference: u64,
) -> (u64, usize, usize) {
    let dir = tmp(tag);
    let d = Daemon::new(DaemonConfig {
        state_dir: dir.clone(),
        pool_replicas: 2,
        queue_max: jobs,
        observe,
        ..DaemonConfig::default()
    })
    .expect("daemon");
    let mut drainer = None;
    let mut scraper = None;
    let stop = Arc::new(AtomicBool::new(false));
    if observe {
        let sub = d.subscribe();
        drainer = Some(std::thread::spawn(move || {
            let mut seen = 0usize;
            let mut terminals = 0usize;
            while let Some(ev) = sub.recv_timeout(Duration::from_millis(250)) {
                seen += 1;
                if matches!(ev.body, EventBody::Terminal { .. }) {
                    terminals += 1;
                    if terminals == jobs {
                        break;
                    }
                }
            }
            seen
        }));
        let addr = d
            .spawn_metrics_http("127.0.0.1:0")
            .expect("metrics endpoint");
        let stop2 = Arc::clone(&stop);
        scraper = Some(std::thread::spawn(move || {
            use std::io::{Read, Write};
            let mut ok = 0usize;
            while !stop2.load(Ordering::Relaxed) {
                if let Ok(mut s) = std::net::TcpStream::connect(addr) {
                    let _ = s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
                    let mut body = String::new();
                    let _ = s.read_to_string(&mut body);
                    if body.contains("hardsnap_") {
                        ok += 1;
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            ok
        }));
    }
    let t0 = Instant::now();
    let ids: Vec<u64> = (0..jobs)
        .map(|i| {
            d.submit(demo_spec(&format!("o{i}"), k, 256))
                .expect("admit")
        })
        .collect();
    assert!(d.wait_idle(Duration::from_secs(600)), "observe phase hung");
    let wall_ms = t0.elapsed().as_millis() as u64;
    for id in ids {
        let s = &d.status(Some(id))[0];
        assert_eq!(s.verdict, Some(Verdict::Completed));
        assert_eq!(
            s.digest.as_deref(),
            Some(format!("{reference:#018x}").as_str()),
            "job {id}: observation changed the digest (observe={observe})"
        );
    }
    stop.store(true, Ordering::Relaxed);
    let events = drainer.map(|t| t.join().expect("drainer")).unwrap_or(0);
    let scrapes = scraper.map(|t| t.join().expect("scraper")).unwrap_or(0);
    if observe {
        assert!(events > 0, "subscriber saw no events");
        assert!(scrapes > 0, "no successful Prometheus scrape");
    }
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
    (wall_ms, events, scrapes)
}

fn phase_observe(k: u32, jobs: usize, reference: u64, trials: usize) -> ObserveOverhead {
    // min-of-N on both sides strips scheduler noise; the observed run
    // pays for event publication, per-leg telemetry merges, and the
    // concurrent scraper — all of which must stay in the noise floor.
    let mut baseline_ms = u64::MAX;
    let mut observed_ms = u64::MAX;
    let mut events_seen = 0;
    let mut scrapes = 0;
    for t in 0..trials {
        let (b, _, _) = timed_fleet(&format!("dark-{t}"), k, jobs, false, reference);
        baseline_ms = baseline_ms.min(b);
        let (o, ev, sc) = timed_fleet(&format!("lit-{t}"), k, jobs, true, reference);
        if o < observed_ms {
            observed_ms = o;
            events_seen = ev;
            scrapes = sc;
        }
    }
    let overhead_percent = if observed_ms > baseline_ms && baseline_ms > 0 {
        (observed_ms - baseline_ms) as f64 * 100.0 / baseline_ms as f64
    } else {
        0.0
    };
    ObserveOverhead {
        trials,
        baseline_ms,
        observed_ms,
        overhead_percent,
        events_seen,
        scrapes,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut json_path = "BENCH_serve.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--json" => {
                i += 1;
                json_path = args.get(i).expect("--json needs a path").clone();
            }
            other => panic!("unknown argument {other:?} (try --smoke / --json PATH)"),
        }
        i += 1;
    }
    let k: u32 = if smoke { 4 } else { 5 };
    let jobs = if smoke { 3 } else { 4 };

    banner(
        "E-serve",
        "Campaign service: budgets, admission, crash safety",
        "a bounded replica pool multiplexes budgeted jobs; kill -9 + \
         restart must reproduce uninterrupted digests bit-for-bit",
    );
    println!();

    let reference = reference_digest(&demo_spec("ref", k, 0), "main");
    println!("reference digest (demo:{k}): {reference:#018x}");

    println!();
    println!("--- phase 1: contention ({jobs} jobs, pool 2) ---");
    let contention = phase_contention(k, jobs, reference);
    let widths = [8, 8, 18, 12];
    row(&["jobs", "pool", "max queue wait", "total"], &widths);
    row(
        &[
            &contention.jobs.to_string(),
            &contention.pool.to_string(),
            &format!("{} ms", contention.max_queue_wait_ms),
            &format!("{} ms", contention.total_ms),
        ],
        &widths,
    );

    println!();
    println!("--- phase 2: saturation (pool 1, queue 1, burst 6 + wide job) ---");
    let saturation = phase_saturation(k);
    println!(
        "admitted {} / rejected {} (every rejection typed Saturated)",
        saturation.admitted, saturation.rejected
    );

    println!();
    println!("--- phase 3: over-budget cancel at quantum boundary + resume ---");
    let over = phase_over_budget(k, reference);
    println!(
        "stopped on {} after {} instructions; resumed digest matches: {}",
        over.stop.as_str(),
        over.partial_instructions,
        over.resumed_matches
    );
    assert!(over.resumed_matches, "over-budget resume diverged");

    println!();
    println!("--- phase 4: SIGKILL mid-run + restart ({jobs} jobs) ---");
    let crash = phase_crash(k, jobs, reference);
    println!(
        "killed after {} ms; {} resumed; all terminal {} ms after restart; digests match: {}",
        crash.killed_after_ms, crash.resumed_jobs, crash.recovery_ms, crash.digests_match
    );

    println!();
    println!("--- phase 5: observer effect (subscriber + Prometheus scraper) ---");
    let trials = if smoke { 1 } else { 3 };
    // The percent bound needs enough wall-clock to amortize the fixed
    // per-run costs (thread spawns, endpoint bind), so the full run
    // uses a heavier fleet than the other phases.
    let ok = if smoke { k } else { 7 };
    let obs_reference = if ok == k {
        reference
    } else {
        reference_digest(&demo_spec("oref", ok, 0), "obs")
    };
    let obs = phase_observe(ok, jobs, obs_reference, trials);
    println!(
        "dark {} ms vs observed {} ms (min of {}): overhead {:.2}% \
         ({} events drained, {} scrapes, digests bit-identical)",
        obs.baseline_ms,
        obs.observed_ms,
        obs.trials,
        obs.overhead_percent,
        obs.events_seen,
        obs.scrapes
    );
    // Smoke runs are too short to measure percent overhead meaningfully;
    // the full run enforces the paper-grade bound.
    if !smoke {
        assert!(
            obs.overhead_percent <= 2.0,
            "observability overhead {:.2}% exceeds the 2% budget",
            obs.overhead_percent
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"serve\",\n  \
         \"workload\": \"demo:{k}, bounded pool, leg-checkpointed jobs\",\n  \
         \"invariant\": \"saturation is typed, budgets cancel at quantum boundaries, kill -9 + restart reproduces uninterrupted digests\",\n  \
         \"reference_digest\": \"{reference:016x}\",\n  \
         \"contention\": {{\"jobs\": {}, \"pool\": {}, \"max_queue_wait_ms\": {}, \"total_ms\": {}}},\n  \
         \"saturation\": {{\"admitted\": {}, \"rejected\": {}}},\n  \
         \"over_budget\": {{\"stop\": \"{}\", \"partial_instructions\": {}, \"resumed_digest_matches\": {}}},\n  \
         \"crash\": {{\"jobs\": {}, \"killed_after_ms\": {}, \"recovery_ms\": {}, \"resumed_jobs\": {}, \"digests_match\": {}}},\n  \
         \"observe\": {{\"trials\": {}, \"baseline_ms\": {}, \"observed_ms\": {}, \"overhead_percent\": {:.2}, \"events_seen\": {}, \"scrapes\": {}, \"digests_match\": true}}\n}}\n",
        contention.jobs,
        contention.pool,
        contention.max_queue_wait_ms,
        contention.total_ms,
        saturation.admitted,
        saturation.rejected,
        over.stop.as_str(),
        over.partial_instructions,
        over.resumed_matches,
        crash.jobs,
        crash.killed_after_ms,
        crash.recovery_ms,
        crash.resumed_jobs,
        crash.digests_match,
        obs.trials,
        obs.baseline_ms,
        obs.observed_ms,
        obs.overhead_percent,
        obs.events_seen,
        obs.scrapes,
    );
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    println!();
    println!("recorded {json_path}");
    println!("note: phase 4 SIGKILLs a live daemon only after observing a");
    println!("checkpointed-but-unfinished job; the restarted daemon re-enqueues");
    println!("every journaled job and each resumes from its last crash-atomic");
    println!("leg checkpoint to the bit-identical canonical digest.");
}
