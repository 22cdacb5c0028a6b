//! E-sched — "Does a warm replica pool cut time-to-first-quantum, and
//! can a priority scheduler reorder work without touching a digest?"
//!
//! Exercises the two ISSUE-10 mechanisms end to end through a real
//! in-process daemon and records the numbers the board-farm story
//! needs. Three phases:
//!
//! 1. **Warm start**: the same tiny job runs through the job runner
//!    cold (it builds its own prototype: parse + elaborate + compile
//!    the SoC) and warm (it forks a pre-built prototype, exactly what
//!    the daemon's pool leases out); wall time to the terminal leg is
//!    the time-to-first-quantum proxy (the job itself is tiny, so
//!    replica acquisition dominates). The warm run must be at least 5x
//!    faster and digest bit-identically.
//! 2. **Narrow behind wide**: one long job holds a replica, a
//!    2-worker wide job heads the queue, then a burst of narrow jobs
//!    lands behind it. Under strict FIFO the unseatable wide head
//!    blocks every narrow job; under lanes the narrows pack past it
//!    (and aging still seats the wide job). p99 narrow queue wait must
//!    improve.
//! 3. **Digest invariance**: the phase-2 mix runs under both policies;
//!    every job's canonical digest must be bit-identical between the
//!    FIFO and lanes orderings — scheduling decides *when*, never
//!    *what*.
//!
//! Usage: `exp_sched [--smoke] [--json PATH]`.

use hardsnap::{CancelToken, HwTarget};
use hardsnap_bench::{banner, row};
use hardsnap_serve::{runner, Daemon, DaemonConfig, JobSpec, JobState, SchedPolicy, Verdict};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hardsnap-exp-sched-{}-{name}", std::process::id()));
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

struct WarmStart {
    trials: usize,
    cold_us: u64,
    warm_us: u64,
    speedup: f64,
    digests_match: bool,
}

/// Phase 1: min-of-N wall time for the runner to take a tiny job to
/// its terminal leg, cold build vs warm fork. The cold side times the
/// prototype build inside the job; the warm side forks a pre-built
/// prototype — the very object a daemon pool lease wraps — so the delta
/// is precisely what `--warm-pool` buys per job.
fn phase_warm_start(k: u32, trials: usize) -> WarmStart {
    let proto = runner::build_prototype().expect("prototype");
    let spec = demo_spec("ttfq", k, 0);
    let run = |proto: Option<&dyn HwTarget>, dir: &std::path::Path| {
        let t0 = Instant::now();
        let mut digest = 0;
        let (verdict, _) =
            runner::run_job(&spec, dir, &CancelToken::new(), false, proto, &mut |r| {
                digest = r.canonical_digest()
            })
            .expect("run");
        assert_eq!(verdict, Verdict::Completed);
        (t0.elapsed().as_micros() as u64, digest)
    };
    let mut cold_us = u64::MAX;
    let mut warm_us = u64::MAX;
    let mut digests_match = true;
    for t in 0..trials {
        let (c_us, c_digest) = run(None, &tmp(&format!("ttfq-cold-{t}")));
        let (w_us, w_digest) = run(Some(proto.as_ref()), &tmp(&format!("ttfq-warm-{t}")));
        cold_us = cold_us.min(c_us);
        warm_us = warm_us.min(w_us);
        digests_match &= c_digest == w_digest;
    }
    WarmStart {
        trials,
        cold_us,
        warm_us,
        speedup: cold_us as f64 / warm_us.max(1) as f64,
        digests_match,
    }
}

struct MixRun {
    narrow_waits_ms: Vec<u64>,
    wide_wait_ms: u64,
    total_ms: u64,
    /// name -> canonical digest, for the cross-policy invariance check.
    digests: BTreeMap<String, String>,
}

/// Phase 2/3 workload: `hold` occupies one of two replicas, `wide`
/// (2 workers, unseatable while `hold` runs) heads the queue, then
/// `narrow` single-worker jobs land behind it.
fn run_mix(policy: SchedPolicy, hold_k: u32, narrow: usize) -> MixRun {
    let d = Daemon::new(DaemonConfig {
        state_dir: tmp(&format!("mix-{}", policy.as_str())),
        pool_replicas: 2,
        queue_max: narrow + 4,
        sched: policy,
        aging_ms: 400,
        ..DaemonConfig::default()
    })
    .expect("daemon");
    let t0 = Instant::now();
    let hold_id = d.submit(demo_spec("hold", hold_k, 64)).expect("admit hold");
    // The wide job must arrive while `hold` is demonstrably running,
    // otherwise it seats instantly and there is nothing to measure.
    let seated = Instant::now() + Duration::from_secs(120);
    while d.status(Some(hold_id))[0].state == JobState::Queued {
        assert!(Instant::now() < seated, "hold job never seated");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut wide = demo_spec("wide", 4, 0);
    wide.workers = 2;
    wide.priority = 3;
    let wide_id = d.submit(wide).expect("admit wide");
    let narrow_ids: Vec<u64> = (0..narrow)
        .map(|i| {
            let mut s = demo_spec(&format!("n{i}"), 2 + (i % 3) as u32, 0);
            s.priority = 5;
            d.submit(s).expect("admit narrow")
        })
        .collect();
    assert!(d.wait_idle(Duration::from_secs(600)), "mix hung");
    let total_ms = t0.elapsed().as_millis() as u64;

    let mut digests = BTreeMap::new();
    let mut narrow_waits_ms = Vec::new();
    for s in d.status(None) {
        assert_eq!(
            s.verdict,
            Some(Verdict::Completed),
            "job {} ({}) did not complete",
            s.id,
            s.name
        );
        digests.insert(s.name.clone(), s.digest.clone().expect("digest"));
        if narrow_ids.contains(&s.id) {
            narrow_waits_ms.push(s.queue_wait_ms);
        }
    }
    let wide_wait_ms = d.status(Some(wide_id))[0].queue_wait_ms;
    MixRun {
        narrow_waits_ms,
        wide_wait_ms,
        total_ms,
        digests,
    }
}

fn pctl(mut v: Vec<u64>, p: f64) -> u64 {
    assert!(!v.is_empty());
    v.sort_unstable();
    let idx = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut json_path = "BENCH_sched.json".to_string();
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
    let trials = if smoke { 2 } else { 3 };
    let hold_k: u32 = if smoke { 5 } else { 7 };
    let narrow = if smoke { 4 } else { 8 };

    banner(
        "E-sched",
        "Warm replica pools + budget-aware scheduling",
        "a warm pool must cut time-to-first-quantum >= 5x and priority \
         lanes must cut narrow-behind-wide queue waits, all without \
         changing any canonical digest",
    );
    println!();

    println!("--- phase 1: warm vs cold time-to-first-quantum (min of {trials}) ---");
    let ws = phase_warm_start(1, trials);
    let widths = [14, 14, 10, 14];
    row(&["cold", "warm", "speedup", "digests match"], &widths);
    row(
        &[
            &format!("{} us", ws.cold_us),
            &format!("{} us", ws.warm_us),
            &format!("{:.1}x", ws.speedup),
            &ws.digests_match.to_string(),
        ],
        &widths,
    );
    assert!(ws.digests_match, "warm replica changed the digest");
    if !smoke {
        assert!(
            ws.speedup >= 5.0,
            "warm start speedup {:.1}x below the 5x bar",
            ws.speedup
        );
    }

    println!();
    println!("--- phase 2: narrow-behind-wide, fifo vs lanes ({narrow} narrow jobs) ---");
    let fifo = run_mix(SchedPolicy::Fifo, hold_k, narrow);
    let lanes = run_mix(SchedPolicy::Lanes, hold_k, narrow);
    let fifo_p99 = pctl(fifo.narrow_waits_ms.clone(), 0.99);
    let lanes_p99 = pctl(lanes.narrow_waits_ms.clone(), 0.99);
    let widths = [8, 16, 16, 14, 12];
    row(
        &[
            "policy",
            "narrow p99 wait",
            "wide wait",
            "fleet total",
            "jobs",
        ],
        &widths,
    );
    for (name, run, p99) in [("fifo", &fifo, fifo_p99), ("lanes", &lanes, lanes_p99)] {
        row(
            &[
                name,
                &format!("{p99} ms"),
                &format!("{} ms", run.wide_wait_ms),
                &format!("{} ms", run.total_ms),
                &(run.narrow_waits_ms.len() + 2).to_string(),
            ],
            &widths,
        );
    }
    // Smoke fleets are too small for a stable percentile; the full run
    // enforces the paper-grade ordering.
    if !smoke {
        assert!(
            lanes_p99 < fifo_p99,
            "lanes p99 {lanes_p99} ms did not improve on fifo p99 {fifo_p99} ms"
        );
    }

    println!();
    println!("--- phase 3: digest invariance across scheduling policies ---");
    assert_eq!(
        fifo.digests, lanes.digests,
        "scheduling order changed a canonical digest"
    );
    println!(
        "{} jobs, every digest bit-identical between fifo and lanes",
        fifo.digests.len()
    );

    let json = format!(
        "{{\n  \"experiment\": \"sched\",\n  \
         \"workload\": \"tiny demo job (warm-start), hold + wide + {narrow} narrow jobs (lanes)\",\n  \
         \"invariant\": \"warm pools and priority lanes change when jobs run, never their digests\",\n  \
         \"warm_start\": {{\"trials\": {}, \"cold_us\": {}, \"warm_us\": {}, \"speedup\": {:.1}, \"digests_match\": {}}},\n  \
         \"narrow_behind_wide\": {{\"jobs\": {}, \"fifo_p99_wait_ms\": {}, \"lanes_p99_wait_ms\": {}, \"fifo_wide_wait_ms\": {}, \"lanes_wide_wait_ms\": {}}},\n  \
         \"digest_invariance\": {{\"jobs\": {}, \"fifo_equals_lanes\": {}}}\n}}\n",
        ws.trials,
        ws.cold_us,
        ws.warm_us,
        ws.speedup,
        ws.digests_match,
        narrow,
        fifo_p99,
        lanes_p99,
        fifo.wide_wait_ms,
        lanes.wide_wait_ms,
        fifo.digests.len(),
        fifo.digests == lanes.digests,
    );
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    println!();
    println!("recorded {json_path}");
    println!("note: phase 2 submits the wide job only once `hold` is observed");
    println!("running, so the wide head is genuinely unseatable; lanes packing");
    println!("seats the narrow burst past it while aging still guarantees the");
    println!("wide job a seat, and phase 3 pins that none of this reordering");
    println!("ever changes a canonical digest.");
}
