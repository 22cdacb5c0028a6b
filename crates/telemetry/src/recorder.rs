//! The per-worker recorder: counters, log2 histograms, spans.
//!
//! Design constraints, in order:
//!
//! 1. **Zero-cost when disabled.** `Recorder` is a newtype over
//!    `Option<Arc<Inner>>`; a disabled recorder records nothing and
//!    never calls `Instant::now()`. Hot hooks cost one branch.
//! 2. **Lock-free-ish when enabled.** Counters and histogram buckets
//!    are relaxed atomics (a recorder may be shared between an engine,
//!    its supervisor and its target, all on the same worker thread, so
//!    contention is nil — the atomics buy `Sync` without a lock).
//!    Spans append under a `Mutex` that is only ever contended at
//!    snapshot time.
//! 3. **Determinism-safe.** Nothing here is readable by the engine
//!    while it runs; wall-clock timestamps exist only inside span
//!    events, which only exporters consume.

use hardsnap_util::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Number of log2 buckets per histogram. Bucket 0 holds exact zeros;
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`; the last bucket
/// absorbs everything above.
pub const BUCKETS: usize = 64;

/// Bucket index for a value: 0 for 0, otherwise `floor(log2(v)) + 1`,
/// clamped to the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of a bucket (0, 1, 2, 4, 8, ...).
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

macro_rules! enum_metric {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $label:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)*
        }

        impl $name {
            /// Every variant, in declaration (and export) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];

            /// Number of variants (array sizing).
            pub const COUNT: usize = $name::ALL.len();

            /// snake_case name used by exporters.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)*
                }
            }
        }
    };
}

enum_metric! {
    /// Named event counters. Kept as an enum (not strings) so the hot
    /// path is an array index, not a map lookup.
    Counter {
        /// Algorithm-1 `switch_target` handoffs (UpdateState +
        /// RestoreState pairs).
        ContextSwitches => "context_switches",
        /// Hardware snapshot captures (UpdateState).
        SnapshotsSaved => "snapshots_saved",
        /// Hardware snapshot restores (RestoreState).
        SnapshotsRestored => "snapshots_restored",
        /// Captures that shipped as a delta against a shared base
        /// instead of a full image.
        DeltaSnapshotsSaved => "delta_snapshots_saved",
        /// Scheduler quanta executed.
        Quanta => "quanta",
        /// Work items a worker flattened out of its term pool and
        /// handed to a waiting worker.
        StatesHandedOff => "states_handed_off",
        /// MMIO reads forwarded to the target.
        BusReads => "bus_reads",
        /// MMIO writes forwarded to the target.
        BusWrites => "bus_writes",
        /// Interrupts delivered to the CPU.
        IrqsDelivered => "irqs_delivered",
        /// Scan-chain shift passes (FPGA backend).
        ScanShifts => "scan_shifts",
        /// Full reboots (NaiveConsistent reboot+replay).
        Reboots => "reboots",
        /// Transport operations retried by the supervisor.
        Retries => "retries",
        /// Operations that eventually succeeded after retries.
        Recovered => "recovered",
        /// Replicas quarantined and rebuilt.
        Quarantines => "quarantines",
        /// Faults injected by a `FaultyTarget` transport.
        FaultsInjected => "faults_injected",
        /// Bytecode-simulator comb ops executed (dirty blocks only).
        SimOpsExecuted => "sim.ops_executed",
        /// Bytecode-simulator comb ops skipped by activity scheduling.
        SimOpsSkipped => "sim.ops_skipped",
        /// Bytecode-simulator clocked-block runs (flagged blocks only).
        SimClockedRuns => "sim.clocked_runs",
        /// Bytecode-simulator clocked-block runs skipped because nothing
        /// the block reads or writes changed since its last run.
        SimClockedSkipped => "sim.clocked_skipped",
        /// Campaign-service jobs admitted (scheduled or queued).
        JobsAdmitted => "serve.jobs_admitted",
        /// Campaign-service submissions rejected with `Saturated`.
        JobsRejected => "serve.jobs_rejected",
        /// Campaign-service jobs that reached a terminal verdict.
        JobsCompleted => "serve.jobs_completed",
        /// Campaign-service jobs cancelled (watchdog or client).
        JobsCancelled => "serve.jobs_cancelled",
        /// In-flight jobs recovered after a daemon restart.
        JobsRecovered => "serve.jobs_recovered",
        /// Running jobs cancelled by the daemon watchdog (wall-clock
        /// deadline exceeded).
        ServeWatchdogCancels => "serve.watchdog_cancels",
        /// Lifecycle/progress events published on the daemon event bus.
        ServeEventsPublished => "serve.events_published",
        /// Events dropped because a subscriber queue was full (the bus
        /// never blocks the runner; it sheds load and counts it).
        ServeEventsDropped => "serve.events_dropped",
        /// Metrics snapshots served (`metrics` verb or Prometheus
        /// scrape).
        ServeMetricsScrapes => "serve.metrics_scrapes",
        /// Flight-recorder dumps written (verb, SIGTERM, or panic).
        ServeFlightDumps => "serve.flight_dumps",
        /// Jobs that leased a pre-built warm-pool prototype instead of
        /// building one cold.
        ServePoolHits => "serve.pool_hits",
        /// Jobs that wanted a warm prototype but built one cold (every
        /// prototype leased or still being built).
        ServePoolMisses => "serve.pool_misses",
    }
}

enum_metric! {
    /// Named log2-bucketed histograms. Virtual-time metrics are
    /// deterministic (they come from the target cost models);
    /// wall-time lives only in spans.
    Metric {
        /// Virtual nanoseconds charged per snapshot capture.
        CaptureVtimeNs => "capture_vtime_ns",
        /// Virtual nanoseconds charged per snapshot restore.
        RestoreVtimeNs => "restore_vtime_ns",
        /// Per-capture dirty fraction: delta bytes as a permille of the
        /// full image size (1000 = a full capture).
        SnapshotDirtyPermille => "snapshot_dirty_permille",
        /// Scan-chain cycles per shift pass (FPGA backend).
        ScanShiftCycles => "scan_shift_cycles",
        /// Instructions retired per scheduler quantum.
        QuantumInstructions => "quantum_instructions",
        /// Virtual nanoseconds of backoff charged per retry pause.
        BackoffNs => "backoff_ns",
        /// Recovery latency (charged vtime) for bus-timeout faults.
        RecoveryVtimeBusTimeout => "recovery_vtime_ns.bus_timeout",
        /// Recovery latency (charged vtime) for not-ready/hang faults.
        RecoveryVtimeNotReady => "recovery_vtime_ns.not_ready",
        /// Recovery latency (charged vtime) for corrupt-capture faults.
        RecoveryVtimeCorruptCapture => "recovery_vtime_ns.corrupt_capture",
        /// Recovery latency (charged vtime) for restore-path faults.
        RecoveryVtimeRestore => "recovery_vtime_ns.restore",
        /// Attempts needed to recover from bus-timeout faults.
        RecoveryRetriesBusTimeout => "recovery_retries.bus_timeout",
        /// Attempts needed to recover from not-ready/hang faults.
        RecoveryRetriesNotReady => "recovery_retries.not_ready",
        /// Attempts needed to recover from corrupt-capture faults.
        RecoveryRetriesCorruptCapture => "recovery_retries.corrupt_capture",
        /// Attempts needed to recover from restore-path faults.
        RecoveryRetriesRestore => "recovery_retries.restore",
        /// Recovery latency (charged vtime) for glitched IRQ polls.
        RecoveryVtimeIrqGlitch => "recovery_vtime_ns.irq_glitch",
        /// Samples needed to settle a glitched IRQ poll.
        RecoveryRetriesIrqGlitch => "recovery_retries.irq_glitch",
        /// Comb ops executed per simulator `step()` (dirty-cone
        /// activity; 0 for a fully quiescent cycle).
        SimCombOpsPerStep => "sim.comb_ops_per_step",
        /// Campaign-service queue depth sampled at each admission (a
        /// distribution; the instantaneous depth is the
        /// `serve.queue_depth` gauge).
        ServeQueueDepth => "serve.queue_depth_at_admission",
        /// Virtual queue-wait: milliseconds between a job's submission
        /// and its first leg starting.
        ServeQueueWaitMs => "serve.queue_wait_ms",
        /// Wall-clock microseconds per crash-atomic journal write
        /// (tmp + fsync + rename).
        ServeJournalFsyncUs => "serve.journal_fsync_us",
        /// Queue wait (ms) for jobs admitted into priority lane 0
        /// (lowest). One histogram per lane so starvation shows up as
        /// a fat tail on exactly the lane suffering it.
        ServeQueueWaitLane0Ms => "serve.queue_wait_ms.lane0",
        /// Queue wait (ms) for lane 1.
        ServeQueueWaitLane1Ms => "serve.queue_wait_ms.lane1",
        /// Queue wait (ms) for lane 2.
        ServeQueueWaitLane2Ms => "serve.queue_wait_ms.lane2",
        /// Queue wait (ms) for lane 3 (the default submission lane).
        ServeQueueWaitLane3Ms => "serve.queue_wait_ms.lane3",
        /// Queue wait (ms) for lane 4.
        ServeQueueWaitLane4Ms => "serve.queue_wait_ms.lane4",
        /// Queue wait (ms) for lane 5.
        ServeQueueWaitLane5Ms => "serve.queue_wait_ms.lane5",
        /// Queue wait (ms) for lane 6.
        ServeQueueWaitLane6Ms => "serve.queue_wait_ms.lane6",
        /// Queue wait (ms) for lane 7 (highest priority).
        ServeQueueWaitLane7Ms => "serve.queue_wait_ms.lane7",
    }
}

impl Metric {
    /// The per-lane queue-wait histogram for `lane` (clamped to the
    /// highest lane).
    pub fn queue_wait_lane(lane: u64) -> Metric {
        match lane {
            0 => Metric::ServeQueueWaitLane0Ms,
            1 => Metric::ServeQueueWaitLane1Ms,
            2 => Metric::ServeQueueWaitLane2Ms,
            3 => Metric::ServeQueueWaitLane3Ms,
            4 => Metric::ServeQueueWaitLane4Ms,
            5 => Metric::ServeQueueWaitLane5Ms,
            6 => Metric::ServeQueueWaitLane6Ms,
            _ => Metric::ServeQueueWaitLane7Ms,
        }
    }
}

/// Coarse classification of a recoverable transport fault, used to
/// pick the per-kind recovery histograms. The supervisor classifies
/// by *observed error*, which is the honest view: a scan bit flip and
/// a truncated capture both surface as a corrupt capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Bus handshake timed out.
    BusTimeout,
    /// Target not ready / wedged (hang-like).
    NotReady,
    /// Capture failed integrity validation (bit flip, truncation).
    CorruptCapture,
    /// Failure on the restore path.
    Restore,
    /// IRQ-line poll observed a glitched bitmask and was re-sampled.
    IrqGlitch,
}

impl FaultClass {
    /// All classes, in export order.
    pub const ALL: &'static [FaultClass] = &[
        FaultClass::BusTimeout,
        FaultClass::NotReady,
        FaultClass::CorruptCapture,
        FaultClass::Restore,
        FaultClass::IrqGlitch,
    ];

    /// Human label (matches the metric name suffix).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::BusTimeout => "bus_timeout",
            FaultClass::NotReady => "not_ready",
            FaultClass::CorruptCapture => "corrupt_capture",
            FaultClass::Restore => "restore",
            FaultClass::IrqGlitch => "irq_glitch",
        }
    }

    /// Histogram of charged recovery vtime for this class.
    pub fn latency_metric(self) -> Metric {
        match self {
            FaultClass::BusTimeout => Metric::RecoveryVtimeBusTimeout,
            FaultClass::NotReady => Metric::RecoveryVtimeNotReady,
            FaultClass::CorruptCapture => Metric::RecoveryVtimeCorruptCapture,
            FaultClass::Restore => Metric::RecoveryVtimeRestore,
            FaultClass::IrqGlitch => Metric::RecoveryVtimeIrqGlitch,
        }
    }

    /// Histogram of attempts-to-recover for this class.
    pub fn retries_metric(self) -> Metric {
        match self {
            FaultClass::BusTimeout => Metric::RecoveryRetriesBusTimeout,
            FaultClass::NotReady => Metric::RecoveryRetriesNotReady,
            FaultClass::CorruptCapture => Metric::RecoveryRetriesCorruptCapture,
            FaultClass::Restore => Metric::RecoveryRetriesRestore,
            FaultClass::IrqGlitch => Metric::RecoveryRetriesIrqGlitch,
        }
    }

    /// Span name for the retry interval of this class.
    pub fn span_name(self) -> &'static str {
        match self {
            FaultClass::BusTimeout => "retry:bus-timeout",
            FaultClass::NotReady => "retry:not-ready",
            FaultClass::CorruptCapture => "retry:corrupt-capture",
            FaultClass::Restore => "retry:restore",
            FaultClass::IrqGlitch => "retry:irq-glitch",
        }
    }
}

/// A completed span: wall-clock interval on a worker track. Instant
/// events (duration 0) share the representation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Event name (e.g. `"capture"`, `"context-switch"`).
    pub name: &'static str,
    /// Category (`"snapshot"`, `"scan"`, `"engine"`, `"fault"`).
    pub cat: &'static str,
    /// Track (worker replica) id.
    pub track: u32,
    /// Nanoseconds since the process-wide trace epoch.
    pub ts_ns: u64,
    /// Wall-clock duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// One numeric argument (bytes, cycles, attempts — span-specific).
    pub arg: u64,
}

/// Process-wide trace epoch: all recorders stamp spans relative to
/// this, so per-worker tracks share one timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Inner {
    track: u32,
    label: String,
    epoch: Instant,
    counters: [AtomicU64; Counter::COUNT],
    hists: [[AtomicU64; BUCKETS]; Metric::COUNT],
    sums: [AtomicU64; Metric::COUNT],
    spans: Mutex<Vec<SpanEvent>>,
}

/// Handle to a per-worker telemetry sink. Cheap to clone; all clones
/// share one sink. A disabled recorder (the default) records nothing.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Recorder(disabled)"),
            Some(i) => write!(f, "Recorder(track {} {:?})", i.track, i.label),
        }
    }
}

impl Recorder {
    /// A recorder that records nothing (every hook is one branch).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder for the given track (worker replica).
    pub fn enabled(track: u32, label: impl Into<String>) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                track,
                label: label.into(),
                epoch: epoch(),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
                sums: std::array::from_fn(|_| AtomicU64::new(0)),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Build from a config: enabled iff `cfg.enabled`.
    pub fn from_config(
        cfg: &crate::TelemetryConfig,
        track: u32,
        label: impl Into<String>,
    ) -> Recorder {
        if cfg.enabled {
            Recorder::enabled(track, label)
        } else {
            Recorder::disabled()
        }
    }

    /// Is this recorder collecting anything?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Bump a counter by 1.
    #[inline]
    pub fn count(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Bump a counter by `n`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one observation into a histogram. The running sum is
    /// kept alongside the buckets so exporters (Prometheus `_sum`) can
    /// report exact totals, not bucket approximations.
    #[inline]
    pub fn observe(&self, m: Metric, v: u64) {
        if let Some(inner) = &self.inner {
            inner.hists[m as usize][bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            inner.sums[m as usize].fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Open a span; it records itself when the guard drops. Disabled
    /// recorders hand back an inert guard without reading the clock.
    /// The guard owns a clone of the sink, so the recorder (and the
    /// struct holding it) stays freely borrowable while a span is open.
    #[inline]
    #[must_use = "the span measures until the guard drops"]
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard {
        SpanGuard {
            inner: self.inner.as_ref().map(|i| (Arc::clone(i), Instant::now())),
            cat,
            name,
            arg: 0,
        }
    }

    /// Record a zero-duration instant event.
    #[inline]
    pub fn instant(&self, cat: &'static str, name: &'static str, arg: u64) {
        if let Some(inner) = &self.inner {
            let ts_ns = inner.epoch.elapsed().as_nanos() as u64;
            inner.spans.lock().push(SpanEvent {
                name,
                cat,
                track: inner.track,
                ts_ns,
                dur_ns: 0,
                arg,
            });
        }
    }

    /// Drain this recorder into an exportable snapshot. Returns `None`
    /// when disabled. Spans are taken (subsequent snapshots see only
    /// new spans); counters and histograms are cumulative reads.
    pub fn snapshot(&self) -> Option<crate::MetricsSnapshot> {
        let inner = self.inner.as_ref()?;
        let mut snap = crate::MetricsSnapshot::empty();
        snap.tracks.push((inner.track, inner.label.clone()));
        for &c in Counter::ALL {
            let v = inner.counters[c as usize].load(Ordering::Relaxed);
            if v != 0 {
                snap.add_counter(c.name(), v);
            }
        }
        for &m in Metric::ALL {
            let buckets: Vec<u64> = inner.hists[m as usize]
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            if buckets.iter().any(|&b| b != 0) {
                snap.hists.push(HistSnapshot {
                    name: m.name().to_string(),
                    buckets,
                    sum: inner.sums[m as usize].load(Ordering::Relaxed),
                });
            }
        }
        snap.spans = std::mem::take(&mut *inner.spans.lock());
        Some(snap)
    }
}

/// RAII guard returned by [`Recorder::span`]; records the interval on
/// drop. Inert (no clock reads, no sink) when the recorder is
/// disabled.
pub struct SpanGuard {
    inner: Option<(Arc<Inner>, Instant)>,
    cat: &'static str,
    name: &'static str,
    arg: u64,
}

impl SpanGuard {
    /// Attach the span's numeric argument (bytes, cycles, attempts).
    #[inline]
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, start)) = self.inner.take() {
            let end = inner.epoch.elapsed().as_nanos() as u64;
            let ts_ns = (start.duration_since(inner.epoch).as_nanos() as u64).min(end);
            inner.spans.lock().push(SpanEvent {
                name: self.name,
                cat: self.cat,
                track: inner.track,
                ts_ns,
                dur_ns: end - ts_ns,
                arg: self.arg,
            });
        }
    }
}

/// One exported histogram: name plus per-bucket counts (see
/// [`bucket_lower_bound`] for bucket boundaries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Metric name (snake_case, may be dotted for per-kind families).
    pub name: String,
    /// `BUCKETS` counts; bucket 0 is exact zeros.
    pub buckets: Vec<u64>,
    /// Exact sum of all observed values (buckets only bound them).
    pub sum: u64,
}

impl HistSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Approximate quantile: the lower bound of the bucket containing
    /// the `q`-th observation (`q` in `[0, 1]`).
    pub fn approx_quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_lower_bound(i);
            }
        }
        bucket_lower_bound(BUCKETS - 1)
    }

    /// Merge another histogram's buckets into this one (same metric).
    /// Bucket-wise addition plus sum addition: associative and
    /// commutative, so daemon-side aggregation order never matters.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardsnap_util::prop::{any, vec_of};
    use hardsnap_util::prop_check;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(5), 16);
    }

    #[test]
    fn prop_value_falls_in_its_bucket() {
        prop_check!((v in any::<u64>()) => {
            let i = bucket_index(v);
            let lo = bucket_lower_bound(i);
            assert!(v >= lo, "{v} below bucket {i} lower bound {lo}");
            // Last bucket is open-ended; otherwise v < next bound.
            if i < BUCKETS - 1 {
                assert!(v < bucket_lower_bound(i + 1), "{v} past bucket {i}");
            }
        });
    }

    #[test]
    fn prop_bucket_index_monotonic() {
        prop_check!((a in any::<u64>(), b in any::<u64>()) => {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(bucket_index(lo) <= bucket_index(hi));
        });
    }

    #[test]
    fn prop_merge_preserves_count() {
        let mk = |vals: &[u16]| {
            let mut h = HistSnapshot {
                name: "t".into(),
                buckets: vec![0; BUCKETS],
                sum: 0,
            };
            for &v in vals {
                h.buckets[bucket_index(v as u64)] += 1;
                h.sum += v as u64;
            }
            h
        };
        prop_check!((xs in vec_of(any::<u16>(), 0..32), ys in vec_of(any::<u16>(), 0..32)) => {
            let mut a = mk(&xs);
            let b = mk(&ys);
            let want_sum = a.sum + b.sum;
            a.merge(&b);
            assert_eq!(a.count(), (xs.len() + ys.len()) as u64);
            assert_eq!(a.sum, want_sum);
        });
    }

    #[test]
    fn prop_quantile_monotone_and_bounded() {
        prop_check!((xs in vec_of(any::<u32>(), 0..64)) => {
            let mut h = HistSnapshot {
                name: "t".into(),
                buckets: vec![0; BUCKETS],
                sum: 0,
            };
            let mut max = 0u64;
            for &v in &xs {
                h.buckets[bucket_index(v as u64)] += 1;
                max = max.max(v as u64);
            }
            let p50 = h.approx_quantile(0.5);
            let p99 = h.approx_quantile(0.99);
            assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
            // Quantiles report bucket lower bounds, so they never
            // exceed the true maximum.
            assert!(p99 <= max, "p99 {p99} > max {max}");
        });
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.count(Counter::ContextSwitches);
        r.observe(Metric::CaptureVtimeNs, 42);
        {
            let mut g = r.span("engine", "quantum");
            g.set_arg(7);
        }
        r.instant("fault", "inject", 1);
        assert!(r.snapshot().is_none());
    }

    #[test]
    fn enabled_recorder_collects() {
        let r = Recorder::enabled(3, "worker-3");
        r.count(Counter::Retries);
        r.add(Counter::Retries, 2);
        r.observe(Metric::BackoffNs, 1000);
        {
            let mut g = r.span("snapshot", "capture");
            g.set_arg(128);
        }
        r.instant("fault", "inject:bus-timeout", 1);
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.tracks, vec![(3, "worker-3".to_string())]);
        assert_eq!(snap.counter("retries"), 3);
        let h = snap.hist("backoff_ns").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.buckets[bucket_index(1000)], 1);
        assert_eq!(snap.spans.len(), 2);
        let cap = snap.spans.iter().find(|s| s.name == "capture").unwrap();
        assert_eq!((cap.track, cap.arg), (3, 128));
        // Spans drain; counters are cumulative.
        let again = r.snapshot().unwrap();
        assert!(again.spans.is_empty());
        assert_eq!(again.counter("retries"), 3);
    }
}
