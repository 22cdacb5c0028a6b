//! [`TimedTarget`]: a host-clock timing decorator over any
//! [`HwTarget`]. The traced run wraps the simulator prototype in it, so
//! every call the engines and the fuzzer make into the `sim` layer is
//! counted and timed from outside the crates. Replicas made by
//! `fork_clean` come back wrapped too, which is how the workers of
//! `ParallelEngine` are timed.
//!
//! Each replica has its own counters (no cache line shared between
//! worker threads); a [`Clock`] sums them. Per-op spans are recorded
//! only while [`Clock::set_spans`] is on, up to [`SPAN_CAP`].

use hardsnap_bus::{
    BusError, FaultStats, HwSnapshot, HwTarget, LazyRestore, SnapshotCapture, SnapshotFile,
    TargetCaps, TargetError,
};
use hardsnap_telemetry::{Recorder, SpanEvent};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Most per-op spans one trace keeps; the counters still see every op.
pub const SPAN_CAP: usize = 65_536;

/// The operations of the `sim` layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `step`: clocking the design with no bus activity.
    Step,
    /// `bus_read` / `bus_write`: one forwarded MMIO access.
    Mmio,
    /// `irq_lines`: interrupt-line poll.
    Irq,
    /// `save_snapshot` / `save_snapshot_delta`.
    Capture,
    /// `restore_snapshot` / `restore_snapshot_lazy`.
    Restore,
    /// `fork_clean`: a power-on replica.
    Fork,
    /// `reset`: power-on reset sequence.
    Reset,
}

impl Op {
    /// Every op, in report order.
    pub const ALL: [Op; 7] = [
        Op::Step,
        Op::Mmio,
        Op::Irq,
        Op::Capture,
        Op::Restore,
        Op::Fork,
        Op::Reset,
    ];

    /// Report name (`sim.<name>.*`).
    pub fn name(self) -> &'static str {
        match self {
            Op::Step => "step",
            Op::Mmio => "mmio",
            Op::Irq => "irq",
            Op::Capture => "capture",
            Op::Restore => "restore",
            Op::Fork => "fork",
            Op::Reset => "reset",
        }
    }
}

#[derive(Default)]
struct Counters {
    calls: [AtomicU64; 7],
    busy_ns: [AtomicU64; 7],
}

/// Summed op counts and busy time of every replica of one [`Clock`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Calls per op, indexed like [`Op::ALL`].
    pub calls: [u64; 7],
    /// Host nanoseconds inside each op.
    pub busy_ns: [u64; 7],
}

impl OpTotals {
    /// Host nanoseconds inside any op.
    pub fn busy_ns_total(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

/// Shared state of one traced run: the replicas' counters, the span
/// buffer and the trace epoch.
pub struct Clock {
    epoch: Instant,
    replicas: Mutex<Vec<Arc<Counters>>>,
    spans_on: AtomicBool,
    spans: Mutex<Vec<SpanEvent>>,
    dropped_spans: AtomicU64,
    next_track: AtomicU32,
}

impl Clock {
    /// A clock with no replicas yet. Track 0 is the harness's own.
    pub fn new() -> Arc<Clock> {
        Arc::new(Clock {
            epoch: Instant::now(),
            replicas: Mutex::new(Vec::new()),
            spans_on: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            dropped_spans: AtomicU64::new(0),
            next_track: AtomicU32::new(1),
        })
    }

    /// Wraps `inner` as a new timed replica on its own trace track.
    pub fn wrap(self: &Arc<Self>, inner: Box<dyn HwTarget>) -> TimedTarget {
        let counters = Arc::new(Counters::default());
        self.replicas
            .lock()
            .expect("clock registry lock poisoned")
            .push(Arc::clone(&counters));
        TimedTarget {
            inner,
            clock: Arc::clone(self),
            counters,
            track: self.next_track.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Sum over every replica wrapped so far.
    pub fn totals(&self) -> OpTotals {
        let mut t = OpTotals::default();
        for c in self
            .replicas
            .lock()
            .expect("clock registry lock poisoned")
            .iter()
        {
            for i in 0..Op::ALL.len() {
                t.calls[i] += c.calls[i].load(Ordering::Relaxed);
                t.busy_ns[i] += c.busy_ns[i].load(Ordering::Relaxed);
            }
        }
        t
    }

    /// Turns per-op spans on or off.
    pub fn set_spans(&self, on: bool) {
        self.spans_on.store(on, Ordering::Relaxed);
    }

    /// Records one span on the harness's track 0. Unlike per-op spans
    /// these are never capped: there is one per campaign or job.
    pub fn span(&self, cat: &'static str, name: &'static str, t0: Instant, t1: Instant) {
        self.push(0, cat, name, t0, t1, usize::MAX);
    }

    fn push(
        &self,
        track: u32,
        cat: &'static str,
        name: &'static str,
        t0: Instant,
        t1: Instant,
        cap: usize,
    ) {
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        if spans.len() >= cap {
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ts_ns = t0.saturating_duration_since(self.epoch).as_nanos() as u64;
        spans.push(SpanEvent {
            name,
            cat,
            track,
            ts_ns,
            dur_ns: (t1 - t0).as_nanos() as u64,
            arg: 0,
        });
    }

    /// Drains the recorded spans, plus how many the cap turned away.
    pub fn take_spans(&self) -> (Vec<SpanEvent>, u64) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span buffer lock poisoned"));
        (spans, self.dropped_spans.swap(0, Ordering::Relaxed))
    }

    /// Replica tracks handed out so far (for trace metadata).
    pub fn tracks(&self) -> u32 {
        self.next_track.load(Ordering::Relaxed)
    }
}

/// A timed replica: forwards every [`HwTarget`] method to `inner`,
/// timing the `sim`-layer ops.
pub struct TimedTarget {
    inner: Box<dyn HwTarget>,
    clock: Arc<Clock>,
    counters: Arc<Counters>,
    track: u32,
}

impl TimedTarget {
    #[inline]
    fn timed<R>(&mut self, op: Op, f: impl FnOnce(&mut dyn HwTarget) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_mut());
        let t1 = Instant::now();
        self.record(op, t0, t1);
        r
    }

    #[inline]
    fn record(&self, op: Op, t0: Instant, t1: Instant) {
        let i = op as usize;
        self.counters.calls[i].fetch_add(1, Ordering::Relaxed);
        self.counters.busy_ns[i].fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        if self.clock.spans_on.load(Ordering::Relaxed) {
            self.clock
                .push(self.track, "sim", op.name(), t0, t1, SPAN_CAP);
        }
    }
}

impl HwTarget for TimedTarget {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn caps(&self) -> TargetCaps {
        self.inner.caps()
    }
    fn design_name(&self) -> &str {
        self.inner.design_name()
    }
    fn reset(&mut self) {
        self.timed(Op::Reset, |t| t.reset());
    }
    fn step(&mut self, cycles: u64) {
        self.timed(Op::Step, |t| t.step(cycles));
    }
    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }
    fn bus_read(&mut self, addr: u32) -> Result<u32, BusError> {
        self.timed(Op::Mmio, |t| t.bus_read(addr))
    }
    fn bus_write(&mut self, addr: u32, data: u32) -> Result<(), BusError> {
        self.timed(Op::Mmio, |t| t.bus_write(addr, data))
    }
    fn irq_lines(&mut self) -> u32 {
        self.timed(Op::Irq, |t| t.irq_lines())
    }
    fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError> {
        self.timed(Op::Capture, |t| t.save_snapshot())
    }
    fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError> {
        self.timed(Op::Restore, |t| t.restore_snapshot(snap))
    }
    fn virtual_time_ns(&self) -> u64 {
        self.inner.virtual_time_ns()
    }
    fn fork_clean(&self) -> Result<Box<dyn HwTarget>, TargetError> {
        let t0 = Instant::now();
        let replica = self.inner.fork_clean();
        let t1 = Instant::now();
        self.record(Op::Fork, t0, t1);
        Ok(Box::new(self.clock.wrap(replica?)))
    }
    fn snapshot_shape(&self) -> u64 {
        self.inner.snapshot_shape()
    }
    fn capture_checksum(&self) -> u64 {
        self.inner.capture_checksum()
    }
    fn fault_stats(&self) -> Option<FaultStats> {
        self.inner.fault_stats()
    }
    fn attach_recorder(&mut self, rec: &Recorder) {
        self.inner.attach_recorder(rec);
    }
    fn set_delta_snapshots(&mut self, on: bool) {
        self.inner.set_delta_snapshots(on);
    }
    fn save_snapshot_delta(&mut self) -> Result<SnapshotCapture, TargetError> {
        self.timed(Op::Capture, |t| t.save_snapshot_delta())
    }
    fn restore_snapshot_lazy(&mut self, file: &SnapshotFile) -> Result<LazyRestore, TargetError> {
        self.timed(Op::Restore, |t| t.restore_snapshot_lazy(file))
    }
}
