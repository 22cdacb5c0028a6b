//! Deterministic fault injection for hardware targets.
//!
//! The real HardSnap drives its FPGA over a physical USB3/JTAG link
//! (paper §III-B) where handshake timeouts, dropped scan bits and board
//! hangs are routine. [`FaultyTarget`] models that unreliable transport:
//! it wraps any [`HwTarget`] and injects faults drawn from a seeded PRNG
//! ([`hardsnap_util::rng`]) according to a [`FaultPlan`], so a faulted
//! run replays bit-exactly from its seed. The supervision layer in
//! `hardsnap-core` is tested against this decorator: recovery must make
//! the analysis result identical to the fault-free run.
//!
//! Fault taxonomy (each class has its own rate):
//!
//! * **Bus timeouts** — an AXI read/write fails with
//!   [`BusError::Timeout`] *before* reaching the design, so a retry of
//!   the same transaction observes the same device state (important for
//!   non-idempotent registers such as FIFO ports).
//! * **Scan-chain bit flips** — a capture succeeds but one register
//!   image carries a bit above its declared width, exactly what a
//!   dropped/duplicated scan cell produces. Detectable via
//!   [`HwSnapshot::validate`].
//! * **Truncated captures** — trailing registers fall off the image
//!   (a scan-out cut short). Detectable by comparing
//!   [`HwSnapshot::shape_hash`] against the target's own
//!   [`HwTarget::snapshot_shape`].
//! * **Partial readbacks** — the scan-out stops early but the driver
//!   still assembles a full-shaped image, padding the missing tail with
//!   zeros. Shape and width validation both pass; only the checksum
//!   trailer the scan controller computed over the full chain
//!   ([`HwTarget::capture_checksum`]) exposes the damage.
//! * **Restore-link timeouts** — a restore fails before any state is
//!   written; restores are idempotent, so retrying is always safe.
//! * **IRQ glitches** — a poll of the interrupt lines observes a
//!   spurious, dropped or stale (delayed) bitmask. The line settles
//!   immediately: at least the next two polls are honest, so a reader
//!   that insists on two consecutive agreeing samples always converges
//!   on the true value.
//! * **Clock drift** — each replica's reported virtual time runs a few
//!   ppm fast (board oscillators never quite agree); the design itself
//!   steps exactly the requested cycles, so drift is visible only in
//!   [`HwTarget::virtual_time_ns`].
//! * **Hangs** — the target wedges: every fallible operation fails with
//!   [`BusError::NotReady`] until [`HwTarget::reset`] is called.

use std::sync::atomic::{AtomicU64, Ordering};

use hardsnap_telemetry::{Counter, Recorder};
use hardsnap_util::rng::{splitmix64, Rng};

use crate::{BusError, HwSnapshot, HwTarget, TargetCaps, TargetError};

/// Modeled extra link latency charged (in virtual nanoseconds) for each
/// injected fault: the cost of the failed handshake itself, before any
/// supervisor backoff.
const FAULT_LINK_NS: u64 = 2_000;

/// Cycle budget reported in injected [`BusError::Timeout`]s, mirroring
/// the watchdog budget honest targets report.
const TIMEOUT_CYCLES: u64 = 256;

/// One class of injected fault, recorded in schedule order so tests can
/// assert two same-seed runs drew the identical schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// An AXI handshake timeout injected before the transaction.
    BusTimeout,
    /// A captured register image gained a bit above its width.
    ScanBitFlip,
    /// A captured image lost trailing registers/memories.
    TruncatedCapture,
    /// A capture kept its shape but the scan-out stopped early: the
    /// tail of the chain arrived as zeros.
    PartialReadback,
    /// A restore failed on the link before writing any state.
    RestoreTimeout,
    /// An IRQ-line poll observed a glitched bitmask.
    IrqGlitch,
    /// The target wedged until the next reset.
    Hang,
}

impl FaultKind {
    /// Telemetry instant-event name for an injection of this kind
    /// (static so the hot path allocates nothing).
    fn inject_event(self) -> &'static str {
        match self {
            FaultKind::BusTimeout => "inject:bus-timeout",
            FaultKind::ScanBitFlip => "inject:scan-bit-flip",
            FaultKind::TruncatedCapture => "inject:truncated-capture",
            FaultKind::PartialReadback => "inject:partial-readback",
            FaultKind::RestoreTimeout => "inject:restore-timeout",
            FaultKind::IrqGlitch => "inject:irq-glitch",
            FaultKind::Hang => "inject:hang",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::BusTimeout => "bus-timeout",
            FaultKind::ScanBitFlip => "scan-bit-flip",
            FaultKind::TruncatedCapture => "truncated-capture",
            FaultKind::PartialReadback => "partial-readback",
            FaultKind::RestoreTimeout => "restore-timeout",
            FaultKind::IrqGlitch => "irq-glitch",
            FaultKind::Hang => "hang",
        };
        f.write_str(s)
    }
}

/// A replayable fault schedule: per-class probabilities plus the PRNG
/// seed every draw derives from. Two targets configured with equal
/// plans inject the identical fault sequence for the identical
/// operation sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault PRNG; forked replicas derive their own seeds
    /// from this one (see [`FaultyTarget`]'s `fork_clean`).
    pub seed: u64,
    /// Probability an AXI read/write times out.
    pub bus_fault_rate: f64,
    /// Probability a capture suffers a scan-chain bit flip.
    pub scan_fault_rate: f64,
    /// Probability a capture comes back truncated.
    pub snapshot_fault_rate: f64,
    /// Probability a capture keeps its shape but the scan-out stops
    /// early, leaving the tail of the chain zeroed.
    pub readback_fault_rate: f64,
    /// Probability a restore times out on the link.
    pub restore_fault_rate: f64,
    /// Probability an IRQ-line poll observes a glitched bitmask
    /// (spurious, dropped or stale). Glitches never burst: the two
    /// polls after an injection are always honest.
    pub irq_fault_rate: f64,
    /// Oscillator-tolerance of the modeled board in parts per million.
    /// Each target (and each fork) derives its own effective drift in
    /// `[0, 2 * drift_ppm]` from its seed and reports virtual time
    /// faster by that factor; design state is never affected.
    pub drift_ppm: u32,
    /// Probability any fallible operation wedges the whole target
    /// (cleared only by reset). Checked before the per-class rates.
    pub hang_rate: f64,
    /// When a fault fires, up to `max_burst - 1` immediately following
    /// fallible operations also fail (correlated link glitches). `0`
    /// and `1` both mean single isolated faults.
    pub max_burst: u32,
}

impl FaultPlan {
    /// A plan that never injects anything (the honest transport).
    pub fn off() -> FaultPlan {
        FaultPlan {
            seed: 0,
            bus_fault_rate: 0.0,
            scan_fault_rate: 0.0,
            snapshot_fault_rate: 0.0,
            readback_fault_rate: 0.0,
            restore_fault_rate: 0.0,
            irq_fault_rate: 0.0,
            drift_ppm: 0,
            hang_rate: 0.0,
            max_burst: 0,
        }
    }

    /// A plan injecting every recoverable class at probability `rate`,
    /// with occasional hangs at `rate / 20` and short bursts — the
    /// configuration the chaos tests sweep.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            bus_fault_rate: rate,
            scan_fault_rate: rate,
            snapshot_fault_rate: rate,
            readback_fault_rate: rate,
            restore_fault_rate: rate,
            irq_fault_rate: rate,
            drift_ppm: (rate * 10_000.0) as u32,
            hang_rate: rate / 20.0,
            max_burst: 2,
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.bus_fault_rate > 0.0
            || self.scan_fault_rate > 0.0
            || self.snapshot_fault_rate > 0.0
            || self.readback_fault_rate > 0.0
            || self.restore_fault_rate > 0.0
            || self.irq_fault_rate > 0.0
            || self.drift_ppm > 0
            || self.hang_rate > 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::off()
    }
}

/// Counters of injected faults by class (what the injector *did*, as
/// opposed to what the supervisor recovered).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected bus handshake timeouts.
    pub bus_timeouts: u64,
    /// Injected scan-chain bit flips.
    pub scan_flips: u64,
    /// Injected truncated captures.
    pub truncations: u64,
    /// Injected zero-padded partial readbacks.
    pub partial_readbacks: u64,
    /// Injected restore-link timeouts.
    pub restore_timeouts: u64,
    /// Injected IRQ-line glitches.
    pub irq_glitches: u64,
    /// Injected hangs (each wedges the target until reset).
    pub hangs: u64,
}

impl FaultStats {
    /// Total injected faults across all classes.
    pub fn injected(&self) -> u64 {
        self.bus_timeouts
            + self.scan_flips
            + self.truncations
            + self.partial_readbacks
            + self.restore_timeouts
            + self.irq_glitches
            + self.hangs
    }

    /// Component-wise sum (for aggregating across replicas).
    pub fn merge(&mut self, other: &FaultStats) {
        self.bus_timeouts += other.bus_timeouts;
        self.scan_flips += other.scan_flips;
        self.truncations += other.truncations;
        self.partial_readbacks += other.partial_readbacks;
        self.restore_timeouts += other.restore_timeouts;
        self.irq_glitches += other.irq_glitches;
        self.hangs += other.hangs;
    }
}

/// Outcome of one fault draw.
enum Drawn {
    /// No fault; perform the operation honestly.
    Clean,
    /// Inject a fault of the operation's class.
    Fault,
    /// The target is (or just became) wedged.
    Hung,
}

/// An [`HwTarget`] decorator injecting a deterministic, seed-driven
/// fault schedule into every fallible operation of the wrapped target.
///
/// Faults never change the *semantics* visible after recovery: bus and
/// restore faults fire before the operation reaches the design, capture
/// corruption damages only the returned image (the design state is
/// untouched, so a re-capture yields the honest image), and a hang is
/// cleared by [`HwTarget::reset`]. That property is what allows the
/// supervision layer to recover transparently and is checked by the
/// fault-determinism test suites.
pub struct FaultyTarget<T: HwTarget> {
    inner: T,
    label: String,
    plan: FaultPlan,
    rng: Rng,
    hung: bool,
    pending_burst: u32,
    /// Honest IRQ polls still owed after a glitch (see `irq_lines`).
    irq_refractory: u32,
    /// Last honestly observed IRQ bitmask (what a delayed sample shows).
    last_irq: u32,
    /// Effective oscillator drift of *this* replica in ppm, drawn once
    /// from the seed in `[0, 2 * plan.drift_ppm]`.
    drift_ppm_eff: u64,
    extra_ns: u64,
    stats: FaultStats,
    schedule: Vec<FaultKind>,
    forks: AtomicU64,
    rec: Recorder,
}

impl<T: HwTarget> FaultyTarget<T> {
    /// Wraps `inner` with the fault schedule described by `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> FaultyTarget<T> {
        let label = format!("{}+faults", inner.name());
        let drift_ppm_eff = if plan.drift_ppm > 0 {
            let mut s = plan.seed ^ 0x9e37_79b9_7f4a_7c15;
            splitmix64(&mut s) % (2 * u64::from(plan.drift_ppm) + 1)
        } else {
            0
        };
        FaultyTarget {
            rng: Rng::seed_from_u64(plan.seed),
            inner,
            label,
            plan,
            hung: false,
            pending_burst: 0,
            irq_refractory: 0,
            last_irq: 0,
            drift_ppm_eff,
            extra_ns: 0,
            stats: FaultStats::default(),
            schedule: Vec::new(),
            forks: AtomicU64::new(0),
            rec: Recorder::disabled(),
        }
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injected-fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The injected faults in schedule order (for determinism tests).
    pub fn schedule(&self) -> &[FaultKind] {
        &self.schedule
    }

    /// Whether the target is currently wedged (cleared by reset).
    pub fn is_hung(&self) -> bool {
        self.hung
    }

    /// Unwraps the decorator, discarding the fault state.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Shared read access to the wrapped target.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Draws the three capture corruptions up front — scan bit flip,
    /// truncation, partial readback, in that order — so the schedule is
    /// a fixed function of the draw sequence whatever the capture
    /// returns. A wedged link refuses the capture.
    fn draw_capture_faults(&mut self) -> Result<(bool, bool, bool), TargetError> {
        let plan = self.plan;
        let mut hit = |rate| match self.draw(rate) {
            Drawn::Hung => Err(TargetError::Bus(BusError::NotReady)),
            Drawn::Fault => Ok(true),
            Drawn::Clean => Ok(false),
        };
        Ok((
            hit(plan.scan_fault_rate)?,
            hit(plan.snapshot_fault_rate)?,
            hit(plan.readback_fault_rate)?,
        ))
    }

    /// Draws the fate of the next fallible operation of a class with
    /// probability `rate`. Order matters and is fixed: wedged targets
    /// fail unconditionally, then burst continuations, then a fresh
    /// hang draw, then the per-class draw.
    fn draw(&mut self, rate: f64) -> Drawn {
        if self.hung {
            return Drawn::Hung;
        }
        if self.pending_burst > 0 {
            self.pending_burst -= 1;
            return Drawn::Fault;
        }
        if self.plan.hang_rate > 0.0 && self.rng.gen_bool(self.plan.hang_rate) {
            self.hung = true;
            self.stats.hangs += 1;
            self.schedule.push(FaultKind::Hang);
            self.rec.count(Counter::FaultsInjected);
            self.rec.instant("fault", FaultKind::Hang.inject_event(), 0);
            return Drawn::Hung;
        }
        if rate > 0.0 && self.rng.gen_bool(rate) {
            if self.plan.max_burst > 1 {
                self.pending_burst = self.rng.gen_range(0..self.plan.max_burst);
            }
            return Drawn::Fault;
        }
        Drawn::Clean
    }

    /// Records an injected fault: schedule entry, class counter (via
    /// `count`), and the modeled link latency of the failed handshake.
    fn record(&mut self, kind: FaultKind, count: impl FnOnce(&mut FaultStats)) {
        count(&mut self.stats);
        self.schedule.push(kind);
        self.extra_ns += FAULT_LINK_NS;
        self.rec.count(Counter::FaultsInjected);
        self.rec.instant("fault", kind.inject_event(), 0);
    }
}

/// Damages a captured image the way a dropped scan cell does: one
/// register with spare headroom gains a bit just above its width. Falls
/// back to truncation when every register is already 64 bits wide.
pub fn flip_scan_bit(snap: &mut HwSnapshot, rng: &mut Rng) {
    let candidates: Vec<(usize, u32)> = snap
        .named_regs()
        .enumerate()
        .filter(|(_, (_, width, _))| *width < 64)
        .map(|(i, (_, width, _))| (i, width))
        .collect();
    if let Some(&(i, width)) = rng.choose(&candidates) {
        snap.regs[i] |= 1 << width;
    } else {
        truncate_capture(snap, rng);
    }
}

/// Damages a captured image the way a scan-out that *stops early* does
/// when the driver still assembles a full-shaped image: every cell
/// after a random prefix point arrives as zeros. Unlike
/// [`truncate_capture`], shape and width validation both pass — only
/// the checksum trailer the scan controller computed over the full
/// chain ([`HwTarget::capture_checksum`]) can expose the damage.
pub fn zero_tail_readback(snap: &mut HwSnapshot, rng: &mut Rng) {
    let sections = snap.regs.len() + snap.mems.len();
    if sections == 0 {
        return;
    }
    let keep = rng.gen_range(0..sections);
    let nregs = snap.regs.len();
    for r in snap.regs.iter_mut().skip(keep) {
        *r = 0;
    }
    for m in snap.mems.iter_mut().skip(keep.saturating_sub(nregs)) {
        m.fill(0);
    }
}

/// Damages a captured image the way a scan-out cut short does: trailing
/// registers (or the last memory) disappear. An empty image gets its
/// design label damaged instead — still a shape mismatch.
pub fn truncate_capture(snap: &mut HwSnapshot, rng: &mut Rng) {
    if !snap.regs.is_empty() {
        let keep = rng.gen_range(0..snap.regs.len());
        snap.regs.truncate(keep);
    } else if !snap.mems.is_empty() {
        snap.mems.pop();
    } else {
        let design = format!("{}?", snap.design());
        snap.relabel(design);
    }
}

impl<T: HwTarget> HwTarget for FaultyTarget<T> {
    fn name(&self) -> &str {
        &self.label
    }

    fn caps(&self) -> TargetCaps {
        self.inner.caps()
    }

    fn design_name(&self) -> &str {
        self.inner.design_name()
    }

    fn reset(&mut self) {
        // A reset un-wedges the link and clears any burst in progress;
        // the PRNG keeps its position so the schedule stays a pure
        // function of (seed, operation sequence).
        self.hung = false;
        self.pending_burst = 0;
        self.irq_refractory = 0;
        self.last_irq = 0;
        self.inner.reset();
    }

    fn step(&mut self, cycles: u64) {
        self.inner.step(cycles);
    }

    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }

    fn bus_read(&mut self, addr: u32) -> Result<u32, BusError> {
        match self.draw(self.plan.bus_fault_rate) {
            Drawn::Hung => Err(BusError::NotReady),
            Drawn::Fault => {
                self.record(FaultKind::BusTimeout, |s| s.bus_timeouts += 1);
                Err(BusError::Timeout {
                    addr,
                    cycles: TIMEOUT_CYCLES,
                })
            }
            Drawn::Clean => self.inner.bus_read(addr),
        }
    }

    fn bus_write(&mut self, addr: u32, data: u32) -> Result<(), BusError> {
        match self.draw(self.plan.bus_fault_rate) {
            Drawn::Hung => Err(BusError::NotReady),
            Drawn::Fault => {
                self.record(FaultKind::BusTimeout, |s| s.bus_timeouts += 1);
                Err(BusError::Timeout {
                    addr,
                    cycles: TIMEOUT_CYCLES,
                })
            }
            Drawn::Clean => self.inner.bus_write(addr, data),
        }
    }

    fn irq_lines(&mut self) -> u32 {
        // IRQ polls stay honest while the link is wedged (the lines are
        // wired to the design, not to the scan/bus transport) and for
        // the two polls after a glitch — the refractory window is what
        // guarantees a two-consecutive-agreeing-samples reader always
        // converges on the honest bitmask.
        let honest = self.inner.irq_lines();
        if self.hung || self.plan.irq_fault_rate <= 0.0 {
            self.last_irq = honest;
            return honest;
        }
        if self.irq_refractory > 0 {
            self.irq_refractory -= 1;
            self.last_irq = honest;
            return honest;
        }
        if self.rng.gen_bool(self.plan.irq_fault_rate) {
            self.record(FaultKind::IrqGlitch, |s| s.irq_glitches += 1);
            self.irq_refractory = 2;
            let stale = self.last_irq;
            return match self.rng.gen_range(0..3u32) {
                0 => honest | (1 << self.rng.gen_range(0..8u32)), // spurious
                1 => 0,                                           // dropped
                _ => stale,                                       // delayed
            };
        }
        self.last_irq = honest;
        honest
    }

    fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError> {
        // Capture honestly and damage only the returned image: the
        // design state is untouched and a re-capture observes the
        // honest bits.
        let (flip, truncate, readback) = self.draw_capture_faults()?;
        let mut snap = self.inner.save_snapshot()?;
        if flip {
            self.record(FaultKind::ScanBitFlip, |s| s.scan_flips += 1);
            flip_scan_bit(&mut snap, &mut self.rng);
        }
        if truncate {
            self.record(FaultKind::TruncatedCapture, |s| s.truncations += 1);
            truncate_capture(&mut snap, &mut self.rng);
        }
        if readback {
            self.record(FaultKind::PartialReadback, |s| s.partial_readbacks += 1);
            zero_tail_readback(&mut snap, &mut self.rng);
        }
        Ok(snap)
    }

    fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError> {
        match self.draw(self.plan.restore_fault_rate) {
            Drawn::Hung => Err(TargetError::Bus(BusError::NotReady)),
            Drawn::Fault => {
                self.record(FaultKind::RestoreTimeout, |s| s.restore_timeouts += 1);
                Err(TargetError::Bus(BusError::Timeout {
                    addr: 0,
                    cycles: TIMEOUT_CYCLES,
                }))
            }
            Drawn::Clean => self.inner.restore_snapshot(snap),
        }
    }

    fn virtual_time_ns(&self) -> u64 {
        // A drifting oscillator reports time fast by a fixed per-replica
        // factor. Applied to the inner clock only (never to `step`), so
        // design state and the analysis digest are unaffected.
        let base = self.inner.virtual_time_ns();
        let drift = (u128::from(base) * u128::from(self.drift_ppm_eff) / 1_000_000) as u64;
        base + drift + self.extra_ns
    }

    fn fork_clean(&self) -> Result<Box<dyn HwTarget>, TargetError> {
        let inner = self.inner.fork_clean()?;
        // Derive a distinct but reproducible seed per fork: the n-th
        // fork of a given plan always gets the same stream.
        let n = self.forks.fetch_add(1, Ordering::Relaxed);
        let mut s = self.plan.seed ^ (n.wrapping_add(1).wrapping_mul(0xa076_1d64_78bd_642f));
        let plan = FaultPlan {
            seed: splitmix64(&mut s),
            ..self.plan
        };
        Ok(Box::new(FaultyTarget::new(inner, plan)))
    }

    fn snapshot_shape(&self) -> u64 {
        self.inner.snapshot_shape()
    }

    fn capture_checksum(&self) -> u64 {
        // The checksum trailer is computed by the target-side controller
        // over the full honest chain and arrives intact even when the
        // data payload does not — that asymmetry is exactly what makes
        // partial readbacks detectable.
        self.inner.capture_checksum()
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        let mut total = self.stats;
        if let Some(inner) = self.inner.fault_stats() {
            total.merge(&inner);
        }
        Some(total)
    }

    fn attach_recorder(&mut self, rec: &Recorder) {
        self.rec = rec.clone();
        self.inner.attach_recorder(rec);
    }

    fn set_delta_snapshots(&mut self, on: bool) {
        self.inner.set_delta_snapshots(on);
    }

    fn save_snapshot_delta(&mut self) -> Result<crate::SnapshotCapture, TargetError> {
        // As `save_snapshot`: corruption damages only the returned
        // capture, never the design state, so a re-capture observes
        // honest bits.
        let (flip, truncate, readback) = self.draw_capture_faults()?;
        let mut cap = self.inner.save_snapshot_delta()?;
        if flip {
            self.record(FaultKind::ScanBitFlip, |s| s.scan_flips += 1);
            flip_capture_bit(&mut cap, &mut self.rng);
        }
        if truncate {
            self.record(FaultKind::TruncatedCapture, |s| s.truncations += 1);
            truncate_any_capture(&mut cap, &mut self.rng);
        }
        // A partial readback only exists on the full-chain scan path; a
        // delta travels the differential protocol, whose cut-short
        // transfers are the `TruncatedCapture` class above. The draw is
        // still consumed so the schedule stays a pure function of the
        // operation sequence.
        if readback {
            if let crate::SnapshotCapture::Full(s) = &mut cap {
                self.record(FaultKind::PartialReadback, |st| st.partial_readbacks += 1);
                zero_tail_readback(std::sync::Arc::make_mut(s), &mut self.rng);
            }
        }
        Ok(cap)
    }
}

/// Scan-bit-flip damage on either capture representation. A delta gains
/// an out-of-width bit on one of its patched registers (or, when it
/// patches nothing, a fabricated out-of-range patch) — both are exactly
/// what `SnapshotDelta::validate_against` exists to catch.
fn flip_capture_bit(cap: &mut crate::SnapshotCapture, rng: &mut Rng) {
    match cap {
        crate::SnapshotCapture::Full(s) => flip_scan_bit(std::sync::Arc::make_mut(s), rng),
        crate::SnapshotCapture::Delta { base, delta } => {
            let candidates: Vec<(usize, u32)> = delta
                .regs
                .iter()
                .filter_map(|&(i, _)| {
                    let i = i as usize;
                    (i < base.regs.len()).then(|| base.reg_slot(i).1)
                })
                .enumerate()
                .filter(|(_, w)| *w < 64)
                .collect();
            if let Some(&(k, width)) = rng.choose(&candidates) {
                let (i, bits) = delta.regs[k];
                delta.regs[k] = (i, bits | 1 << width);
            } else {
                delta.regs.push((base.regs.len() as u32, 1));
            }
        }
    }
}

/// Truncation damage on either capture representation.
fn truncate_any_capture(cap: &mut crate::SnapshotCapture, rng: &mut Rng) {
    match cap {
        crate::SnapshotCapture::Full(s) => truncate_capture(std::sync::Arc::make_mut(s), rng),
        crate::SnapshotCapture::Delta { base, delta } => {
            // A cut-short delta transfer drops its tail — or, when there
            // is no tail to drop, claims a patch beyond the base.
            if !delta.regs.is_empty() || !delta.mem_words.is_empty() {
                let keep = rng.gen_range(0..delta.regs.len().max(1));
                delta.regs.truncate(keep);
                delta.mem_words.clear();
                // Dropping real changes alone would still validate;
                // mark the damage so supervision can see it.
                delta.regs.push((base.regs.len() as u32, 0));
            } else {
                delta.mem_words.push((base.mems.len() as u32, 0, 0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RegSlot, SnapshotLayout};
    use std::sync::Arc;

    fn honest_layout() -> Arc<SnapshotLayout> {
        let reg = |name: &str, width| RegSlot {
            name: name.into(),
            width,
        };
        Arc::new(SnapshotLayout::new(
            "honest",
            vec![reg("a", 8), reg("b", 16)],
            vec![],
        ))
    }

    /// Honest in-memory target: bus ops always succeed, snapshots carry
    /// two registers, and the shape hash is self-computed.
    struct Honest {
        reg: u64,
        cycle: u64,
        resets: u64,
        layout: Arc<SnapshotLayout>,
    }

    impl Honest {
        fn new() -> Honest {
            Honest {
                reg: 0,
                cycle: 0,
                resets: 0,
                layout: honest_layout(),
            }
        }
        fn image(&self) -> HwSnapshot {
            HwSnapshot::new(
                self.layout.clone(),
                self.cycle,
                vec![self.reg & 0xff, (self.reg >> 8) & 0xffff],
                vec![],
            )
        }
    }

    impl HwTarget for Honest {
        fn name(&self) -> &str {
            "honest"
        }
        fn caps(&self) -> TargetCaps {
            TargetCaps {
                kind: crate::TargetKind::Simulator,
                full_visibility: true,
                readback: false,
                clock_hz: 1_000_000,
            }
        }
        fn design_name(&self) -> &str {
            "honest"
        }
        fn reset(&mut self) {
            self.reg = 0;
            self.cycle = 0;
            self.resets += 1;
        }
        fn step(&mut self, cycles: u64) {
            self.cycle += cycles;
        }
        fn cycle(&self) -> u64 {
            self.cycle
        }
        fn bus_read(&mut self, addr: u32) -> Result<u32, BusError> {
            Ok(addr ^ self.reg as u32)
        }
        fn bus_write(&mut self, _addr: u32, data: u32) -> Result<(), BusError> {
            self.reg = data as u64;
            Ok(())
        }
        fn irq_lines(&mut self) -> u32 {
            0
        }
        fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError> {
            Ok(self.image())
        }
        fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError> {
            self.reg = snap.reg("a").unwrap_or(0) | (snap.reg("b").unwrap_or(0) << 8);
            Ok(())
        }
        fn virtual_time_ns(&self) -> u64 {
            self.cycle * 1000
        }
        fn fork_clean(&self) -> Result<Box<dyn HwTarget>, TargetError> {
            Ok(Box::new(Honest::new()))
        }
        fn snapshot_shape(&self) -> u64 {
            self.image().shape_hash()
        }
        fn capture_checksum(&self) -> u64 {
            // Capture damage never touches the design, so the live
            // image *is* what the controller checksummed.
            self.image().content_hash()
        }
    }

    fn drive(t: &mut dyn HwTarget, ops: u32) -> Vec<bool> {
        // A fixed op sequence; returns the per-op success pattern.
        let mut pattern = Vec::new();
        for i in 0..ops {
            match i % 4 {
                0 => pattern.push(t.bus_read(0x4000_0000 + i).is_ok()),
                1 => pattern.push(t.bus_write(0x4000_0000 + i, i).is_ok()),
                2 => pattern.push(t.save_snapshot().is_ok_and(|s| s.validate().is_ok())),
                _ => {
                    let s = HwSnapshot::new(honest_layout(), 0, vec![1, 2], vec![]);
                    pattern.push(t.restore_snapshot(&s).is_ok());
                }
            }
            if !pattern.last().copied().unwrap_or(true) {
                t.reset(); // clear hangs so the sequence continues
            }
        }
        pattern
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultyTarget::new(Honest::new(), FaultPlan::uniform(42, 0.2));
        let mut b = FaultyTarget::new(Honest::new(), FaultPlan::uniform(42, 0.2));
        let pa = drive(&mut a, 200);
        let pb = drive(&mut b, 200);
        assert_eq!(pa, pb);
        assert_eq!(a.schedule(), b.schedule());
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().injected() > 0, "a 20% plan must inject something");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultyTarget::new(Honest::new(), FaultPlan::uniform(1, 0.2));
        let mut b = FaultyTarget::new(Honest::new(), FaultPlan::uniform(2, 0.2));
        let pa = drive(&mut a, 300);
        let pb = drive(&mut b, 300);
        assert_ne!(pa, pb);
    }

    #[test]
    fn off_plan_is_transparent() {
        let mut t = FaultyTarget::new(Honest::new(), FaultPlan::off());
        let pattern = drive(&mut t, 100);
        assert!(pattern.iter().all(|&ok| ok));
        assert_eq!(t.stats().injected(), 0);
        assert!(t.schedule().is_empty());
        assert!(!FaultPlan::off().is_active());
        assert!(FaultPlan::uniform(0, 0.1).is_active());
    }

    #[test]
    fn hang_wedges_until_reset() {
        let plan = FaultPlan {
            hang_rate: 1.0,
            ..FaultPlan::off()
        };
        let mut t = FaultyTarget::new(Honest::new(), plan);
        assert_eq!(t.bus_read(0), Err(BusError::NotReady));
        assert!(t.is_hung());
        // Everything fallible fails while wedged.
        assert_eq!(t.bus_write(0, 1), Err(BusError::NotReady));
        assert!(t.save_snapshot().is_err());
        assert_eq!(t.stats().hangs, 1, "a wedged target draws no new hangs");
        t.reset();
        assert!(!t.is_hung());
        assert_eq!(t.inner().resets, 1);
        // Immediately wedges again (rate 1.0), proving reset cleared it.
        assert_eq!(t.bus_read(0), Err(BusError::NotReady));
        assert_eq!(t.stats().hangs, 2);
    }

    #[test]
    fn capture_corruption_is_detectable_and_recapturable() {
        let plan = FaultPlan {
            scan_fault_rate: 1.0,
            ..FaultPlan::off()
        };
        let mut t = FaultyTarget::new(Honest::new(), plan);
        let shape = t.snapshot_shape();
        let corrupt = t.save_snapshot().unwrap();
        assert!(
            corrupt.validate().is_err() || corrupt.shape_hash() != shape,
            "injected capture corruption must be detectable"
        );
        // The design itself is untouched: an honest capture of the same
        // state still exists underneath.
        assert_eq!(t.inner().image().shape_hash(), shape);
        assert!(t.inner().image().validate().is_ok());

        let plan = FaultPlan {
            snapshot_fault_rate: 1.0,
            ..FaultPlan::off()
        };
        let mut t = FaultyTarget::new(Honest::new(), plan);
        let truncated = t.save_snapshot().unwrap();
        assert_ne!(truncated.shape_hash(), shape, "truncation changes shape");
    }

    #[test]
    fn bus_faults_fire_before_the_design_sees_them() {
        let plan = FaultPlan {
            bus_fault_rate: 1.0,
            max_burst: 0,
            ..FaultPlan::off()
        };
        let mut t = FaultyTarget::new(Honest::new(), plan);
        assert!(matches!(t.bus_write(0, 77), Err(BusError::Timeout { .. })));
        // The write never reached the register.
        assert_eq!(t.inner().reg, 0);
    }

    #[test]
    fn faults_charge_virtual_link_time() {
        let plan = FaultPlan {
            bus_fault_rate: 1.0,
            max_burst: 0,
            ..FaultPlan::off()
        };
        let mut t = FaultyTarget::new(Honest::new(), plan);
        let before = t.virtual_time_ns();
        let _ = t.bus_read(0);
        assert!(t.virtual_time_ns() > before);
    }

    #[test]
    fn forks_get_distinct_deterministic_seeds() {
        let proto = FaultyTarget::new(Honest::new(), FaultPlan::uniform(7, 0.3));
        let mut f1 = proto.fork_clean().unwrap();
        let mut f2 = proto.fork_clean().unwrap();
        let p1 = drive(f1.as_mut(), 200);
        let p2 = drive(f2.as_mut(), 200);
        assert_ne!(p1, p2, "sibling forks draw uncorrelated schedules");

        // Re-forking from an identical prototype reproduces the exact
        // same per-fork streams.
        let proto2 = FaultyTarget::new(Honest::new(), FaultPlan::uniform(7, 0.3));
        let mut g1 = proto2.fork_clean().unwrap();
        let q1 = drive(g1.as_mut(), 200);
        assert_eq!(p1, q1);
        // Forks report their injected faults through the trait.
        assert!(f1.fault_stats().is_some());
    }

    #[test]
    fn irq_glitches_settle_and_a_voting_reader_converges() {
        let plan = FaultPlan {
            irq_fault_rate: 1.0,
            ..FaultPlan::off()
        };
        let mut t = FaultyTarget::new(Honest::new(), plan);
        // Even at rate 1.0 the refractory window forces the pattern
        // glitch, honest, honest, glitch, ... so a reader that demands
        // two consecutive agreeing samples always lands on the honest
        // bitmask (0 for this fixture) within four polls.
        for _ in 0..50 {
            let mut prev = t.irq_lines();
            let mut polls = 1;
            loop {
                let next = t.irq_lines();
                polls += 1;
                if next == prev {
                    break;
                }
                prev = next;
                assert!(polls <= 4, "voting reader failed to converge");
            }
            assert_eq!(prev, 0, "voting must land on the honest bitmask");
        }
        assert!(t.stats().irq_glitches > 0);

        // Same seed, same glitch schedule.
        let mut a = FaultyTarget::new(Honest::new(), plan);
        let mut b = FaultyTarget::new(Honest::new(), plan);
        let sa: Vec<u32> = (0..100).map(|_| a.irq_lines()).collect();
        let sb: Vec<u32> = (0..100).map(|_| b.irq_lines()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn partial_readback_keeps_shape_but_breaks_the_checksum() {
        let plan = FaultPlan {
            readback_fault_rate: 1.0,
            ..FaultPlan::off()
        };
        let mut t = FaultyTarget::new(Honest::new(), plan);
        // Make the tail of the chain nonzero so zeroing it is visible.
        t.bus_write(0, 0x00ab_cdef).unwrap();
        let shape = t.snapshot_shape();
        let snap = t.save_snapshot().unwrap();
        // The damaged image is structurally perfect...
        assert!(snap.validate().is_ok());
        assert_eq!(snap.shape_hash(), shape);
        // ...but disagrees with the checksum trailer the controller
        // computed over the full chain.
        assert_ne!(snap.content_hash(), t.capture_checksum());
        assert_eq!(t.stats().partial_readbacks, 1);
        // The design is untouched: an honest re-capture matches the
        // trailer again (recovery is a plain retry).
        assert_eq!(t.inner().image().content_hash(), t.capture_checksum());
    }

    #[test]
    fn clock_drift_skews_reported_time_only() {
        let plan = FaultPlan {
            seed: 11,
            drift_ppm: 10_000,
            ..FaultPlan::off()
        };
        let mut t = FaultyTarget::new(Honest::new(), plan);
        t.step(1_000_000);
        let honest_ns = 1_000_000u64 * 1000;
        let v = t.virtual_time_ns();
        assert!(v >= honest_ns, "drift only runs fast");
        assert!(v <= honest_ns + honest_ns / 50, "bounded by 2 * ppm");
        // The design itself stepped exactly the requested cycles.
        assert_eq!(t.cycle(), 1_000_000);
        // Same seed, same drift; sibling forks drift differently.
        let mut t2 = FaultyTarget::new(Honest::new(), plan);
        t2.step(1_000_000);
        assert_eq!(t2.virtual_time_ns(), v);
        let mut f1 = t.fork_clean().unwrap();
        let mut f2 = t.fork_clean().unwrap();
        f1.step(1_000_000);
        f2.step(1_000_000);
        assert_ne!(
            f1.virtual_time_ns(),
            f2.virtual_time_ns(),
            "replicas drift apart"
        );
    }

    #[test]
    fn stats_flow_through_the_trait() {
        let mut t = FaultyTarget::new(Honest::new(), FaultPlan::uniform(3, 0.5));
        let _ = drive(&mut t, 100);
        let via_trait = HwTarget::fault_stats(&t).unwrap();
        assert_eq!(via_trait, t.stats());
        let honest = Honest::new();
        assert!(honest.fault_stats().is_none());
    }
}
