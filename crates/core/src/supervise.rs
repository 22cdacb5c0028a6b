//! Retry/backoff supervision over fallible target operations.
//!
//! The engines drive their hardware targets through this layer instead
//! of calling [`HwTarget`] directly, so a transient transport fault
//! (injected by `hardsnap_bus::FaultyTarget`, or real on a physical
//! link) is absorbed before it can kill an analysis:
//!
//! * **Bus reads/writes** are retried under capped exponential backoff.
//!   Only *transient* failures ([`BusError::Timeout`],
//!   [`BusError::NotReady`]) are retried; a [`BusError::SlaveError`] is
//!   a deterministic property of the design (an unmapped address) and
//!   passes straight through to the symbolic executor, which reports it
//!   as a firmware bug exactly as on an honest transport.
//! * **Snapshot captures** are verified before acceptance: the image
//!   must pass [`HwSnapshot::validate`] (no bits outside any register's
//!   width — what a dropped scan cell produces) and, when the target
//!   can predict it, match [`HwTarget::snapshot_shape`] (catches
//!   truncated captures). A corrupt image triggers a re-capture —
//!   capture never disturbs design state, so the retry observes the
//!   same honest bits — and [`TargetError::CorruptSnapshot`] surfaces
//!   only after retries exhaust.
//! * **Snapshot restores** are idempotent (they overwrite the complete
//!   hardware state), so transient restore failures retry safely.
//!
//! Backoff charges **virtual time** ([`Supervisor::extra_vtime_ns`]),
//! never design cycles: a link retry leaves the device clock untouched,
//! which is one of the reasons recovery is invisible in the canonical
//! result digest.

use hardsnap_bus::{BusError, HwSnapshot, HwTarget, SnapshotCapture, TargetError};
use hardsnap_telemetry::{Counter, FaultClass, Metric, Recorder, SpanGuard};

/// Retry/backoff/quarantine policy knobs, carried in `EngineConfig`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per operation before the failure is terminal.
    pub max_attempts: u32,
    /// Backoff before retry `i` is `base * 2^(i-1)`, capped below.
    pub backoff_base_ns: u64,
    /// Upper bound on a single backoff interval.
    pub backoff_cap_ns: u64,
    /// Virtual-time deadline across one operation's retries: retrying
    /// stops once the backoff charged to the operation reaches this.
    pub op_deadline_ns: u64,
    /// Terminal quantum failures a worker's replica may absorb
    /// before it is quarantined and replaced.
    pub replica_fault_budget: u32,
    /// Times one work item may be re-attempted (across
    /// replica resets/replacements) before its state is dropped.
    pub max_item_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            backoff_base_ns: 10_000,
            backoff_cap_ns: 1_000_000,
            op_deadline_ns: 10_000_000,
            replica_fault_budget: 3,
            max_item_attempts: 32,
        }
    }
}

/// Recovery counters reported in `RunResult::faults`: what the
/// supervision layer observed and absorbed. `injected` counts what a
/// wrapped fault injector actually fired (0 on honest transports);
/// `retried`/`recovered` count supervised retries and operations that
/// eventually succeeded after at least one failure; `quarantined`
/// counts replicas the engine replaced. None of these feed
/// `RunResult::canonical_digest` — recovery must be semantically
/// invisible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Faults injected by the transport (from `HwTarget::fault_stats`).
    pub injected: u64,
    /// Individual operation retries performed.
    pub retried: u64,
    /// Operations that succeeded after at least one failed attempt.
    pub recovered: u64,
    /// Replicas quarantined and replaced by the engine.
    pub quarantined: u64,
}

impl FaultSummary {
    /// Component-wise sum (merging per-worker summaries).
    pub fn merge(&mut self, other: &FaultSummary) {
        self.injected += other.injected;
        self.retried += other.retried;
        self.recovered += other.recovered;
        self.quarantined += other.quarantined;
    }
}

/// Retrying wrapper around a target's fallible operations. One lives in
/// each engine worker; they accumulate the retry counters and the
/// backoff virtual time for the run report.
#[derive(Clone, Debug, Default)]
pub struct Supervisor {
    /// Active policy.
    pub policy: RetryPolicy,
    /// Retries performed so far.
    pub retried: u64,
    /// Operations recovered (succeeded after ≥ 1 failure) so far.
    pub recovered: u64,
    /// Virtual nanoseconds of backoff charged so far (added to the
    /// run's `hw_virtual_time_ns`, never to the design clock).
    pub extra_vtime_ns: u64,
    /// Telemetry sink: retry spans plus per-fault-class recovery
    /// histograms (attempts × charged vtime). Disabled by default;
    /// the owning engine installs its worker's recorder.
    pub recorder: Recorder,
}

/// What a supervised capture checks before accepting it, for full
/// images and delta-aware captures alike.
trait Capture {
    /// Structural validation ([`HwSnapshot::validate`] or, for a delta,
    /// O(delta) validation against its own base).
    fn check(&self) -> Result<(), String>;
    /// The design shape hash (a delta shares its base's).
    fn shape(&self) -> u64;
    /// The image when it travelled the full-chain scan path and so
    /// carries the controller's checksum trailer. A delta travels the
    /// differential protocol and is covered by [`Capture::check`].
    fn full_image(&self) -> Option<&HwSnapshot>;
}

impl Capture for HwSnapshot {
    fn check(&self) -> Result<(), String> {
        self.validate()
    }
    fn shape(&self) -> u64 {
        self.shape_hash()
    }
    fn full_image(&self) -> Option<&HwSnapshot> {
        Some(self)
    }
}

impl Capture for SnapshotCapture {
    fn check(&self) -> Result<(), String> {
        self.validate()
    }
    fn shape(&self) -> u64 {
        self.shape_hash()
    }
    fn full_image(&self) -> Option<&HwSnapshot> {
        match self {
            SnapshotCapture::Full(img) => Some(img),
            SnapshotCapture::Delta { .. } => None,
        }
    }
}

/// Whether a bus failure is transient (link-level, worth retrying) as
/// opposed to a deterministic property of the design.
fn transient_bus(e: &BusError) -> bool {
    matches!(e, BusError::Timeout { .. } | BusError::NotReady)
}

/// Telemetry class for a transient bus failure.
fn classify_bus(e: &BusError) -> FaultClass {
    match e {
        BusError::Timeout { .. } => FaultClass::BusTimeout,
        _ => FaultClass::NotReady,
    }
}

impl Supervisor {
    /// Creates a supervisor with the given policy and zeroed counters.
    pub fn new(policy: RetryPolicy) -> Supervisor {
        Supervisor {
            policy,
            ..Supervisor::default()
        }
    }

    /// Backoff interval before retry `attempt` (1-based), capped.
    fn backoff_ns(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        self.policy
            .backoff_base_ns
            .saturating_mul(1u64 << shift)
            .min(self.policy.backoff_cap_ns)
    }

    /// Generic retry loop: `op` runs up to `max_attempts` times as long
    /// as `retryable` says the failure is worth another try and the
    /// per-op backoff budget (`op_deadline_ns`) is not exhausted.
    ///
    /// `classify` buckets a *transient* failure for the per-fault-class
    /// recovery histograms; it is only consulted for retryable errors,
    /// and the class of an operation's recovery is the class of its
    /// first transient failure. The clean path records nothing.
    fn with_retries<T, E>(
        &mut self,
        mut op: impl FnMut() -> Result<T, E>,
        retryable: impl Fn(&E) -> bool,
        classify: impl Fn(&E) -> FaultClass,
    ) -> Result<T, E> {
        let mut attempt: u32 = 0;
        let mut charged: u64 = 0;
        let mut fault: Option<(FaultClass, SpanGuard)> = None;
        loop {
            match op() {
                Ok(v) => {
                    if attempt > 0 {
                        self.recovered += 1;
                        self.recorder.count(Counter::Recovered);
                        self.finish_recovery(fault.take(), attempt, charged);
                    }
                    return Ok(v);
                }
                Err(e) => {
                    attempt += 1;
                    let transient = retryable(&e);
                    if transient && fault.is_none() {
                        let class = classify(&e);
                        fault = Some((class, self.recorder.span("fault", class.span_name())));
                    }
                    if attempt >= self.policy.max_attempts
                        || charged >= self.policy.op_deadline_ns
                        || !transient
                    {
                        self.finish_recovery(fault.take(), attempt, charged);
                        return Err(e);
                    }
                    let pause = self.backoff_ns(attempt);
                    charged += pause;
                    self.extra_vtime_ns += pause;
                    self.retried += 1;
                    self.recorder.count(Counter::Retries);
                    self.recorder.observe(Metric::BackoffNs, pause);
                }
            }
        }
    }

    /// Closes out one operation's recovery episode: the retry span gets
    /// its attempt count, and the per-class histograms record attempts
    /// and the *virtual-time* latency the episode charged.
    fn finish_recovery(
        &self,
        fault: Option<(FaultClass, SpanGuard)>,
        attempts: u32,
        charged_ns: u64,
    ) {
        if let Some((class, mut span)) = fault {
            span.set_arg(u64::from(attempts));
            self.recorder
                .observe(class.retries_metric(), u64::from(attempts));
            self.recorder.observe(class.latency_metric(), charged_ns);
        }
    }

    /// Supervised AXI read.
    ///
    /// # Errors
    ///
    /// The last failure once retries exhaust, or immediately for a
    /// non-transient [`BusError::SlaveError`].
    pub fn bus_read(&mut self, target: &mut dyn HwTarget, addr: u32) -> Result<u32, BusError> {
        self.with_retries(|| target.bus_read(addr), transient_bus, classify_bus)
    }

    /// Supervised AXI write.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::bus_read`].
    pub fn bus_write(
        &mut self,
        target: &mut dyn HwTarget,
        addr: u32,
        data: u32,
    ) -> Result<(), BusError> {
        self.with_retries(|| target.bus_write(addr, data), transient_bus, classify_bus)
    }

    /// The supervised capture behind [`Supervisor::save_snapshot`] and
    /// [`Supervisor::save_capture`]: `take` captures, and the image is
    /// accepted only when it passes structural validation, matches the
    /// design's shape hash (when the target predicts one) and, if it
    /// travelled the full-chain scan path, the scan controller's
    /// checksum trailer; otherwise it is re-captured.
    fn capture<C: Capture>(
        &mut self,
        target: &mut dyn HwTarget,
        take: impl Fn(&mut dyn HwTarget) -> Result<C, TargetError>,
    ) -> Result<C, TargetError> {
        let shape = target.snapshot_shape();
        self.with_retries(
            || {
                let cap = take(&mut *target)?;
                cap.check().map_err(TargetError::CorruptSnapshot)?;
                if shape != 0 && cap.shape() != shape {
                    return Err(TargetError::CorruptSnapshot(
                        "captured image does not match the design's snapshot shape".into(),
                    ));
                }
                // A partial readback keeps the shape (the driver pads
                // the missing tail with zeros) — only the checksum
                // trailer the scan controller computed over the full
                // chain exposes it.
                if let Some(img) = cap.full_image() {
                    let trailer = target.capture_checksum();
                    if trailer != 0 && img.content_hash() != trailer {
                        return Err(TargetError::CorruptSnapshot(
                            "captured image does not match the scan controller's checksum \
                             trailer (partial readback)"
                                .into(),
                        ));
                    }
                }
                Ok(cap)
            },
            |e| match e {
                TargetError::CorruptSnapshot(_) => true,
                TargetError::Bus(b) => transient_bus(b),
                _ => false,
            },
            |e| match e {
                TargetError::CorruptSnapshot(_) => FaultClass::CorruptCapture,
                TargetError::Bus(b) => classify_bus(b),
                _ => FaultClass::CorruptCapture,
            },
        )
    }

    /// Supervised snapshot capture: the image is accepted only when it
    /// passes structural validation and (when the target predicts its
    /// shape) matches the design's shape hash; otherwise it is
    /// re-captured. Capture does not disturb design state, so the retry
    /// observes the same honest bits.
    ///
    /// # Errors
    ///
    /// [`TargetError::CorruptSnapshot`] (or the transport's own error)
    /// once retries exhaust.
    pub fn save_snapshot(&mut self, target: &mut dyn HwTarget) -> Result<HwSnapshot, TargetError> {
        self.capture(target, |t| t.save_snapshot())
    }

    /// Supervised delta-aware snapshot capture: the activity-
    /// proportional sibling of [`Supervisor::save_snapshot`]. A full
    /// capture is validated exactly as there; a delta capture is
    /// validated in O(delta) against its own base (index ranges, width
    /// fits) plus the base's shape hash — no materialization on the hot
    /// path. Corrupt images are re-captured.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::save_snapshot`].
    pub fn save_capture(
        &mut self,
        target: &mut dyn HwTarget,
    ) -> Result<SnapshotCapture, TargetError> {
        self.capture(target, |t| t.save_snapshot_delta())
    }

    /// Supervised snapshot restore. Restores overwrite the complete
    /// hardware state, so transient failures retry safely.
    ///
    /// # Errors
    ///
    /// The last failure once retries exhaust; non-transient failures
    /// (design mismatch, a genuinely corrupt stored image) immediately.
    pub fn restore_snapshot(
        &mut self,
        target: &mut dyn HwTarget,
        snap: &HwSnapshot,
    ) -> Result<(), TargetError> {
        self.with_retries(
            || target.restore_snapshot(snap),
            |e| match e {
                TargetError::Bus(b) => transient_bus(b),
                _ => false,
            },
            // Everything retried during a restore is a restore-path
            // fault, except an explicit "not ready" handshake which
            // keeps its own class across operations.
            |e| match e {
                TargetError::Bus(BusError::NotReady) => FaultClass::NotReady,
                _ => FaultClass::Restore,
            },
        )
    }

    /// Supervised IRQ-line poll: samples the lines until two
    /// consecutive samples agree, which converges on the honest bitmask
    /// through glitched reads (a glitched sample is always followed by
    /// at least two honest ones — see
    /// `hardsnap_bus::FaultPlan::irq_fault_rate`, and an honest line is
    /// stable within one poll). Extra samples count as retries and
    /// charge backoff virtual time. If the line somehow never settles
    /// within the retry budget the last sample wins: IRQ polls are
    /// level-triggered and re-observed every quantum, so a rare wrong
    /// sample delays delivery by one quantum rather than corrupting
    /// state.
    pub fn irq_lines(&mut self, target: &mut dyn HwTarget) -> u32 {
        let first = target.irq_lines();
        let mut prev = target.irq_lines();
        if first == prev {
            return prev;
        }
        let mut span = self
            .recorder
            .span("fault", FaultClass::IrqGlitch.span_name());
        let mut charged = 0u64;
        for attempt in 1..=self.policy.max_attempts {
            let next = target.irq_lines();
            let pause = self.backoff_ns(attempt);
            charged += pause;
            self.extra_vtime_ns += pause;
            self.retried += 1;
            self.recorder.count(Counter::Retries);
            self.recorder.observe(Metric::BackoffNs, pause);
            if next == prev {
                self.recovered += 1;
                self.recorder.count(Counter::Recovered);
                span.set_arg(u64::from(attempt));
                let class = FaultClass::IrqGlitch;
                self.recorder
                    .observe(class.retries_metric(), u64::from(attempt));
                self.recorder.observe(class.latency_metric(), charged);
                return next;
            }
            prev = next;
        }
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardsnap_bus::{FaultPlan, FaultyTarget, RegSlot, SnapshotLayout, TargetCaps, TargetKind};
    use std::sync::Arc;

    struct Flaky {
        fail_next: u32,
        reg: u64,
    }

    impl HwTarget for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }
        fn caps(&self) -> TargetCaps {
            TargetCaps {
                kind: TargetKind::Simulator,
                full_visibility: true,
                readback: false,
                clock_hz: 1_000_000,
            }
        }
        fn design_name(&self) -> &str {
            "flaky"
        }
        fn reset(&mut self) {
            self.reg = 0;
        }
        fn step(&mut self, _cycles: u64) {}
        fn cycle(&self) -> u64 {
            0
        }
        fn bus_read(&mut self, addr: u32) -> Result<u32, BusError> {
            if self.fail_next > 0 {
                self.fail_next -= 1;
                return Err(BusError::Timeout { addr, cycles: 1 });
            }
            Ok(0x55)
        }
        fn bus_write(&mut self, _addr: u32, data: u32) -> Result<(), BusError> {
            self.reg = data as u64;
            Ok(())
        }
        fn irq_lines(&mut self) -> u32 {
            0
        }
        fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError> {
            let layout = SnapshotLayout::new(
                "flaky",
                vec![RegSlot {
                    name: "r".into(),
                    width: 8,
                }],
                vec![],
            );
            Ok(HwSnapshot::new(
                Arc::new(layout),
                0,
                vec![self.reg & 0xff],
                vec![],
            ))
        }
        fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError> {
            self.reg = snap.reg("r").unwrap_or(0);
            Ok(())
        }
        fn virtual_time_ns(&self) -> u64 {
            0
        }
    }

    #[test]
    fn transient_bus_errors_are_retried_and_recovered() {
        let mut t = Flaky {
            fail_next: 3,
            reg: 0,
        };
        let mut sup = Supervisor::new(RetryPolicy::default());
        assert_eq!(sup.bus_read(&mut t, 0).unwrap(), 0x55);
        assert_eq!(sup.retried, 3);
        assert_eq!(sup.recovered, 1);
        assert!(sup.extra_vtime_ns > 0, "backoff charges virtual time");
    }

    #[test]
    fn retries_exhaust_into_the_last_error() {
        let mut t = Flaky {
            fail_next: 100,
            reg: 0,
        };
        let mut sup = Supervisor::new(RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        });
        assert!(matches!(
            sup.bus_read(&mut t, 7),
            Err(BusError::Timeout { addr: 7, .. })
        ));
        assert_eq!(sup.retried, 3, "max_attempts=4 means 3 retries");
        assert_eq!(sup.recovered, 0);
    }

    #[test]
    fn slave_errors_pass_straight_through() {
        struct Unmapped;
        impl HwTarget for Unmapped {
            fn name(&self) -> &str {
                "u"
            }
            fn caps(&self) -> TargetCaps {
                TargetCaps {
                    kind: TargetKind::Simulator,
                    full_visibility: true,
                    readback: false,
                    clock_hz: 1,
                }
            }
            fn design_name(&self) -> &str {
                "u"
            }
            fn reset(&mut self) {}
            fn step(&mut self, _c: u64) {}
            fn cycle(&self) -> u64 {
                0
            }
            fn bus_read(&mut self, addr: u32) -> Result<u32, BusError> {
                Err(BusError::SlaveError { addr })
            }
            fn bus_write(&mut self, addr: u32, _d: u32) -> Result<(), BusError> {
                Err(BusError::SlaveError { addr })
            }
            fn irq_lines(&mut self) -> u32 {
                0
            }
            fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError> {
                Ok(HwSnapshot::default())
            }
            fn restore_snapshot(&mut self, _s: &HwSnapshot) -> Result<(), TargetError> {
                Ok(())
            }
            fn virtual_time_ns(&self) -> u64 {
                0
            }
        }
        let mut t = Unmapped;
        let mut sup = Supervisor::new(RetryPolicy::default());
        assert!(sup.bus_read(&mut t, 1).is_err());
        assert_eq!(sup.retried, 0, "deterministic design errors never retry");
    }

    #[test]
    fn corrupt_captures_are_recaptured() {
        // A fault plan that flips a scan bit on (only) the first
        // capture: the supervisor must detect it via validate()/shape
        // and come back with the honest image.
        let plan = FaultPlan {
            seed: 3,
            scan_fault_rate: 0.6,
            ..FaultPlan::off()
        };
        let inner = Flaky {
            fail_next: 0,
            reg: 0x2a,
        };
        let mut t = FaultyTarget::new(inner, plan);
        let mut sup = Supervisor::new(RetryPolicy::default());
        for _ in 0..20 {
            let snap = sup.save_snapshot(&mut t).expect("capture recovers");
            assert!(snap.validate().is_ok());
            assert_eq!(snap.reg("r"), Some(0x2a));
        }
        assert!(
            t.stats().scan_flips > 0,
            "the 60% plan must have injected at least one flip in 20 captures"
        );
        assert!(sup.recovered > 0);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let sup = Supervisor::new(RetryPolicy {
            backoff_base_ns: 100,
            backoff_cap_ns: 1_000,
            ..RetryPolicy::default()
        });
        assert_eq!(sup.backoff_ns(1), 100);
        assert_eq!(sup.backoff_ns(2), 200);
        assert_eq!(sup.backoff_ns(3), 400);
        assert_eq!(sup.backoff_ns(5), 1_000, "capped");
        assert_eq!(sup.backoff_ns(60), 1_000, "still capped far out");
    }

    #[test]
    fn deadline_bounds_total_backoff() {
        let mut t = Flaky {
            fail_next: 1_000,
            reg: 0,
        };
        let mut sup = Supervisor::new(RetryPolicy {
            max_attempts: 1_000,
            backoff_base_ns: 1_000,
            backoff_cap_ns: 1_000,
            op_deadline_ns: 3_000,
            ..RetryPolicy::default()
        });
        assert!(sup.bus_read(&mut t, 0).is_err());
        assert!(
            sup.extra_vtime_ns <= 3_000,
            "deadline stops retrying: charged {}",
            sup.extra_vtime_ns
        );
    }

    #[test]
    fn summary_merges_componentwise() {
        let mut a = FaultSummary {
            injected: 1,
            retried: 2,
            recovered: 3,
            quarantined: 4,
        };
        a.merge(&FaultSummary {
            injected: 10,
            retried: 20,
            recovered: 30,
            quarantined: 40,
        });
        assert_eq!(
            a,
            FaultSummary {
                injected: 11,
                retried: 22,
                recovered: 33,
                quarantined: 44,
            }
        );
    }
}
