//! The [`HwTarget`] trait: one interface over both hardware platforms.
//!
//! The paper's multi-target orchestration (§III-B) demands that the
//! virtual machine can drive, snapshot and restore *either* the
//! Verilator-style simulator *or* the FPGA through one mechanism, and
//! transfer state between them mid-analysis. `HwTarget` is that
//! mechanism.

use crate::persist::{ImageKind, PersistedImage, SnapshotFile};
use crate::{BusError, HwSnapshot, SnapshotCapture, TargetError};
use std::sync::Arc;

/// Outcome of a lazy (demand-paged) restore from a snapshot file: how
/// much of the file actually had to be loaded and applied. Targets that
/// implement the sectioned path report `sections_loaded <
/// sections_total` whenever part of the saved state already matches the
/// live design, which is what makes time-to-first-quantum on a resumed
/// campaign scale with *touched* state rather than design size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LazyRestore {
    /// Data sections (register files + memory regions) in the file.
    pub sections_total: usize,
    /// Sections whose payload was loaded and applied because their
    /// content differed from the live state.
    pub sections_loaded: usize,
    /// Payload bytes read for the loaded sections.
    pub bytes_loaded: u64,
}

/// Which physical platform a target models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TargetKind {
    /// Cycle-accurate software simulation (Verilator analogue): slow,
    /// full traces, snapshot by direct state copy.
    Simulator,
    /// FPGA emulation: near-silicon speed, no internal visibility,
    /// snapshot via the scan-chain controller IP (or readback).
    Fpga,
}

impl std::fmt::Display for TargetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetKind::Simulator => f.write_str("simulator"),
            TargetKind::Fpga => f.write_str("fpga"),
        }
    }
}

/// What a target can do; drives both orchestration decisions and the
/// evaluation's scan-vs-readback comparison (experiment E7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TargetCaps {
    /// Platform kind.
    pub kind: TargetKind,
    /// Full per-cycle signal visibility (tracing). True only for the
    /// simulator; this is the property the orchestrator trades speed for.
    pub full_visibility: bool,
    /// Supports the high-end-FPGA configuration-readback path.
    pub readback: bool,
    /// Modeled clock frequency in Hz (used for virtual time).
    pub clock_hz: u64,
}

/// A hardware platform running the design under test.
///
/// Both `hardsnap-sim::SimTarget` and `hardsnap-fpga::FpgaTarget`
/// implement this. All methods that model work advance **virtual time**
/// ([`HwTarget::virtual_time_ns`]), which is what the evaluation
/// harnesses report: it reflects the modeled platform (FPGA clock, USB3
/// link, scan shifting) rather than host wall-clock.
///
/// Targets are `Send` so the engine can hand each worker
/// thread a private replica (see [`HwTarget::fork_clean`]).
pub trait HwTarget: Send {
    /// Human-readable target name for reports.
    fn name(&self) -> &str;

    /// Capabilities and timing parameters.
    fn caps(&self) -> TargetCaps;

    /// The flattened design's name (snapshot compatibility key).
    fn design_name(&self) -> &str;

    /// Asserts reset for a full reset sequence and leaves the design in
    /// its power-on state.
    fn reset(&mut self);

    /// Runs the design for `cycles` clock cycles with no bus activity.
    fn step(&mut self, cycles: u64);

    /// Elapsed cycles since construction or the last [`HwTarget::reset`].
    fn cycle(&self) -> u64;

    /// Performs a 32-bit AXI4-Lite read.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] on slave error or handshake timeout.
    fn bus_read(&mut self, addr: u32) -> Result<u32, BusError>;

    /// Performs a 32-bit AXI4-Lite write.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] on slave error or handshake timeout.
    fn bus_write(&mut self, addr: u32, data: u32) -> Result<(), BusError>;

    /// Current interrupt-line bitmask (bit i = IRQ line i asserted).
    fn irq_lines(&mut self) -> u32;

    /// Suspends execution and captures the complete hardware state.
    ///
    /// # Errors
    ///
    /// Returns [`TargetError`] if the platform's snapshot mechanism
    /// fails.
    fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError>;

    /// Suspends execution and overwrites the complete hardware state.
    ///
    /// # Errors
    ///
    /// Returns [`TargetError::DesignMismatch`] for a snapshot of another
    /// design, or [`TargetError::CorruptSnapshot`] if names/shapes do not
    /// match the running design.
    fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError>;

    /// Virtual nanoseconds elapsed on this platform (cycles, link
    /// latencies, scan/readback operations — everything modeled).
    fn virtual_time_ns(&self) -> u64;

    /// Creates an independent replica of this target in its power-on
    /// state (the paper's replicated-device model: one physical board
    /// per analysis worker). Replicas share immutable design data where
    /// the platform allows it, but carry no runtime state of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`TargetError::Unsupported`] for platforms that cannot
    /// be replicated (the default).
    fn fork_clean(&self) -> Result<Box<dyn HwTarget>, TargetError> {
        Err(TargetError::Unsupported(format!(
            "fork_clean on target '{}'",
            self.name()
        )))
    }

    /// Shape fingerprint of the snapshots this target produces (see
    /// `hardsnap_bus::shape_hash_parts`), computed from the target's own
    /// design knowledge rather than from any captured image. A
    /// supervision layer compares a captured image's
    /// `HwSnapshot::shape_hash` against this value to detect truncated
    /// or misassembled captures before they are ever stored. `0` (the
    /// default) means the target cannot predict its shape and the check
    /// is skipped.
    fn snapshot_shape(&self) -> u64 {
        0
    }

    /// Content checksum ([`HwSnapshot::content_hash`]) that the
    /// target-side scan/readback controller computed over the *full*
    /// chain during the most recent capture — the checksum trailer of
    /// the readback stream, which arrives intact even when the data
    /// payload does not. A supervision layer compares the image it
    /// received against this value to detect partial readbacks: a
    /// prefix of the chain padded with zeros has the right shape and
    /// validates, but carries the wrong checksum. `0` (the default)
    /// means the target has no trailer and the check is skipped.
    fn capture_checksum(&self) -> u64 {
        0
    }

    /// Injected-fault counters when this target (or a target it wraps)
    /// is a fault injector like [`crate::FaultyTarget`]; `None` for an
    /// honest transport. Lets the engines report injected counts
    /// without downcasting trait objects.
    fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        None
    }

    /// Hands the target a telemetry recorder so it can emit
    /// capture/restore/scan spans and virtual-time histograms onto its
    /// worker's track. The default ignores it (a target is free to stay
    /// silent); decorators forward to the wrapped target. Telemetry is
    /// observe-only — implementations must not let it influence
    /// behavior or virtual time.
    fn attach_recorder(&mut self, _rec: &hardsnap_telemetry::Recorder) {}

    /// Switches activity-proportional (delta) snapshotting on or off.
    /// In delta mode the target tracks which registers and memory words
    /// it dirties, so [`HwTarget::save_snapshot_delta`] can emit a
    /// copy-on-write capture against its last full base instead of a
    /// complete image. The default ignores the request — such a target
    /// simply keeps answering with full captures, which is always
    /// correct (delta mode is purely a cost optimization).
    fn set_delta_snapshots(&mut self, _on: bool) {}

    /// Suspends execution and captures the hardware state as a
    /// [`SnapshotCapture`]: a delta against the target's current base
    /// when delta mode is on and a base exists, a full image otherwise.
    /// Materializing the capture must be bit-identical to what
    /// [`HwTarget::save_snapshot`] would have returned at the same
    /// point. The default simply wraps a full capture, so every target
    /// supports the delta-native driver path.
    ///
    /// # Errors
    ///
    /// As [`HwTarget::save_snapshot`].
    fn save_snapshot_delta(&mut self) -> Result<SnapshotCapture, TargetError> {
        self.save_snapshot()
            .map(|s| SnapshotCapture::Full(Arc::new(s)))
    }

    /// Restores hardware state from an open snapshot *file*, loading
    /// only the sections whose content differs from the live design
    /// where the platform supports it. The file must hold a **full**
    /// image (delta files are resolved against their base by the layer
    /// that owns the chain, e.g. the campaign loader). After the call
    /// the target's state is bit-identical to
    /// [`HwTarget::restore_snapshot`] of the materialized image — lazy
    /// loading is purely a cost optimization, reflected in virtual
    /// time and in the returned [`LazyRestore`] stats.
    ///
    /// The default implementation is the eager fallback: materialize
    /// the whole file and restore it, reporting every section as
    /// loaded. `SimTarget` and `FpgaTarget` override it with sectioned
    /// paths (per-section content-hash comparison; the FPGA charges a
    /// partial-chain shift per dirty scan segment).
    ///
    /// # Errors
    ///
    /// [`TargetError::Unsupported`] for a delta file,
    /// [`TargetError::CorruptSnapshot`] if the file fails validation,
    /// plus everything [`HwTarget::restore_snapshot`] can return.
    fn restore_snapshot_lazy(&mut self, file: &SnapshotFile) -> Result<LazyRestore, TargetError> {
        if file.kind() != ImageKind::Full {
            return Err(TargetError::Unsupported(
                "lazy restore needs a full snapshot file; resolve the delta chain first".into(),
            ));
        }
        let snap = match file
            .materialize()
            .map_err(|e| TargetError::CorruptSnapshot(e.to_string()))?
        {
            PersistedImage::Full(s) => s,
            PersistedImage::Delta { .. } => {
                return Err(TargetError::Unsupported(
                    "lazy restore needs a full snapshot file".into(),
                ))
            }
        };
        let data: Vec<&crate::persist::SectionEntry> = file
            .sections()
            .iter()
            .filter(|s| {
                matches!(
                    s.tag,
                    crate::persist::SectionTag::Regs | crate::persist::SectionTag::Mem
                )
            })
            .collect();
        let bytes: u64 = data.iter().map(|s| s.len).sum();
        self.restore_snapshot(&snap)?;
        Ok(LazyRestore {
            sections_total: data.len(),
            sections_loaded: data.len(),
            bytes_loaded: bytes,
        })
    }
}

// Boxed targets forward the whole contract, so decorators like
// `FaultyTarget` can wrap either a concrete target or the boxed trait
// object that `fork_clean` hands back.
impl<T: HwTarget + ?Sized> HwTarget for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn caps(&self) -> TargetCaps {
        (**self).caps()
    }
    fn design_name(&self) -> &str {
        (**self).design_name()
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn step(&mut self, cycles: u64) {
        (**self).step(cycles);
    }
    fn cycle(&self) -> u64 {
        (**self).cycle()
    }
    fn bus_read(&mut self, addr: u32) -> Result<u32, BusError> {
        (**self).bus_read(addr)
    }
    fn bus_write(&mut self, addr: u32, data: u32) -> Result<(), BusError> {
        (**self).bus_write(addr, data)
    }
    fn irq_lines(&mut self) -> u32 {
        (**self).irq_lines()
    }
    fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError> {
        (**self).save_snapshot()
    }
    fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError> {
        (**self).restore_snapshot(snap)
    }
    fn virtual_time_ns(&self) -> u64 {
        (**self).virtual_time_ns()
    }
    fn fork_clean(&self) -> Result<Box<dyn HwTarget>, TargetError> {
        (**self).fork_clean()
    }
    fn snapshot_shape(&self) -> u64 {
        (**self).snapshot_shape()
    }
    fn capture_checksum(&self) -> u64 {
        (**self).capture_checksum()
    }
    fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        (**self).fault_stats()
    }
    fn attach_recorder(&mut self, rec: &hardsnap_telemetry::Recorder) {
        (**self).attach_recorder(rec);
    }
    fn set_delta_snapshots(&mut self, on: bool) {
        (**self).set_delta_snapshots(on);
    }
    fn save_snapshot_delta(&mut self) -> Result<SnapshotCapture, TargetError> {
        (**self).save_snapshot_delta()
    }
    fn restore_snapshot_lazy(&mut self, file: &SnapshotFile) -> Result<LazyRestore, TargetError> {
        (**self).restore_snapshot_lazy(file)
    }
}

/// Transfers the live hardware state from one target to another
/// (the paper's "hardware state forwarding", §III-B): saves on `from`,
/// restores on `to`, and returns the transferred snapshot for
/// bookkeeping.
///
/// # Errors
///
/// Propagates snapshot errors from either side; the designs must match.
pub fn transfer_state(
    from: &mut dyn HwTarget,
    to: &mut dyn HwTarget,
) -> Result<HwSnapshot, TargetError> {
    let snap = from.save_snapshot()?;
    to.restore_snapshot(&snap)?;
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial in-memory target used to test the trait contract and
    /// `transfer_state` without pulling in the simulator crates.
    struct FakeTarget {
        name: String,
        reg: u64,
        cycle: u64,
        vtime: u64,
    }

    impl HwTarget for FakeTarget {
        fn name(&self) -> &str {
            &self.name
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
            "fake"
        }
        fn reset(&mut self) {
            self.reg = 0;
            self.cycle = 0;
        }
        fn step(&mut self, cycles: u64) {
            self.cycle += cycles;
            self.vtime += cycles * 1000;
            self.reg = self.reg.wrapping_add(cycles);
        }
        fn cycle(&self) -> u64 {
            self.cycle
        }
        fn bus_read(&mut self, _addr: u32) -> Result<u32, BusError> {
            Ok(self.reg as u32)
        }
        fn bus_write(&mut self, _addr: u32, data: u32) -> Result<(), BusError> {
            self.reg = data as u64;
            Ok(())
        }
        fn irq_lines(&mut self) -> u32 {
            0
        }
        fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError> {
            Ok(HwSnapshot {
                design: "fake".into(),
                cycle: self.cycle,
                regs: vec![crate::RegImage {
                    name: "reg".into(),
                    width: 64,
                    bits: self.reg,
                }],
                mems: vec![],
            })
        }
        fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError> {
            if snap.design != "fake" {
                return Err(TargetError::DesignMismatch {
                    expected: snap.design.clone(),
                    found: "fake".into(),
                });
            }
            self.reg = snap
                .reg("reg")
                .ok_or_else(|| TargetError::CorruptSnapshot("missing 'reg'".into()))?;
            Ok(())
        }
        fn virtual_time_ns(&self) -> u64 {
            self.vtime
        }
    }

    #[test]
    fn transfer_state_moves_state_across_targets() {
        let mut a = FakeTarget {
            name: "a".into(),
            reg: 0,
            cycle: 0,
            vtime: 0,
        };
        let mut b = FakeTarget {
            name: "b".into(),
            reg: 0,
            cycle: 0,
            vtime: 0,
        };
        a.step(42);
        let snap = transfer_state(&mut a, &mut b).unwrap();
        assert_eq!(snap.reg("reg"), Some(42));
        assert_eq!(b.bus_read(0).unwrap(), 42);
    }

    #[test]
    fn mismatched_design_is_rejected() {
        let mut b = FakeTarget {
            name: "b".into(),
            reg: 0,
            cycle: 0,
            vtime: 0,
        };
        let snap = HwSnapshot {
            design: "other".into(),
            ..Default::default()
        };
        assert!(matches!(
            b.restore_snapshot(&snap),
            Err(TargetError::DesignMismatch { .. })
        ));
    }

    #[test]
    fn default_lazy_restore_is_the_eager_fallback() {
        let mut t = FakeTarget {
            name: "t".into(),
            reg: 0,
            cycle: 0,
            vtime: 0,
        };
        t.step(7);
        let snap = t.save_snapshot().unwrap();
        let file = SnapshotFile::from_bytes(crate::persist::write_full(&snap)).unwrap();
        t.step(5);
        let stats = t.restore_snapshot_lazy(&file).unwrap();
        // The fallback loads everything: one Regs section, no mems.
        assert_eq!(stats.sections_total, 1);
        assert_eq!(stats.sections_loaded, 1);
        assert!(stats.bytes_loaded > 0);
        assert_eq!(t.bus_read(0).unwrap(), 7);
        // A delta file is rejected by the contract.
        let delta = crate::SnapshotDelta::between(&snap, &snap).unwrap();
        let dfile =
            SnapshotFile::from_bytes(crate::persist::write_delta(&snap, &delta, "base")).unwrap();
        assert!(matches!(
            t.restore_snapshot_lazy(&dfile),
            Err(TargetError::Unsupported(_))
        ));
    }

    #[test]
    fn trait_is_object_safe() {
        let mut t = FakeTarget {
            name: "t".into(),
            reg: 0,
            cycle: 0,
            vtime: 0,
        };
        let dt: &mut dyn HwTarget = &mut t;
        dt.step(1);
        assert_eq!(dt.cycle(), 1);
        assert_eq!(dt.caps().kind.to_string(), "simulator");
    }
}
