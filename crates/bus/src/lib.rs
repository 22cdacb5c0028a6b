//! # hardsnap-bus
//!
//! The hardware-abstraction layer of the HardSnap reproduction: AXI4-Lite
//! style bus transactions, the canonical hardware-snapshot format that
//! makes multi-target state transfer possible, the [`HwTarget`] trait
//! that both hardware targets (cycle-accurate simulator and FPGA
//! emulation) implement, and the firmware-visible memory map.
//!
//! In the paper, the symbolic virtual machine reaches peripherals through
//! Inception's memory-forwarding mechanism, over either a shared-memory
//! link to the Verilator-based simulator or a USB 3.0 debugger to the
//! FPGA. Here the same role is played by [`HwTarget`]: the symbolic
//! engine forwards MMIO loads/stores to whichever target is selected, and
//! the snapshot controller saves/restores through the same trait.

#![warn(missing_docs)]

pub mod archive;
pub mod fault;
pub mod map;
pub mod persist;
pub mod snapshot;
pub mod target;

pub use archive::{PackEntry, PackManifest, PACK_MAGIC, PACK_SCHEMA};
pub use fault::{FaultKind, FaultPlan, FaultStats, FaultyTarget};
pub use map::{MemoryMap, Region, RegionKind};
pub use persist::{
    is_flat_name, mem_words_hash, regs_values_hash, ImageKind, PersistError, PersistMeta,
    PersistedImage, SectionEntry, SectionTag, SnapshotFile,
};
pub use snapshot::{
    shape_hash_parts, HwSnapshot, MemImage, RegImage, SnapshotCapture, SnapshotDelta,
};
pub use target::{transfer_state, HwTarget, LazyRestore, TargetCaps, TargetKind};

use std::error::Error;
use std::fmt;

/// Errors returned by bus transactions against a hardware target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BusError {
    /// The slave answered with an error response (AXI `SLVERR`/`DECERR`),
    /// e.g. an unmapped peripheral address.
    SlaveError {
        /// The offending address.
        addr: u32,
    },
    /// The handshake did not complete within the watchdog cycle budget —
    /// the design is wedged or the interface is miswired.
    Timeout {
        /// The offending address.
        addr: u32,
        /// Cycles waited before giving up.
        cycles: u64,
    },
    /// The target cannot accept transactions in its current mode (e.g. a
    /// suspended target during a scan operation).
    NotReady,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::SlaveError { addr } => write!(f, "bus slave error at {addr:#010x}"),
            BusError::Timeout { addr, cycles } => {
                write!(
                    f,
                    "bus handshake timeout at {addr:#010x} after {cycles} cycles"
                )
            }
            BusError::NotReady => write!(f, "target not ready for bus transactions"),
        }
    }
}

impl Error for BusError {}

/// Errors returned by snapshot operations on a hardware target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetError {
    /// Snapshot belongs to a different design than the target runs.
    DesignMismatch {
        /// Design the snapshot was taken from.
        expected: String,
        /// Design the target runs.
        found: String,
    },
    /// The snapshot image is malformed.
    CorruptSnapshot(String),
    /// The operation is not supported by this target (e.g. readback on a
    /// target without the high-end readback feature).
    Unsupported(String),
    /// A bus-level failure while driving the snapshot-controller IP.
    Bus(BusError),
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::DesignMismatch { expected, found } => {
                write!(f, "snapshot for design '{expected}' applied to '{found}'")
            }
            TargetError::CorruptSnapshot(m) => write!(f, "corrupt snapshot: {m}"),
            TargetError::Unsupported(m) => write!(f, "unsupported target operation: {m}"),
            TargetError::Bus(e) => write!(f, "snapshot bus operation failed: {e}"),
        }
    }
}

impl Error for TargetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TargetError::Bus(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BusError> for TargetError {
    fn from(e: BusError) -> Self {
        TargetError::Bus(e)
    }
}

/// Standard AXI4-Lite slave port names used by every corpus peripheral
/// and by the SoC top; the bus drivers in the targets drive these nets.
pub mod axi_ports {
    /// Clock.
    pub const CLK: &str = "clk";
    /// Synchronous active-high reset.
    pub const RST: &str = "rst";
    /// Write-address valid.
    pub const AWVALID: &str = "s_axi_awvalid";
    /// Write address.
    pub const AWADDR: &str = "s_axi_awaddr";
    /// Write-address ready.
    pub const AWREADY: &str = "s_axi_awready";
    /// Write-data valid.
    pub const WVALID: &str = "s_axi_wvalid";
    /// Write data.
    pub const WDATA: &str = "s_axi_wdata";
    /// Write-data ready.
    pub const WREADY: &str = "s_axi_wready";
    /// Write-response valid.
    pub const BVALID: &str = "s_axi_bvalid";
    /// Write response (0 = OKAY, 2 = SLVERR).
    pub const BRESP: &str = "s_axi_bresp";
    /// Write-response ready.
    pub const BREADY: &str = "s_axi_bready";
    /// Read-address valid.
    pub const ARVALID: &str = "s_axi_arvalid";
    /// Read address.
    pub const ARADDR: &str = "s_axi_araddr";
    /// Read-address ready.
    pub const ARREADY: &str = "s_axi_arready";
    /// Read-data valid.
    pub const RVALID: &str = "s_axi_rvalid";
    /// Read data.
    pub const RDATA: &str = "s_axi_rdata";
    /// Read response (0 = OKAY, 2 = SLVERR).
    pub const RRESP: &str = "s_axi_rresp";
    /// Read-data ready.
    pub const RREADY: &str = "s_axi_rready";
    /// Interrupt lines out of the SoC top (bit per peripheral).
    pub const IRQ: &str = "irq";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BusError>();
        assert_send_sync::<TargetError>();
        let e = BusError::SlaveError { addr: 0x4000_0000 };
        assert!(e.to_string().contains("0x40000000"));
        let t: TargetError = e.into();
        assert!(t.to_string().contains("bus"));
    }
}
