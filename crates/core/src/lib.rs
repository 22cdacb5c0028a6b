//! # hardsnap
//!
//! The core of the HardSnap reproduction (DSN 2020, Corteggiani &
//! Francillon): hardware/software co-testing with **hardware
//! snapshotting**.
//!
//! This crate ties the substrates together:
//!
//! * a combined HW/SW state: each [`hardsnap_symex::SymState`] owns a
//!   private hardware snapshot in the [`SnapshotStore`];
//! * the analysis [`Engine`], the one implementation of the paper's
//!   Algorithm 1 — state selection, hardware context switching
//!   (`UpdateState` / `RestoreState`), atomic interrupt delivery, fork
//!   snapshots — at any worker count: [`Engine::new`] drives one target
//!   on the calling thread, [`Engine::with_workers`] adds power-on forks
//!   of it on scoped threads, and the digest is the same either way;
//! * the two baselines of Fig. 1 ([`ConsistencyMode::NaiveConsistent`]
//!   reboot-and-replay, [`ConsistencyMode::NaiveInconsistent`] shared
//!   hardware), which swap only the context-switch step (one worker);
//! * attempt/replay recovery from transport faults, with quarantine and
//!   failover of replicas ([`supervise`]);
//! * one way to make a replica: every extra worker, every rebuild of a
//!   quarantined one and every replica of a served job is a
//!   [`HwTarget::fork_clean`] — a power-on copy sharing the parent's
//!   compiled design, whatever state the parent is in;
//! * campaign checkpoints that resume in a fresh process ([`campaign`]);
//! * multi-target orchestration ([`Engine::switch_target`]) between the
//!   simulator and FPGA platforms;
//! * the synthetic firmware workloads of the evaluation ([`firmware`]).
//!
//! ## Quickstart
//!
//! ```
//! use hardsnap::{Engine, EngineConfig};
//! use hardsnap_sim::SimTarget;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Hardware: the 4-peripheral SoC on the simulator target.
//! let soc = hardsnap_periph::soc().unwrap();
//! let target = Box::new(SimTarget::new(soc)?);
//!
//! // Firmware: 2^3 paths, each talking to the timer.
//! let prog = hardsnap_isa::assemble(&hardsnap::firmware::branching_firmware(3)).unwrap();
//!
//! let mut engine = Engine::new(target, EngineConfig::default());
//! engine.load_firmware(&prog);
//! let result = engine.run();
//! assert_eq!(result.metrics.paths_completed, 8);
//! assert!(result.bugs.is_empty(), "consistent execution has no false alarms");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod engine;
pub mod firmware;
pub mod snapshots;
pub mod supervise;
mod worker;

pub use campaign::{
    load_campaign, resume_campaign, save_campaign, snapshot_campaign, CampaignError, Checkpoint,
};
pub use engine::{
    CancelToken, ConsistencyMode, Engine, EngineConfig, EngineMetrics, HwAssertion, IoOp,
    ParallelEngine, RunResult, Searcher, StopReason,
};
pub use snapshots::{PersistEntry, SnapId, SnapshotStore, StoreStats};
pub use supervise::{FaultSummary, RetryPolicy, Supervisor};

// Re-export the pieces users compose with.
pub use hardsnap_bus::{
    transfer_state, FaultPlan, FaultyTarget, HwSnapshot, HwTarget, TargetCaps, TargetKind,
};
pub use hardsnap_symex::{BugKind, BugReport, Concretization};
pub use hardsnap_telemetry::{MetricsSnapshot, Recorder, TelemetryConfig};
