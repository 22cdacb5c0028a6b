//! Warm-replica arming: restore a target to a designated on-disk baseline
//! so a later job starts from pre-restored state instead of a cold boot.
//!
//! The paper's enabling observation is that hardware snapshot restore is
//! cheap enough to be the unit of scheduling; the serve daemon exploits
//! that by keeping a pool of *armed* replicas — targets whose expensive
//! construction (Verilog parse, elaboration, bytecode compile) already
//! happened and whose state sits at a designated baseline snapshot. This
//! module is the arming primitive shared by the pool and by tests:
//!
//! * [`arm_baseline`] — admission-check the baseline's shape against the
//!   live target (the 40-byte META read, no payloads), then reset and
//!   [`HwTarget::restore_snapshot_lazy`] it into place. Because restore
//!   is lazy, re-arming a replica that is already near the baseline
//!   loads only the sections that actually diverged — O(changed), the
//!   PR 6 property, applied to pool refill.
//! * [`synthesize_baseline`] — capture the target's post-reset state
//!   into a full image file, for daemons started without an explicit
//!   `--baseline`.

use hardsnap_bus::persist::{write_full, PersistError, PersistMeta, SnapshotFile};
use hardsnap_bus::{HwTarget, LazyRestore, TargetError};
use std::fmt;
use std::path::Path;

/// Errors from arming or synthesizing a baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicaError {
    /// The target refused the snapshot (design mismatch, unsupported op,
    /// bus failure while driving the snapshot controller).
    Target(TargetError),
    /// The baseline image itself is unusable (bad shape, corrupt file).
    Persist(PersistError),
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::Target(e) => write!(f, "arming target failed: {e}"),
            ReplicaError::Persist(e) => write!(f, "baseline image unusable: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<TargetError> for ReplicaError {
    fn from(e: TargetError) -> Self {
        ReplicaError::Target(e)
    }
}

impl From<PersistError> for ReplicaError {
    fn from(e: PersistError) -> Self {
        ReplicaError::Persist(e)
    }
}

/// Arms `target` to the baseline in `file`: shape admission check first
/// (no payload I/O), then reset and lazy restore.
///
/// Returns the [`LazyRestore`] stats so callers can observe how much of
/// the image actually had to be loaded — a freshly forked replica is
/// already at power-on state, so re-arming it against a post-reset
/// baseline loads close to nothing.
///
/// # Errors
///
/// [`ReplicaError::Persist`] with [`PersistError::ShapeMismatch`] when
/// the baseline was captured from a different design shape than `target`
/// runs; any [`TargetError`] from the restore itself.
pub fn arm_baseline(
    target: &mut dyn HwTarget,
    file: &SnapshotFile,
) -> Result<LazyRestore, ReplicaError> {
    let meta = file.meta()?;
    meta.check_shape(target.snapshot_shape())?;
    target.reset();
    Ok(target.restore_snapshot_lazy(file)?)
}

/// Captures `target`'s post-reset state as a full TLV image at `path`.
///
/// This is the designated baseline a pool arms against when the operator
/// did not supply one: power-on state, which every cold-booted job also
/// starts from, so leasing an armed replica cannot change any job's
/// digest.
pub fn synthesize_baseline(
    target: &mut dyn HwTarget,
    path: &Path,
) -> Result<PersistMeta, ReplicaError> {
    target.reset();
    let snap = target.save_snapshot()?;
    let meta = PersistMeta {
        design: snap.design.clone(),
        cycle: snap.cycle,
        shape_hash: snap.shape_hash(),
        content_hash: snap.content_hash(),
        n_regs: snap.regs.len() as u32,
        n_mems: snap.mems.len() as u32,
        base_ref: String::new(),
    };
    let bytes = write_full(&snap);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| PersistError::io(parent, e))?;
    }
    std::fs::write(path, bytes).map_err(|e| PersistError::io(path, e))?;
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardsnap_sim::SimTarget;

    fn soc_target() -> Box<dyn HwTarget> {
        let soc = hardsnap_periph::soc().unwrap();
        Box::new(SimTarget::new(soc).unwrap())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hardsnap-replica-{}-{name}", std::process::id()))
    }

    #[test]
    fn synthesize_then_arm_is_nearly_free() {
        let mut proto = soc_target();
        let path = tmp("baseline.hsnap");
        let meta = synthesize_baseline(proto.as_mut(), &path).unwrap();
        assert_eq!(meta.shape_hash, proto.snapshot_shape());

        let file = SnapshotFile::open(&path).unwrap();
        let mut replica = proto.fork_clean().unwrap();
        let stats = arm_baseline(replica.as_mut(), &file).unwrap();
        // A power-on fork already matches a post-reset baseline: the lazy
        // restore should skip (nearly) every section.
        assert_eq!(stats.sections_loaded, 0, "restore must be O(changed)");
        assert!(stats.sections_total > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shape_mismatch_is_refused_before_restore() {
        let mut proto = soc_target();
        let path = tmp("mismatch.hsnap");
        // Baseline from a *different* design: a lone counter peripheral.
        let small = hardsnap_periph::timer().unwrap();
        let mut other = Box::new(SimTarget::new(small).unwrap());
        synthesize_baseline(other.as_mut(), &path).unwrap();

        let file = SnapshotFile::open(&path).unwrap();
        let err = arm_baseline(proto.as_mut(), &file).unwrap_err();
        assert!(
            matches!(
                err,
                ReplicaError::Persist(PersistError::ShapeMismatch { .. })
            ),
            "got {err}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
