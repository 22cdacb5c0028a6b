//! Campaign checkpointing: persist an analysis mid-flight and resume it
//! in a fresh process.
//!
//! A checkpoint is one file, [`MANIFEST`], of the section codec in
//! [`hardsnap_bus::persist`] (kind [`ImageKind::Campaign`]). Its
//! sections record everything the engine cannot rederive:
//!
//! | Section | Holds |
//! |---|---|
//! | `META` | design and shape hash of the snapshots, checked against the target on resume |
//! | `COUNTERS` | consumed budgets: instructions, completed paths, virtual time, quanta |
//! | `COVERED` | the covered-PC set |
//! | `BUGS` | bug reports with their testcases |
//! | `COMPLETED` | completed paths, portable |
//! | `FRONTIER` | each schedulable state, portable, with the index of the image holding its hardware snapshot |
//! | `IMAGE[k]` | one full or delta snapshot image, nested whole |
//!
//! A delta image names its base by the base's image index, so the shared
//! base is stored once and a fork-heavy frontier costs O(changed) on disk
//! exactly as it does in RAM. One [`write_atomic`] commits the file: a
//! crash during a save leaves the previous checkpoint or the new one,
//! whole, so a loader never pairs the states of one save with the
//! snapshots of another. A checkpoint is also the unit of transport:
//! copying that one file moves the campaign.
//!
//! Save → resume is digest-transparent: seeding a fresh engine with a
//! checkpoint ([`resume_campaign`]) and running to completion yields
//! the same [`RunResult::canonical_digest`] as one uninterrupted run, at
//! any worker count on either side, because the split is just another
//! schedule and the digest only folds schedule-invariant facts.

use crate::engine::{kind_rank, Engine, RunResult};
use crate::snapshots::{Base, PersistEntry, SnapId, SnapshotStore};
use hardsnap_bus::persist::{
    put_bytes, put_str, write_atomic, write_delta, write_full, Cursor, ImageKind, PersistMeta,
    PersistedImage, SectionTag, SectionWriter, SnapshotFile,
};
use hardsnap_bus::{HwSnapshot, PersistError, TargetError};
use hardsnap_symex::{BugKind, BugReport, Model, PortableState, StateId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Checkpoint file name inside a campaign directory.
pub const MANIFEST: &str = "campaign.hscamp";

/// Frontier image reference of a state without a snapshot (a power-on
/// root).
const NO_IMAGE: u32 = u32::MAX;

/// Errors from saving or loading a campaign checkpoint.
#[derive(Debug)]
pub enum CampaignError {
    /// The checkpoint decodes but does not hold together: an unknown bug
    /// kind, a state that does not decode or holds an ill-typed term, a
    /// dangling image index, a delta whose base is a delta or has the
    /// wrong identity, a frontier id the store lost.
    Corrupt(String),
    /// The checkpoint file could not be written, read or decoded: I/O,
    /// bad magic, checksum mismatch, truncation, malformed sections, or
    /// a design-shape mismatch with the resuming target.
    Persist(PersistError),
    /// An engine-side failure while draining or restoring state.
    Target(TargetError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Corrupt(m) => write!(f, "corrupt campaign checkpoint: {m}"),
            CampaignError::Persist(e) => write!(f, "campaign checkpoint: {e}"),
            CampaignError::Target(e) => write!(f, "campaign target operation: {e}"),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Persist(e) => Some(e),
            CampaignError::Target(e) => Some(e),
            CampaignError::Corrupt(_) => None,
        }
    }
}

impl From<PersistError> for CampaignError {
    fn from(e: PersistError) -> Self {
        CampaignError::Persist(e)
    }
}

impl From<TargetError> for CampaignError {
    fn from(e: TargetError) -> Self {
        CampaignError::Target(e)
    }
}

/// Everything a checkpoint persists. Produced by [`checkpoint`] and by
/// [`load_campaign`]; the frontier's snapshot ids refer to whichever
/// store the checkpoint was drained from (on save) or loaded into (on
/// load).
pub struct Checkpoint {
    /// Instructions executed by the saved run (its digest counter).
    pub instructions: u64,
    /// Paths completed by the saved run.
    pub paths_completed: u64,
    /// Hardware virtual time consumed by the saved run (ns), carried
    /// forward so a resumed run keeps honouring the original
    /// `max_vtime_ns` budget.
    pub vtime_ns: u64,
    /// Scheduling quanta consumed by the saved run (`max_quanta`
    /// budget).
    pub quanta: u64,
    /// Covered PCs, sorted ascending.
    pub covered: Vec<u32>,
    /// Bug reports, in the saved run's merge order.
    pub bugs: Vec<BugReport>,
    /// Completed paths, portable.
    pub completed: Vec<PortableState>,
    /// Still-schedulable states with their private snapshot ids
    /// (`None` = power-on root).
    pub frontier: Vec<(PortableState, Option<SnapId>)>,
}

// ---------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------

fn kind_from_rank(rank: u8) -> Option<BugKind> {
    Some(match rank {
        0 => BugKind::AssertFailed,
        1 => BugKind::FailHit,
        2 => BugKind::Unmapped,
        3 => BugKind::Unaligned,
        4 => BugKind::IllegalInstruction,
        5 => BugKind::Bus,
        6 => BugKind::MmioByteAccess,
        _ => return None,
    })
}

/// A section payload: a `u32` count, then each item.
fn list<T>(items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) -> Vec<u8> {
    let mut out = (items.len() as u32).to_le_bytes().to_vec();
    for item in items {
        put(&mut out, item);
    }
    out
}

fn put_bug(out: &mut Vec<u8>, b: &BugReport) {
    out.push(kind_rank(b.kind));
    out.extend_from_slice(&b.pc.to_le_bytes());
    out.extend_from_slice(&b.state_id.0.to_le_bytes());
    put_str(out, &b.description);
    match &b.testcase {
        None => out.push(0),
        Some(model) => {
            out.push(1);
            let mut vars: Vec<(&str, u64)> = model.iter().collect();
            vars.sort_by(|a, b| a.0.cmp(b.0));
            out.extend_from_slice(&(vars.len() as u32).to_le_bytes());
            for (name, value) in vars {
                put_str(out, name);
                out.extend_from_slice(&value.to_le_bytes());
            }
        }
    }
}

/// The `IMAGE` sections of a checkpoint being saved, numbered in
/// first-use order: a delta's base is always written before the delta,
/// so image 0 is always a full image.
struct ImageWriter<'a> {
    store: &'a SnapshotStore,
    /// Image of each snapshot id written so far.
    index: HashMap<SnapId, u32>,
    /// Image of each delta base written so far, by the base's address;
    /// the `Arc` beside it keeps that address from being reused.
    bases: HashMap<*const HwSnapshot, (u32, Arc<HwSnapshot>)>,
    images: Vec<Vec<u8>>,
    /// The checkpoint's META: the design of image 0.
    meta: PersistMeta,
}

impl ImageWriter<'_> {
    fn push(&mut self, image: Vec<u8>) -> u32 {
        self.images.push(image);
        self.images.len() as u32 - 1
    }

    fn push_full(&mut self, snap: &HwSnapshot) -> u32 {
        if self.images.is_empty() {
            self.meta = PersistMeta {
                design: snap.design().to_string(),
                shape_hash: snap.shape_hash(),
                n_regs: snap.regs.len() as u32,
                n_mems: snap.mems.len() as u32,
                ..PersistMeta::default()
            };
        }
        self.push(write_full(snap))
    }

    /// The image index of snapshot `sid`, writing it (and its base) on
    /// first use. The store's representation is kept: a delta entry is
    /// written as a delta against its base's image.
    fn image(&mut self, sid: SnapId) -> Result<u32, CampaignError> {
        if let Some(&k) = self.index.get(&sid) {
            return Ok(k);
        }
        let entry = self
            .store
            .export_entry(sid)
            .map_err(|e| CampaignError::Corrupt(format!("snapshot {sid}: {e}")))?;
        let k = match entry {
            PersistEntry::Full(snap) => self.push_full(&snap),
            PersistEntry::Delta { base, delta } => {
                let b = match self.bases.get(&Arc::as_ptr(&base)) {
                    Some(&(b, _)) => b,
                    None => {
                        let b = self.push_full(&base);
                        self.bases.insert(Arc::as_ptr(&base), (b, base.clone()));
                        b
                    }
                };
                self.push(write_delta(&base, &delta, &b.to_string()))
            }
        };
        self.index.insert(sid, k);
        Ok(k)
    }
}

fn encode(store: &SnapshotStore, cp: &Checkpoint) -> Result<Vec<u8>, CampaignError> {
    let mut images = ImageWriter {
        store,
        index: HashMap::new(),
        bases: HashMap::new(),
        images: Vec::new(),
        meta: PersistMeta::default(),
    };
    let mut frontier = (cp.frontier.len() as u32).to_le_bytes().to_vec();
    for (state, snap) in &cp.frontier {
        put_bytes(&mut frontier, &state.to_bytes());
        let k = match snap {
            Some(sid) => images.image(*sid)?,
            None => NO_IMAGE,
        };
        frontier.extend_from_slice(&k.to_le_bytes());
    }
    let counters = [cp.instructions, cp.paths_completed, cp.vtime_ns, cp.quanta]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let mut w = SectionWriter::new(ImageKind::Campaign, &images.meta);
    w.push(SectionTag::Counters, 0, 0, counters);
    w.push(
        SectionTag::Covered,
        0,
        0,
        list(&cp.covered, |out, pc| {
            out.extend_from_slice(&pc.to_le_bytes())
        }),
    );
    w.push(SectionTag::Bugs, 0, 0, list(&cp.bugs, put_bug));
    w.push(
        SectionTag::Completed,
        0,
        0,
        list(&cp.completed, |out, s| put_bytes(out, &s.to_bytes())),
    );
    w.push(SectionTag::Frontier, 0, 0, frontier);
    for (k, image) in images.images.into_iter().enumerate() {
        w.push(SectionTag::Image, k as u32, 0, image);
    }
    Ok(w.finish())
}

/// Writes `cp` (frontier snapshot ids referring to `store`) into `dir`
/// as one [`MANIFEST`] file, creating `dir` if needed. Snapshots stored
/// as deltas are persisted as deltas against one shared base image, so
/// the checkpoint stays O(changed).
///
/// # Errors
///
/// I/O failures and store lookup failures (a frontier id that no longer
/// resolves).
pub fn save_campaign(
    dir: &Path,
    store: &SnapshotStore,
    cp: &Checkpoint,
) -> Result<(), CampaignError> {
    std::fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, e))?;
    write_atomic(&dir.join(MANIFEST), &encode(store, cp)?)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------

fn get_bug(c: &mut Cursor<'_>) -> Result<BugReport, CampaignError> {
    let rank = c.get_u8()?;
    let kind = kind_from_rank(rank)
        .ok_or_else(|| CampaignError::Corrupt(format!("unknown bug kind rank {rank}")))?;
    let pc = c.get_u32()?;
    let state_id = StateId(c.get_u64()?);
    let description = c.get_str()?;
    let testcase = match c.get_u8()? {
        0 => None,
        1 => {
            let n = c.count(12)?;
            let mut values: HashMap<String, u64> = HashMap::with_capacity(n);
            for _ in 0..n {
                let name = c.get_str()?;
                values.insert(name, c.get_u64()?);
            }
            Some(Model::from(values))
        }
        other => {
            return Err(CampaignError::Corrupt(format!(
                "bad testcase presence flag {other}"
            )))
        }
    };
    Ok(BugReport {
        kind,
        pc,
        state_id,
        testcase,
        description,
    })
}

fn get_state(c: &mut Cursor<'_>, what: &str) -> Result<PortableState, CampaignError> {
    PortableState::from_bytes(c.get_bytes()?)
        .map_err(|e| CampaignError::Corrupt(format!("{what} state: {e}")))
}

/// Puts a checkpoint's images into a store as its frontier references
/// them: a full image becomes a fresh entry per reference, a delta base
/// one shared [`Base`], and a delta a native delta entry against it.
struct ImageLoader<'a> {
    file: &'a SnapshotFile,
    store: &'a SnapshotStore,
    shape_hash: u64,
    /// Base images already registered with the store, with their
    /// content hashes.
    bases: HashMap<u32, (Arc<Base>, u64)>,
}

impl ImageLoader<'_> {
    /// Image `k`, decoded; its META (a full image's shape, a delta's
    /// pinned base shape) must match the checkpoint's.
    fn read(&self, k: u32) -> Result<PersistedImage, CampaignError> {
        let payload = self
            .file
            .section_payload(self.file.find(SectionTag::Image, k)?)?;
        let image = SnapshotFile::from_bytes_verified(payload.to_vec())?;
        if image.meta()?.shape_hash != self.shape_hash {
            return Err(CampaignError::Corrupt(format!(
                "image {k} is of another design than META"
            )));
        }
        Ok(image.materialize()?)
    }

    fn base(&mut self, k: u32) -> Result<&(Arc<Base>, u64), CampaignError> {
        if !self.bases.contains_key(&k) {
            let PersistedImage::Full(snap) = self.read(k)? else {
                return Err(CampaignError::Corrupt(format!(
                    "base image {k} is itself a delta"
                )));
            };
            let content = snap.content_hash();
            let base = Base::new(self.store, Arc::new(snap));
            self.bases.insert(k, (base, content));
        }
        Ok(&self.bases[&k])
    }

    fn load(&mut self, k: u32) -> Result<SnapId, CampaignError> {
        let store = self.store;
        match self.read(k)? {
            PersistedImage::Full(snap) => Ok(store.insert(snap)),
            PersistedImage::Delta {
                base_ref,
                base_content_hash,
                delta,
                ..
            } => {
                let b = base_ref
                    .parse::<u32>()
                    .ok()
                    .filter(|&b| b != k)
                    .ok_or_else(|| {
                        CampaignError::Corrupt(format!(
                            "image {k}: base '{}' is not another image",
                            base_ref.escape_default()
                        ))
                    })?;
                let &(ref base, content) = self.base(b)?;
                if base_content_hash != content {
                    return Err(CampaignError::Corrupt(format!(
                        "image {k} pins base content {base_content_hash:#018x}, \
                         image {b} has {content:#018x}"
                    )));
                }
                delta
                    .validate_against(base.snap())
                    .map_err(|e| CampaignError::Corrupt(format!("image {k}: {e}")))?;
                Ok(store.insert_delta(base.clone(), delta))
            }
        }
    }
}

/// Reads the checkpoint in `dir`, verifying the whole-file checksum
/// before anything is decoded.
fn open(dir: &Path) -> Result<SnapshotFile, CampaignError> {
    let path = dir.join(MANIFEST);
    let data = std::fs::read(&path).map_err(|e| PersistError::io(&path, e))?;
    parse(data)
}

fn parse(data: Vec<u8>) -> Result<SnapshotFile, CampaignError> {
    let file = SnapshotFile::from_bytes_verified(data)?;
    if file.kind() != ImageKind::Campaign {
        return Err(CampaignError::Corrupt(format!(
            "{} snapshot image, not a checkpoint",
            file.kind()
        )));
    }
    Ok(file)
}

fn decode(file: &SnapshotFile, store: &SnapshotStore) -> Result<Checkpoint, CampaignError> {
    let mut c = file.cursor(SectionTag::Counters, 0)?;
    let [instructions, paths_completed, vtime_ns, quanta] =
        [c.get_u64()?, c.get_u64()?, c.get_u64()?, c.get_u64()?];
    c.finish()?;
    let mut c = file.cursor(SectionTag::Covered, 0)?;
    let covered = (0..c.count(4)?)
        .map(|_| c.get_u32())
        .collect::<Result<Vec<_>, _>>()?;
    c.finish()?;
    let mut c = file.cursor(SectionTag::Bugs, 0)?;
    let bugs = (0..c.count(18)?)
        .map(|_| get_bug(&mut c))
        .collect::<Result<Vec<_>, _>>()?;
    c.finish()?;
    let mut c = file.cursor(SectionTag::Completed, 0)?;
    let completed = (0..c.count(4)?)
        .map(|_| get_state(&mut c, "completed"))
        .collect::<Result<Vec<_>, _>>()?;
    c.finish()?;
    let mut images = ImageLoader {
        file,
        store,
        shape_hash: file.meta()?.shape_hash,
        bases: HashMap::new(),
    };
    let mut c = file.cursor(SectionTag::Frontier, 0)?;
    let n = c.count(8)?;
    let mut frontier = Vec::with_capacity(n);
    for _ in 0..n {
        let state = get_state(&mut c, "frontier")?;
        let snap = match c.get_u32()? {
            NO_IMAGE => None,
            k => Some(images.load(k)?),
        };
        frontier.push((state, snap));
    }
    c.finish()?;
    Ok(Checkpoint {
        instructions,
        paths_completed,
        vtime_ns,
        quanta,
        covered,
        bugs,
        completed,
        frontier,
    })
}

/// Reads the checkpoint in `dir`, loading every referenced snapshot
/// image into `store` and rewriting the frontier's snapshot ids to the
/// freshly inserted entries. Delta images are verified against their
/// base (shape and content hash pinned at write time) and installed as
/// native delta entries, so a resumed fork-heavy frontier is O(changed)
/// in RAM exactly as the saved one was.
///
/// # Errors
///
/// I/O failures, a corrupt file, and any snapshot-image problem.
pub fn load_campaign(dir: &Path, store: &SnapshotStore) -> Result<Checkpoint, CampaignError> {
    decode(&open(dir)?, store)
}

// ---------------------------------------------------------------------
// Engine glue
// ---------------------------------------------------------------------

/// Drains an [`Engine`] after a budget-stopped `run()` into a
/// [`Checkpoint`] ready for [`save_campaign`]. `result` must be the
/// `RunResult` that run returned — it carries the accumulated counters
/// and findings the checkpoint persists.
///
/// # Errors
///
/// Propagates [`Engine::take_frontier`] failures (non-HardSnap mode).
pub fn checkpoint(engine: &mut Engine, result: &RunResult) -> Result<Checkpoint, CampaignError> {
    let frontier = engine.take_frontier()?;
    let mut covered: Vec<u32> = engine.covered_set().iter().copied().collect();
    covered.sort_unstable();
    let completed = result
        .completed
        .iter()
        .map(|s| PortableState::export(&engine.executor.pool, s))
        .collect();
    Ok(Checkpoint {
        instructions: result.instructions,
        paths_completed: result.metrics.paths_completed,
        vtime_ns: result.hw_virtual_time_ns,
        quanta: result.metrics.quanta,
        covered,
        bugs: result.bugs.clone(),
        completed,
        frontier,
    })
}

/// Saves `engine`'s interrupted campaign into `dir`.
///
/// # Errors
///
/// Any [`CampaignError`] from draining or writing.
pub fn snapshot_campaign(
    dir: &Path,
    engine: &mut Engine,
    result: &RunResult,
) -> Result<(), CampaignError> {
    let cp = checkpoint(engine, result)?;
    save_campaign(dir, &engine.store, &cp)
}

/// Loads the campaign in `dir` into a freshly built [`Engine`] of any
/// worker count: snapshots enter the engine's store, prior results seed
/// the budgets and the next `RunResult`, and the frontier is enqueued.
/// Do **not** also call `load_firmware` — the frontier carries the
/// program state.
///
/// # Errors
///
/// Any [`CampaignError`] from reading or restoring;
/// [`PersistError::ShapeMismatch`] (before any image enters the store)
/// when the checkpoint's snapshots are of another design than the
/// engine's target.
pub fn resume_campaign(dir: &Path, engine: &mut Engine) -> Result<(), CampaignError> {
    let file = open(dir)?;
    if file.sections().iter().any(|s| s.tag == SectionTag::Image) {
        file.meta()?.check_shape(engine.target().snapshot_shape())?;
    }
    let cp = decode(&file, &engine.store)?;
    engine.seed_prior(
        cp.instructions,
        cp.paths_completed,
        cp.vtime_ns,
        cp.quanta,
        cp.covered,
        cp.bugs,
        cp.completed,
    );
    engine.resume_frontier(cp.frontier);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ConsistencyMode, EngineConfig, Searcher, StopReason};
    use crate::firmware;
    use hardsnap_bus::persist::for_each_damage;
    use hardsnap_bus::{HwTarget, SnapshotDelta};
    use hardsnap_sim::SimTarget;
    use hardsnap_symex::PortableTerm;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hardsnap-campaign-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn soc_engine(config: EngineConfig) -> Engine {
        let soc = hardsnap_periph::soc().unwrap();
        let target = Box::new(SimTarget::new(soc).unwrap());
        Engine::new(target, config)
    }

    fn full_run_digest(config: &EngineConfig, prog: &hardsnap_isa::Program) -> (u64, RunResult) {
        let mut engine = soc_engine(config.clone());
        engine.load_firmware(prog);
        let r = engine.run();
        (r.canonical_digest(), r)
    }

    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// `branching_firmware(2)` cut at 30 instructions, checkpointed into
    /// `dir`: a small real checkpoint.
    fn small_checkpoint(dir: &Path) {
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(2)).unwrap();
        let mut engine = soc_engine(EngineConfig {
            mode: ConsistencyMode::HardSnap,
            max_instructions: 30,
            ..EngineConfig::default()
        });
        engine.load_firmware(&prog);
        let partial = engine.run();
        snapshot_campaign(dir, &mut engine, &partial).unwrap();
    }

    #[test]
    fn sequential_save_resume_digest_matches_uninterrupted_run() {
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(3)).unwrap();
        let config = EngineConfig {
            mode: ConsistencyMode::HardSnap,
            ..EngineConfig::default()
        };
        let (want, _) = full_run_digest(&config, &prog);

        // Interrupted run: stop early on an instruction budget.
        let dir = tmp("seq");
        {
            let mut cut = config.clone();
            cut.max_instructions = 40;
            let mut engine = soc_engine(cut);
            engine.load_firmware(&prog);
            let partial = engine.run();
            assert!(
                partial.metrics.paths_completed < 8,
                "cut must actually interrupt the run"
            );
            snapshot_campaign(&dir, &mut engine, &partial).unwrap();
        }

        // Fresh engine, full budget, resumed from disk.
        let mut engine = soc_engine(config);
        resume_campaign(&dir, &mut engine).unwrap();
        let resumed = engine.run();
        assert_eq!(resumed.metrics.paths_completed, 8);
        assert_eq!(resumed.canonical_digest(), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_save_resume_digest_matches_uninterrupted_run() {
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(3)).unwrap();
        let config = EngineConfig {
            mode: ConsistencyMode::HardSnap,
            delta_snapshots: true,
            ..EngineConfig::default()
        };
        let two_workers = |config: &EngineConfig| {
            let soc = hardsnap_periph::soc().unwrap();
            let target = Box::new(SimTarget::new(soc).unwrap());
            Engine::with_workers(target, 2, config.clone()).unwrap()
        };
        let want = {
            let mut engine = two_workers(&config);
            engine.load_firmware(&prog);
            engine.run().canonical_digest()
        };
        let dir = tmp("par");
        {
            let mut cut = config.clone();
            cut.max_instructions = 40;
            let mut engine = two_workers(&cut);
            engine.load_firmware(&prog);
            let partial = engine.run();
            snapshot_campaign(&dir, &mut engine, &partial).unwrap();
        }

        let mut engine = two_workers(&config);
        resume_campaign(&dir, &mut engine).unwrap();
        let resumed = engine.run();
        assert_eq!(resumed.metrics.paths_completed, 8);
        assert_eq!(resumed.canonical_digest(), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_worker_checkpoint_bytes_are_pinned() {
        // A one-worker `branching_firmware(3)` run cut at 40
        // instructions, as `hardsnap-cli analyze demo --workers 1
        // --max-instructions 40 --save-snapshots` writes it (either sim
        // engine), by the SHA-256 of the file. One-worker states stay in
        // the executor's pool and are flattened only by `take_frontier`;
        // the hashes were recorded from a build that flattened every
        // state at publish, so they pin that both write the same file.
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(3)).unwrap();
        for (delta, want) in [
            (
                false,
                "0d99e0d3d30d2294763232b449cf58d4dbea20608ea44f7bcf1c24d7a7b05890",
            ),
            (
                true,
                "68eb3bb94bf0c61dfd0d473383cc922c51eb4c43a463856f8236a84ba724830a",
            ),
        ] {
            let dir = tmp(&format!("pinned-{delta}"));
            let mut engine = soc_engine(EngineConfig {
                mode: ConsistencyMode::HardSnap,
                searcher: Searcher::RoundRobin,
                delta_snapshots: delta,
                max_instructions: 40,
                ..EngineConfig::default()
            });
            engine.load_firmware(&prog);
            let partial = engine.run();
            assert_eq!(partial.stop, StopReason::Instructions);
            snapshot_campaign(&dir, &mut engine, &partial).unwrap();
            let bytes = std::fs::read(dir.join(MANIFEST)).unwrap();
            let hex: String = hardsnap_periph::golden::sha256(&bytes)
                .iter()
                .map(|w| format!("{w:08x}"))
                .collect();
            assert_eq!(hex, want, "delta {delta}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn no_tmp_files_survive_a_save() {
        let dir = tmp("notmp");
        small_checkpoint(&dir);
        assert_eq!(files_in(&dir), [MANIFEST], "a checkpoint is one file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What a loaded checkpoint hands the engine: counters, findings,
    /// portable states, and the content of every frontier snapshot.
    #[derive(Debug, PartialEq)]
    struct Loaded {
        counters: [u64; 4],
        covered: Vec<u32>,
        bugs: usize,
        completed: Vec<Vec<u8>>,
        frontier: Vec<(Vec<u8>, Option<u64>)>,
        native_deltas: usize,
    }

    fn loaded(dir: &Path) -> Loaded {
        let store = SnapshotStore::new();
        let cp = load_campaign(dir, &store).unwrap();
        let snaps = cp.frontier.iter().filter_map(|(_, s)| *s);
        Loaded {
            counters: [cp.instructions, cp.paths_completed, cp.vtime_ns, cp.quanta],
            covered: cp.covered.clone(),
            bugs: cp.bugs.len(),
            completed: cp.completed.iter().map(PortableState::to_bytes).collect(),
            frontier: cp
                .frontier
                .iter()
                .map(|(s, sid)| {
                    (
                        s.to_bytes(),
                        sid.map(|id| store.get(id).unwrap().content_hash()),
                    )
                })
                .collect(),
            native_deltas: snaps
                .filter(|&id| matches!(store.export_entry(id), Ok(PersistEntry::Delta { .. })))
                .count(),
        }
    }

    #[test]
    fn a_crash_during_a_leg_save_leaves_one_whole_leg() {
        // Two consecutive 128-instruction legs of a `demo:5` job, saved
        // into one directory the way the serve runner saves them.
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(5)).unwrap();
        for delta in [false, true] {
            let dir = tmp(&format!("legs-{delta}"));
            let leg = |max_instructions: u64| {
                let mut engine = soc_engine(EngineConfig {
                    mode: ConsistencyMode::HardSnap,
                    searcher: Searcher::RoundRobin,
                    delta_snapshots: delta,
                    max_instructions,
                    ..EngineConfig::default()
                });
                if dir.join(MANIFEST).exists() {
                    resume_campaign(&dir, &mut engine).unwrap();
                } else {
                    engine.load_firmware(&prog);
                }
                let r = engine.run();
                assert_eq!(r.stop, StopReason::Instructions);
                snapshot_campaign(&dir, &mut engine, &r).unwrap();
                assert_eq!(files_in(&dir), [MANIFEST]);
                std::fs::read(dir.join(MANIFEST)).unwrap()
            };
            let a = leg(128);
            let b = leg(256);

            // Every state a crash during B's save can leave: the rename
            // is the one commit point, so the loader sees A or B whole.
            let crash = tmp(&format!("crash-{delta}"));
            let state = |manifest: &[u8], tmp_file: Option<&[u8]>| {
                let _ = std::fs::remove_dir_all(&crash);
                std::fs::create_dir_all(&crash).unwrap();
                std::fs::write(crash.join(MANIFEST), manifest).unwrap();
                if let Some(t) = tmp_file {
                    std::fs::write(crash.join("campaign.tmp"), t).unwrap();
                }
                loaded(&crash)
            };
            let (want_a, want_b) = (state(&a, None), state(&b, None));
            assert_ne!(want_a, want_b, "the legs must be told apart");
            if delta {
                assert!(want_b.native_deltas > 0, "deltas resume as native deltas");
            }
            let b_file = SnapshotFile::from_bytes(b.clone()).unwrap();
            let cuts = std::iter::once(0)
                .chain(b_file.sections().iter().map(|s| s.offset as usize))
                .chain([b.len() - 8, b.len()]);
            for cut in cuts {
                assert_eq!(state(&a, Some(&b[..cut])), want_a, "B cut at {cut}");
            }
            assert_eq!(state(&b, Some(&a)), want_b, "B with a stale tmp");
            assert_eq!(state(&b, Some(&b[..b.len() / 2])), want_b);

            // A later save over the stale tmp commits and cleans it up.
            let store = SnapshotStore::new();
            let cp = load_campaign(&crash, &store).unwrap();
            save_campaign(&crash, &store, &cp).unwrap();
            assert_eq!(files_in(&crash), [MANIFEST]);
            assert_eq!(loaded(&crash), want_b);
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&crash);
        }
    }

    #[test]
    fn every_damaged_codec_file_is_a_typed_error() {
        // A full image, a delta image, and a small real checkpoint: every
        // byte flip, every truncation and every section-bounds overflow
        // is refused with a typed error, never a panic or a value.
        let mut t = SimTarget::new(hardsnap_periph::timer().unwrap()).unwrap();
        t.reset();
        let base = t.save_snapshot().unwrap();
        let mut moved = base.clone();
        moved.cycle += 5;
        moved.regs[0] ^= 1;
        let delta = SnapshotDelta::between(&base, &moved).unwrap();
        for (kind, clean) in [
            ("full", write_full(&base)),
            ("delta", write_delta(&base, &delta, "0")),
        ] {
            for_each_damage(&clean, |what, bad| {
                let lazy = SnapshotFile::from_bytes(bad.to_vec()).and_then(|f| f.validate(true));
                assert!(
                    lazy.is_err(),
                    "{kind} image, {what}: deep validation passed"
                );
                let eager = PersistedImage::from_bytes(bad);
                assert!(eager.is_err(), "{kind} image, {what}: decoded {eager:?}");
            });
        }
        let dir = tmp("damage");
        small_checkpoint(&dir);
        let clean = std::fs::read(dir.join(MANIFEST)).unwrap();
        let file = parse(clean.clone()).unwrap();
        assert!(
            file.sections().iter().any(|s| s.tag == SectionTag::Image),
            "the checkpoint must nest images"
        );
        for_each_damage(&clean, |what, bad| {
            let got = parse(bad.to_vec()).and_then(|f| decode(&f, &SnapshotStore::new()));
            assert!(got.is_err(), "checkpoint, {what}: decoded a checkpoint");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_ill_typed_term_is_a_corrupt_checkpoint() {
        // A checkpoint whose container is intact but whose frontier state
        // holds a term no executor builds (`x[0:5]` of a 32-bit `x`):
        // resuming refuses it before any state reaches a term pool.
        let dir = tmp("illtyped");
        small_checkpoint(&dir);
        let store = SnapshotStore::new();
        let mut cp = load_campaign(&dir, &store).unwrap();
        let state = &mut cp.frontier[0].0;
        let x = state
            .terms
            .iter()
            .position(|t| matches!(t, PortableTerm::Var { width: 32, .. }))
            .expect("a symbolic input") as u32;
        state
            .terms
            .push(PortableTerm::Extract { a: x, hi: 0, lo: 5 });
        save_campaign(&dir, &store, &cp).unwrap();
        let mut engine = soc_engine(EngineConfig {
            mode: ConsistencyMode::HardSnap,
            ..EngineConfig::default()
        });
        match resume_campaign(&dir, &mut engine) {
            Err(CampaignError::Corrupt(m)) => assert!(m.contains("extract"), "{m}"),
            Err(e) => panic!("expected a corrupt checkpoint, got {e}"),
            Ok(()) => panic!("an ill-typed state resumed"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_formats_are_refused_as_bad_magic() {
        // The per-file checkpoint manifests and pack archives this
        // codec replaced, and the monolithic image format.
        for magic in [b"HSCAMP1\0", b"HSCAMP2\0", b"HSPACK1\0", b"HSNAPv2\0"] {
            let mut data = magic.to_vec();
            data.resize(64, 0);
            match parse(data) {
                Err(CampaignError::Persist(PersistError::BadMagic)) => {}
                other => panic!("{magic:?} must be bad magic, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn resuming_on_another_design_is_a_shape_mismatch() {
        let dir = tmp("shape");
        small_checkpoint(&dir);
        let timer = SimTarget::new(hardsnap_periph::timer().unwrap()).unwrap();
        let mut engine = Engine::new(
            Box::new(timer),
            EngineConfig {
                mode: ConsistencyMode::HardSnap,
                ..EngineConfig::default()
            },
        );
        match resume_campaign(&dir, &mut engine) {
            Err(CampaignError::Persist(PersistError::ShapeMismatch { .. })) => {}
            Err(e) => panic!("expected a shape mismatch, got {e}"),
            Ok(()) => panic!("a SoC checkpoint resumed on the timer design"),
        }
        assert!(engine.store.is_empty(), "refused before any image loaded");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
