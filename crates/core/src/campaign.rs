//! Campaign checkpointing: persist an analysis mid-flight and resume it
//! in a fresh process.
//!
//! A checkpoint is a directory containing one `campaign.hscamp`
//! manifest plus one `snap-<id>.hsnap` TLV image per frontier snapshot
//! (see [`hardsnap_bus::persist`]). The manifest records everything the
//! engine cannot rederive: accumulated budgets (instructions, completed
//! paths), the covered-PC set, bug reports with their testcases,
//! completed paths, and the schedulable frontier — each still-runnable
//! state serialized portably next to the file name of its private
//! hardware snapshot. Delta snapshots are saved as deltas: the shared
//! base image is written once and each child references it by file
//! name, so a fork-heavy frontier costs O(changed) on disk exactly as
//! it does in RAM.
//!
//! Save → resume is digest-transparent: seeding a fresh engine with a
//! checkpoint ([`resume_campaign`]) and running to completion yields
//! the same [`RunResult::canonical_digest`] as one uninterrupted run, at
//! any worker count on either side, because the split is just another
//! schedule and the digest only folds schedule-invariant facts.
//!
//! Loading follows only flat file names
//! ([`hardsnap_bus::is_flat_name`]): the manifest's checksum is not a
//! MAC, so a crafted manifest or delta image naming `/etc/hostname` or
//! `../x` is refused as corrupt instead of being read.

use crate::engine::{kind_rank, Engine, RunResult};
use crate::snapshots::{PersistEntry, SnapId, SnapshotStore};
use hardsnap_bus::persist::{write_delta, write_full};
use hardsnap_bus::{is_flat_name, HwSnapshot, PersistError, PersistedImage, TargetError};
use hardsnap_symex::{BugKind, BugReport, Model, PortableState, StateId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

/// Manifest file name inside a campaign directory.
pub const MANIFEST: &str = "campaign.hscamp";

/// Manifest magic: 8 bytes, version-suffixed like the snapshot TLV.
/// Version 2 added the consumed virtual-time and quantum budgets; any
/// other magic, version 1 included, is refused rather than misread.
const MAGIC: &[u8; 8] = b"HSCAMP2\0";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Errors from saving or loading a campaign checkpoint.
#[derive(Debug)]
pub enum CampaignError {
    /// Filesystem failure, naming the path.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error, stringified.
        error: String,
    },
    /// The manifest is malformed (bad magic, truncation, checksum
    /// mismatch, or an impossible field).
    Corrupt(String),
    /// A frontier snapshot image failed to load or verify.
    Persist(PersistError),
    /// A named snapshot file in the campaign directory is truncated or
    /// corrupt — the typed face of "the manifest points at a snapshot
    /// that did not survive the crash". `--resume` surfaces this with
    /// the offending file name; it must never panic.
    Snapshot {
        /// The offending snapshot file (relative to the campaign dir).
        file: String,
        /// What was wrong with it.
        error: PersistError,
    },
    /// An engine-side failure while draining or restoring state.
    Target(TargetError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io { path, error } => {
                write!(f, "campaign I/O at '{}': {error}", path.display())
            }
            CampaignError::Corrupt(m) => write!(f, "corrupt campaign manifest: {m}"),
            CampaignError::Persist(e) => write!(f, "campaign snapshot image: {e}"),
            CampaignError::Snapshot { file, error } => {
                write!(f, "campaign snapshot '{file}': {error}")
            }
            CampaignError::Target(e) => write!(f, "campaign target operation: {e}"),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Persist(e) => Some(e),
            CampaignError::Snapshot { error, .. } => Some(error),
            CampaignError::Target(e) => Some(e),
            _ => None,
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

fn io_err(path: &Path, e: impl fmt::Display) -> CampaignError {
    CampaignError::Io {
        path: path.to_path_buf(),
        error: e.to_string(),
    }
}

fn unsafe_name(what: &str, name: &str) -> CampaignError {
    CampaignError::Corrupt(format!(
        "{what} names '{}', not a file inside the campaign directory",
        name.escape_default()
    ))
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
// Manifest encoding
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CampaignError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| {
                CampaignError::Corrupt(format!("truncated at offset {} (need {n})", self.pos))
            })?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CampaignError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CampaignError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CampaignError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bytes(&mut self) -> Result<&'a [u8], CampaignError> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    fn str(&mut self) -> Result<String, CampaignError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| CampaignError::Corrupt("non-UTF-8 string field".into()))
    }
}

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

fn encode_manifest(cp: &Checkpoint, snap_files: &HashMap<SnapId, String>) -> Vec<u8> {
    let mut w = Writer {
        buf: MAGIC.to_vec(),
    };
    w.u64(cp.instructions);
    w.u64(cp.paths_completed);
    w.u64(cp.vtime_ns);
    w.u64(cp.quanta);
    w.u32(cp.covered.len() as u32);
    for &pc in &cp.covered {
        w.u32(pc);
    }
    w.u32(cp.bugs.len() as u32);
    for b in &cp.bugs {
        w.u8(kind_rank(b.kind));
        w.u32(b.pc);
        w.u64(b.state_id.0);
        w.str(&b.description);
        match &b.testcase {
            None => w.u8(0),
            Some(model) => {
                w.u8(1);
                let mut vars: Vec<(&str, u64)> = model.iter().collect();
                vars.sort_by(|a, b| a.0.cmp(b.0));
                w.u32(vars.len() as u32);
                for (name, value) in vars {
                    w.str(name);
                    w.u64(value);
                }
            }
        }
    }
    w.u32(cp.completed.len() as u32);
    for s in &cp.completed {
        w.bytes(&s.to_bytes());
    }
    w.u32(cp.frontier.len() as u32);
    for (s, snap) in &cp.frontier {
        w.bytes(&s.to_bytes());
        match snap {
            Some(sid) => w.str(&snap_files[sid]),
            None => w.str(""),
        }
    }
    let sum = fnv1a(&w.buf, FNV_OFFSET);
    w.u64(sum);
    w.buf
}

/// Decoded manifest: the checkpoint with frontier snapshots still as
/// file names (resolved against the store by [`load_campaign`]).
fn decode_manifest(data: &[u8]) -> Result<(Checkpoint, Vec<Option<String>>), CampaignError> {
    if data.len() < MAGIC.len() + 8 {
        return Err(CampaignError::Corrupt(format!(
            "file too short ({} bytes)",
            data.len()
        )));
    }
    if &data[..MAGIC.len()] != MAGIC {
        return Err(CampaignError::Corrupt("bad magic".into()));
    }
    let (body, tail) = data.split_at(data.len() - 8);
    let want = u64::from_le_bytes(tail.try_into().unwrap());
    let got = fnv1a(body, FNV_OFFSET);
    if want != got {
        return Err(CampaignError::Corrupt(format!(
            "checksum mismatch: manifest says {want:#018x}, content hashes to {got:#018x}"
        )));
    }
    let mut r = Reader {
        data: body,
        pos: MAGIC.len(),
    };
    let instructions = r.u64()?;
    let paths_completed = r.u64()?;
    let vtime_ns = r.u64()?;
    let quanta = r.u64()?;
    let n = r.u32()? as usize;
    let mut covered = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        covered.push(r.u32()?);
    }
    let n = r.u32()? as usize;
    let mut bugs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let rank = r.u8()?;
        let kind = kind_from_rank(rank)
            .ok_or_else(|| CampaignError::Corrupt(format!("unknown bug kind rank {rank}")))?;
        let pc = r.u32()?;
        let state_id = StateId(r.u64()?);
        let description = r.str()?;
        let testcase = match r.u8()? {
            0 => None,
            1 => {
                let vars = r.u32()? as usize;
                let mut values: HashMap<String, u64> = HashMap::with_capacity(vars.min(1 << 16));
                for _ in 0..vars {
                    let name = r.str()?;
                    let value = r.u64()?;
                    values.insert(name, value);
                }
                Some(Model::from(values))
            }
            other => {
                return Err(CampaignError::Corrupt(format!(
                    "bad testcase presence flag {other}"
                )))
            }
        };
        bugs.push(BugReport {
            kind,
            pc,
            state_id,
            testcase,
            description,
        });
    }
    let n = r.u32()? as usize;
    let mut completed = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let bytes = r.bytes()?;
        completed.push(
            PortableState::from_bytes(bytes)
                .map_err(|e| CampaignError::Corrupt(format!("completed state: {e}")))?,
        );
    }
    let n = r.u32()? as usize;
    let mut frontier = Vec::with_capacity(n.min(1 << 16));
    let mut files = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let bytes = r.bytes()?;
        let state = PortableState::from_bytes(bytes)
            .map_err(|e| CampaignError::Corrupt(format!("frontier state: {e}")))?;
        let file = r.str()?;
        if !file.is_empty() && !is_flat_name(&file) {
            return Err(unsafe_name("frontier snapshot", &file));
        }
        frontier.push((state, None));
        files.push(if file.is_empty() { None } else { Some(file) });
    }
    if r.pos != body.len() {
        return Err(CampaignError::Corrupt(format!(
            "{} trailing bytes after the frontier",
            body.len() - r.pos
        )));
    }
    Ok((
        Checkpoint {
            instructions,
            paths_completed,
            vtime_ns,
            quanta,
            covered,
            bugs,
            completed,
            frontier,
        },
        files,
    ))
}

// ---------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` crash-atomically: the content goes to a
/// `.tmp` sibling first, is fsynced, renamed over `path`, and the
/// directory entry is fsynced last. A crash at any instant leaves
/// either the old file or the complete new one — never a truncated
/// hybrid — so a manifest can never point at a half-written snapshot
/// from the *same* save (snapshots are committed before the manifest
/// rename, which is the checkpoint's single commit point).
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CampaignError> {
    use std::io::Write as _;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself; failure to fsync a directory is
        // not worth failing the save over (the data is already safe on
        // any crash that doesn't also lose the rename).
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Writes `cp` (frontier snapshot ids referring to `store`) into `dir`,
/// creating it if needed. Snapshots stored as deltas are persisted as
/// deltas: the shared base image is written once as its own file and
/// referenced by name, so the on-disk checkpoint stays O(changed).
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
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let mut snap_files: HashMap<SnapId, String> = HashMap::new();
    for (_, snap) in &cp.frontier {
        if let Some(sid) = snap {
            write_snapshot_file(dir, store, *sid, &mut snap_files)?;
        }
    }
    let manifest = encode_manifest(cp, &snap_files);
    let path = dir.join(MANIFEST);
    write_atomic(&path, &manifest)?;
    Ok(())
}

/// Persists snapshot `sid` into `dir` (memoized via `files`), writing
/// its base first when the store holds it as a delta. Returns the file
/// name.
fn write_snapshot_file(
    dir: &Path,
    store: &SnapshotStore,
    sid: SnapId,
    files: &mut HashMap<SnapId, String>,
) -> Result<String, CampaignError> {
    if let Some(name) = files.get(&sid) {
        return Ok(name.clone());
    }
    let name = format!("snap-{sid}.hsnap");
    let image = match store
        .export_entry(sid)
        .map_err(|e| CampaignError::Corrupt(format!("frontier snapshot {sid}: {e}")))?
    {
        PersistEntry::Full(snap) => write_full(&snap),
        PersistEntry::Delta { base, delta } => {
            let base_name = write_snapshot_file(dir, store, base, files)?;
            let base_snap = match store
                .export_entry(base)
                .map_err(|e| CampaignError::Corrupt(format!("delta base {base}: {e}")))?
            {
                PersistEntry::Full(s) => s,
                PersistEntry::Delta { .. } => {
                    return Err(CampaignError::Corrupt(format!(
                        "snapshot {sid}'s base {base} is itself a delta"
                    )))
                }
            };
            write_delta(&base_snap, &delta, &base_name)
        }
    };
    let path = dir.join(&name);
    write_atomic(&path, &image)?;
    files.insert(sid, name.clone());
    Ok(name)
}

// ---------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------

/// Reads a checkpoint from `dir`, loading every referenced snapshot
/// image into `store` and rewriting the frontier's snapshot ids to the
/// freshly inserted entries. Delta images are verified against their
/// base (shape and content hash pinned at write time) and installed as
/// native delta entries, so a resumed fork-heavy frontier is O(changed)
/// in RAM exactly as the saved one was.
///
/// # Errors
///
/// I/O failures, a corrupt manifest, and any snapshot-image problem.
pub fn load_campaign(dir: &Path, store: &SnapshotStore) -> Result<Checkpoint, CampaignError> {
    let path = dir.join(MANIFEST);
    let data = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
    let (mut cp, files) = decode_manifest(&data)?;
    // Base images are shared between sibling deltas: load each file
    // once, memoized by name.
    let mut loaded_bases: HashMap<String, (SnapId, HwSnapshot)> = HashMap::new();
    for ((_, slot), file) in cp.frontier.iter_mut().zip(files) {
        let Some(name) = file else { continue };
        *slot = Some(load_snapshot_file(dir, store, &name, &mut loaded_bases)?);
    }
    Ok(cp)
}

/// Reads one snapshot image, converting every persistence failure
/// (truncation, checksum mismatch, bad TLV) into
/// [`CampaignError::Snapshot`] so the caller's error names the exact
/// file that did not survive.
fn read_snapshot_image(path: &Path, name: &str) -> Result<PersistedImage, CampaignError> {
    PersistedImage::read(path).map_err(|error| CampaignError::Snapshot {
        file: name.to_string(),
        error,
    })
}

fn load_base(
    dir: &Path,
    store: &SnapshotStore,
    name: &str,
    bases: &mut HashMap<String, (SnapId, HwSnapshot)>,
) -> Result<(SnapId, HwSnapshot), CampaignError> {
    if let Some((sid, snap)) = bases.get(name) {
        return Ok((*sid, snap.clone()));
    }
    let path = dir.join(name);
    match read_snapshot_image(&path, name)? {
        PersistedImage::Full(snap) => {
            let sid = store.insert_base(snap.clone());
            bases.insert(name.to_string(), (sid, snap.clone()));
            Ok((sid, snap))
        }
        PersistedImage::Delta { .. } => Err(CampaignError::Corrupt(format!(
            "base image '{name}' is itself a delta"
        ))),
    }
}

fn load_snapshot_file(
    dir: &Path,
    store: &SnapshotStore,
    name: &str,
    bases: &mut HashMap<String, (SnapId, HwSnapshot)>,
) -> Result<SnapId, CampaignError> {
    let path = dir.join(name);
    match read_snapshot_image(&path, name)? {
        PersistedImage::Full(snap) => Ok(store.insert(snap)),
        PersistedImage::Delta {
            base_ref,
            base_shape_hash,
            base_content_hash,
            delta,
        } => {
            if !is_flat_name(&base_ref) {
                return Err(unsafe_name(&format!("delta '{name}' base"), &base_ref));
            }
            let (base_id, base_snap) = load_base(dir, store, &base_ref, bases)?;
            if base_snap.shape_hash() != base_shape_hash {
                return Err(CampaignError::Corrupt(format!(
                    "delta '{name}' pins base shape {base_shape_hash:#018x} but '{base_ref}' has {:#018x}",
                    base_snap.shape_hash()
                )));
            }
            if base_snap.content_hash() != base_content_hash {
                return Err(CampaignError::Corrupt(format!(
                    "delta '{name}' pins base content {base_content_hash:#018x} but '{base_ref}' has {:#018x}",
                    base_snap.content_hash()
                )));
            }
            store.insert_delta_native(base_id, delta).ok_or_else(|| {
                CampaignError::Corrupt(format!("delta '{name}' rejected by the store"))
            })
        }
    }
}

// ---------------------------------------------------------------------
// Engine glue
// ---------------------------------------------------------------------

/// Drains an [`Engine`] after a budget-stopped `run()` into a
/// [`Checkpoint`] ready for [`save_campaign`]. `result` must be the
/// `RunResult` that run returned — it carries the accumulated counters
/// and findings the manifest persists.
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
/// Any [`CampaignError`] from reading or restoring.
pub fn resume_campaign(dir: &Path, engine: &mut Engine) -> Result<(), CampaignError> {
    let cp = load_campaign(dir, &engine.store)?;
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
    use crate::engine::{ConsistencyMode, EngineConfig};
    use crate::firmware;
    use hardsnap_sim::SimTarget;

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
    fn truncated_snapshot_file_is_a_typed_error_naming_it() {
        // A crash between the snapshot writes and the manifest rename
        // cannot happen (the manifest commits last), but a snapshot
        // truncated *after* the save — torn disk, partial copy — must
        // surface on resume as a typed error naming the file, never a
        // panic.
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(3)).unwrap();
        let config = EngineConfig {
            mode: ConsistencyMode::HardSnap,
            max_instructions: 40,
            ..EngineConfig::default()
        };
        let dir = tmp("truncsnap");
        let mut engine = soc_engine(config);
        engine.load_firmware(&prog);
        let partial = engine.run();
        snapshot_campaign(&dir, &mut engine, &partial).unwrap();
        let snap_path = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|e| e == "hsnap"))
            .expect("an interrupted run must checkpoint at least one snapshot");
        let full = std::fs::read(&snap_path).unwrap();
        std::fs::write(&snap_path, &full[..full.len() / 2]).unwrap();

        let store = SnapshotStore::new();
        let err = match load_campaign(&dir, &store) {
            Ok(_) => panic!("truncated snapshot must fail the load"),
            Err(e) => e,
        };
        let name = snap_path.file_name().unwrap().to_str().unwrap();
        match &err {
            CampaignError::Snapshot { file, .. } => assert_eq!(file, name),
            other => panic!("expected CampaignError::Snapshot, got {other:?}"),
        }
        assert!(
            err.to_string().contains(name),
            "error must name the bad file: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_tmp_files_survive_a_save() {
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(2)).unwrap();
        let config = EngineConfig {
            mode: ConsistencyMode::HardSnap,
            max_instructions: 30,
            ..EngineConfig::default()
        };
        let dir = tmp("notmp");
        let mut engine = soc_engine(config);
        engine.load_firmware(&prog);
        let partial = engine.run();
        snapshot_campaign(&dir, &mut engine, &partial).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            assert!(
                p.extension().map(|e| e != "tmp").unwrap_or(true),
                "stray temp file after save: {}",
                p.display()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_flip_any_byte_is_a_typed_error() {
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(2)).unwrap();
        let config = EngineConfig {
            mode: ConsistencyMode::HardSnap,
            max_instructions: 30,
            ..EngineConfig::default()
        };
        let dir = tmp("flip");
        let mut engine = soc_engine(config);
        engine.load_firmware(&prog);
        let partial = engine.run();
        snapshot_campaign(&dir, &mut engine, &partial).unwrap();
        let path = dir.join(MANIFEST);
        let clean = std::fs::read(&path).unwrap();
        let store = SnapshotStore::new();
        // Every single-byte corruption must surface as CampaignError,
        // never a panic or a silently different checkpoint.
        for pos in 0..clean.len() {
            let mut bad = clean.clone();
            bad[pos] ^= 0x41;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                load_campaign(&dir, &store).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_one_manifest_is_refused_as_bad_magic() {
        let mut data = b"HSCAMP1\0".to_vec();
        data.resize(64, 0);
        match decode_manifest(&data) {
            Err(CampaignError::Corrupt(m)) => assert_eq!(m, "bad magic"),
            other => panic!("v1 manifest must be refused, got {:?}", other.err()),
        }
    }

    /// Writes a manifest whose frontier names `file` as its snapshot.
    fn manifest_naming(dir: &Path, file: &str) {
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(1)).unwrap();
        let mut ex = hardsnap_symex::Executor::new(hardsnap_symex::Concretization::Minimal);
        let s = ex.initial_state(prog.image.clone(), prog.entry);
        let sid = SnapId::default();
        let cp = Checkpoint {
            instructions: 0,
            paths_completed: 0,
            vtime_ns: 0,
            quanta: 0,
            covered: Vec::new(),
            bugs: Vec::new(),
            completed: Vec::new(),
            frontier: vec![(PortableState::export(&ex.pool, &s), Some(sid))],
        };
        let files = HashMap::from([(sid, file.to_string())]);
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(MANIFEST), encode_manifest(&cp, &files)).unwrap();
    }

    #[test]
    fn load_refuses_names_that_leave_the_campaign_dir() {
        let dir = tmp("unsafe");
        let snap = {
            let mut t = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
            hardsnap_bus::HwTarget::reset(&mut t);
            hardsnap_bus::HwTarget::save_snapshot(&mut t).unwrap()
        };
        let delta = hardsnap_bus::SnapshotDelta {
            regs: Vec::new(),
            mem_words: Vec::new(),
            cycle: snap.cycle,
        };
        for bad in ["/etc/hostname", "../x", "..", "a/b"] {
            // The manifest itself names the file.
            manifest_naming(&dir, bad);
            let err = load_campaign(&dir, &SnapshotStore::new()).err();
            assert!(
                matches!(err, Some(CampaignError::Corrupt(_))),
                "manifest naming {bad:?}: {err:?}"
            );
            // A flat-named delta image whose base_ref leaves the dir.
            std::fs::write(dir.join("snap-0.hsnap"), write_delta(&snap, &delta, bad)).unwrap();
            manifest_naming(&dir, "snap-0.hsnap");
            let err = load_campaign(&dir, &SnapshotStore::new()).err();
            assert!(
                matches!(err, Some(CampaignError::Corrupt(_))),
                "base_ref {bad:?}: {err:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
