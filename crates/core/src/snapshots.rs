//! The snapshotting controller's snapshot store (paper §III-C).
//!
//! Snapshots are "identified by a unique identifier"; the store is the
//! persistent side of the controller (the paper's checkpoint files /
//! snapshot SRAM). It is shared (`Arc` + locks) so diagnostic tooling
//! can inspect snapshots while an analysis runs.
//!
//! Two storage representations are supported:
//!
//! * **full** images — one complete [`HwSnapshot`] per id, held as an
//!   `Arc` so a lookup, a fork's children and the engine's own copy
//!   share one image instead of cloning it;
//! * **delta** images — a [`SnapshotDelta`] the target emitted against
//!   a `Base`, an immutable full image the entry holds by handle.
//!   Fork-heavy analyses produce many snapshots that differ from their
//!   fork point by a handful of registers, so delta storage cuts the
//!   controller's memory footprint dramatically (measured by the
//!   `exp_ablation` harness).
//!
//! ## Bases
//!
//! A delta entry owns its base: it holds an `Arc<Base>`, and a base
//! lives exactly as long as some entry (or a capture on its way into
//! the store) holds it. Creating a `Base` reserves its bytes through
//! the store's budget; dropping the last handle returns them. So no
//! removal can break a delta, and every delta is one hop against a
//! full image.
//!
//! ## Tiering
//!
//! The store is additionally **RAM-budgeted**: when a resident-byte
//! budget is configured ([`SnapshotStore::set_mem_budget`], surfaced as
//! `EngineConfig::snapshot_mem_budget` / `analyze
//! --snapshot-mem-budget`), admitting a new image first spills the
//! least-recently-used cold entries to a spool directory — serialized in
//! the checksummed TLV container of `hardsnap_bus::persist` — until the
//! newcomer fits. Spilled entries are paged back in transparently on
//! lookup (`get`/`try_get`), so the budget bounds the *resident* high
//! water mark while the id space stays exactly as if everything were in
//! RAM. Bases are not entries and never spill: a spilled delta keeps
//! its base handle, and page-in checks the spool file's pinned base
//! content hash against it. Spill/page I/O failures are typed
//! [`SnapshotError`]s (or soft-fail the spill, leaving the entry
//! resident), never panics.
//!
//! ## Concurrency
//!
//! The store is **lock-sharded**: ids map to `id % N` shards, each
//! behind its own `RwLock`, so the N workers of the engine do
//! not serialize on one store-wide lock. No operation ever holds two
//! shard guards at once — a lookup locks the one shard of its id, since
//! a delta carries its base, and spilling serializes the victim
//! *outside* any lock and re-checks (via a per-entry generation
//! counter) before swapping — which keeps the sharding deadlock-free by
//! construction. Id allocation and byte accounting are lock-free
//! atomics; budget admission serializes on one small gate mutex that is
//! never held across I/O or another lock.

use hardsnap_bus::persist::{write_delta, write_full, PersistedImage};
use hardsnap_bus::{HwSnapshot, SnapshotDelta};
use hardsnap_util::sync::{Mutex, ShardedRwLock, WatermarkCounter};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A snapshot identifier.
pub type SnapId = u64;

/// Number of independently locked shards.
const SHARDS: usize = 16;

/// Errors from snapshot lookup/reconstruction: a missing id, a delta
/// that no longer applies, or a spool file that cannot be read back
/// (or fails its checksums).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// No entry under this id.
    Missing(SnapId),
    /// The delta no longer applies to its base image (shape mismatch —
    /// indicates store corruption).
    Corrupt {
        /// The id whose delta failed to apply.
        id: SnapId,
    },
    /// A spilled entry could not be paged back in from the spool
    /// directory (I/O failure, or the spool file failed its checksums).
    Spill {
        /// The id whose page-in failed.
        id: SnapId,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Missing(id) => write!(f, "snapshot {id} does not exist"),
            SnapshotError::Corrupt { id } => {
                write!(f, "snapshot {id}: delta does not apply to its base")
            }
            SnapshotError::Spill { id, detail } => {
                write!(f, "snapshot {id}: page-in from spool failed: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A full image that delta entries are stored against. Its bytes count
/// toward the store's resident total from [`Base::new`] until the last
/// handle drops.
#[derive(Debug)]
pub(crate) struct Base {
    snap: Arc<HwSnapshot>,
    /// The owning store's byte counter, shared so a base can outlive
    /// (and never keeps alive) the store.
    bytes: Arc<WatermarkCounter>,
}

impl Base {
    /// Registers `snap` as a delta base of `store`, reserving its bytes
    /// through the store's budget (cold entries spill first when over
    /// it).
    pub(crate) fn new(store: &SnapshotStore, snap: Arc<HwSnapshot>) -> Arc<Base> {
        store.reserve(snap.byte_size());
        Arc::new(Base {
            snap,
            bytes: store.inner.bytes.clone(),
        })
    }

    /// The base image.
    pub(crate) fn snap(&self) -> &Arc<HwSnapshot> {
        &self.snap
    }
}

impl Drop for Base {
    fn drop(&mut self) {
        self.bytes.sub(self.snap.byte_size());
    }
}

#[derive(Debug)]
enum Entry {
    Full(Arc<HwSnapshot>),
    Delta {
        base: Arc<Base>,
        delta: SnapshotDelta,
    },
    /// A full image spilled to the spool directory; `ram_bytes` is the
    /// resident size it returns to when paged back in.
    SpilledFull {
        path: PathBuf,
        ram_bytes: usize,
    },
    /// A delta spilled to the spool directory, still holding its base.
    SpilledDelta {
        base: Arc<Base>,
        path: PathBuf,
        ram_bytes: usize,
    },
}

impl Entry {
    /// Resident bytes: spilled entries cost no RAM.
    fn byte_size(&self) -> usize {
        match self {
            Entry::Full(s) => s.byte_size(),
            Entry::Delta { delta, .. } => delta.byte_size(),
            Entry::SpilledFull { .. } | Entry::SpilledDelta { .. } => 0,
        }
    }

    fn spill_path(&self) -> Option<&PathBuf> {
        match self {
            Entry::SpilledFull { path, .. } | Entry::SpilledDelta { path, .. } => Some(path),
            _ => None,
        }
    }

    /// A copy of the resident payload; `None` while spilled.
    fn resident(&self) -> Option<PersistEntry> {
        match self {
            Entry::Full(s) => Some(PersistEntry::Full(s.clone())),
            Entry::Delta { base, delta } => Some(PersistEntry::Delta {
                base: base.snap.clone(),
                delta: delta.clone(),
            }),
            Entry::SpilledFull { .. } | Entry::SpilledDelta { .. } => None,
        }
    }
}

#[derive(Debug)]
struct Stored {
    entry: Entry,
    /// Logical LRU timestamp (global clock tick of the last use).
    touch: AtomicU64,
    /// Bumped on every content mutation; a spill aborts if the entry
    /// changed between serialization and the swap to the spilled repr.
    generation: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<SnapId, Stored>,
}

/// Always-on store activity counters (relaxed atomics — cheap enough to
/// keep unconditionally; the telemetry layer folds them into its
/// snapshot at the end of a run).
#[derive(Debug, Default)]
struct StoreCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    spills: AtomicU64,
    page_ins: AtomicU64,
    spill_fails: AtomicU64,
}

/// The stored representation of one snapshot, as handed to a
/// serializer: either a self-contained full image or a delta plus the
/// base image it applies to. Campaign checkpointing uses this to write
/// deltas to disk *as deltas* against one shared base image instead of
/// flattening every entry to a full image.
#[derive(Clone, Debug)]
pub enum PersistEntry {
    /// Self-contained image.
    Full(Arc<HwSnapshot>),
    /// Delta against `base`.
    Delta {
        /// The base image the delta applies to, shared by every delta
        /// against it.
        base: Arc<HwSnapshot>,
        /// The delta itself.
        delta: SnapshotDelta,
    },
}

/// Point-in-time copy of the store's activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that produced a snapshot.
    pub hits: u64,
    /// Lookups that failed (missing id, delta that does not apply,
    /// failed page-in).
    pub misses: u64,
    /// Entries reclaimed by `remove`.
    pub evictions: u64,
    /// Entries written out to the spool directory under budget pressure.
    pub spills: u64,
    /// Spilled entries paged back into RAM on lookup.
    pub page_ins: u64,
    /// Spill attempts abandoned on I/O failure (entry stayed resident).
    pub spill_fails: u64,
}

#[derive(Debug)]
struct Spool {
    dir: Option<PathBuf>,
    /// True when the store invented a temp directory itself (removed on
    /// drop); caller-provided directories are left alone.
    owned: bool,
}

#[derive(Debug)]
struct StoreInner {
    shards: ShardedRwLock<Shard>,
    next: AtomicU64,
    /// Resident bytes of entries and of live bases.
    bytes: Arc<WatermarkCounter>,
    counters: StoreCounters,
    /// Resident-byte budget; `usize::MAX` means unbudgeted.
    budget: AtomicUsize,
    /// Serializes budget check + byte reservation (never held across
    /// I/O or another lock).
    gate: Mutex<()>,
    /// Logical clock for LRU touch stamps.
    clock: AtomicU64,
    spool: Mutex<Spool>,
}

impl Drop for StoreInner {
    fn drop(&mut self) {
        let spool = self.spool.lock();
        if spool.owned {
            if let Some(dir) = &spool.dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

/// Sequence for unique store-owned spool directory names.
static SPOOL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Thread-safe, lock-sharded snapshot store.
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    inner: Arc<StoreInner>,
}

impl Default for SnapshotStore {
    fn default() -> Self {
        SnapshotStore {
            inner: Arc::new(StoreInner {
                shards: ShardedRwLock::new(SHARDS),
                next: AtomicU64::new(0),
                bytes: Arc::new(WatermarkCounter::new()),
                counters: StoreCounters::default(),
                budget: AtomicUsize::new(usize::MAX),
                gate: Mutex::new(()),
                clock: AtomicU64::new(0),
                spool: Mutex::new(Spool {
                    dir: None,
                    owned: false,
                }),
            }),
        }
    }
}

impl SnapshotStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        SnapshotStore::default()
    }

    /// Sets (or clears, with `None`) the resident-byte budget. While a
    /// budget is set, admitting new bytes spills LRU cold entries first,
    /// so [`SnapshotStore::peak_bytes`] stays at or under the budget as
    /// long as enough resident entries exist to spill.
    pub fn set_mem_budget(&self, budget: Option<usize>) {
        self.inner
            .budget
            .store(budget.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    /// Directs spill files to `dir` (created on first use) instead of a
    /// store-owned temp directory. Caller-provided directories are not
    /// deleted when the store drops.
    pub fn set_spool_dir(&self, dir: &Path) {
        let mut spool = self.inner.spool.lock();
        spool.dir = Some(dir.to_path_buf());
        spool.owned = false;
    }

    fn alloc_id(&self) -> SnapId {
        self.inner.next.fetch_add(1, Ordering::Relaxed)
    }

    fn tick(&self) -> u64 {
        self.inner.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the spool directory, inventing (and creating) a unique
    /// temp directory on first need.
    fn spool_dir(&self) -> Result<PathBuf, String> {
        let mut spool = self.inner.spool.lock();
        let dir = match &spool.dir {
            Some(dir) => dir.clone(),
            None => {
                let seq = SPOOL_SEQ.fetch_add(1, Ordering::Relaxed);
                let dir = std::env::temp_dir().join(format!(
                    "hardsnap-spool-{}-{}",
                    std::process::id(),
                    seq
                ));
                spool.dir = Some(dir.clone());
                spool.owned = true;
                dir
            }
        };
        std::fs::create_dir_all(&dir).map_err(|e| format!("create '{}': {e}", dir.display()))?;
        Ok(dir)
    }

    /// Reserves `incoming` resident bytes, spilling LRU cold entries
    /// first while over budget. Always succeeds — if nothing (more) can
    /// be spilled the bytes are admitted over budget, because refusing
    /// an image would break analysis correctness.
    fn reserve(&self, incoming: usize) {
        let budget = self.inner.budget.load(Ordering::Relaxed);
        if budget == usize::MAX {
            self.inner.bytes.add(incoming);
            return;
        }
        let mut attempts = 0usize;
        loop {
            {
                let _g = self.inner.gate.lock();
                if self.inner.bytes.current() + incoming <= budget {
                    self.inner.bytes.add(incoming);
                    return;
                }
            }
            // Over budget: spill the coldest eligible entry and retry.
            // The attempt cap bounds pathological races; at worst the
            // bytes are admitted over budget.
            attempts += 1;
            if attempts > self.len() + 8 || !self.spill_one() {
                self.inner.bytes.add(incoming);
                return;
            }
        }
    }

    /// Picks and spills the least-recently-used resident entry. Returns
    /// false when no eligible victim exists (everything is already
    /// spilled).
    fn spill_one(&self) -> bool {
        let mut best: Option<(u64, SnapId)> = None;
        for shard in self.inner.shards.iter() {
            let g = shard.read();
            for (&id, s) in &g.entries {
                if s.entry.byte_size() > 0 {
                    let t = s.touch.load(Ordering::Relaxed);
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, id));
                    }
                }
            }
        }
        match best {
            Some((_, id)) => self.spill(id),
            None => false,
        }
    }

    /// Spills one entry to the spool directory. Serialization and file
    /// I/O happen with no locks held; the swap to the spilled
    /// representation re-checks the entry's generation so a concurrent
    /// update can never be clobbered by a stale file. On I/O failure the
    /// entry stays resident (soft failure — the store must keep working
    /// without a disk).
    fn spill(&self, id: SnapId) -> bool {
        let (generation, payload) = {
            let shard = self.inner.shards.shard_for(id);
            let g = shard.read();
            let Some(s) = g.entries.get(&id) else {
                return false;
            };
            match s.entry.resident() {
                Some(payload) => (s.generation, payload),
                None => return false,
            }
        };
        let image = match &payload {
            PersistEntry::Full(snap) => write_full(snap),
            // The entry holds its base, so the file's base reference
            // only has to be non-empty; page-in checks the pinned
            // content hash instead.
            PersistEntry::Delta { base, delta } => write_delta(base, delta, "entry"),
        };
        // Every spill writes a file of its own. Page-in and update
        // unlink the file they detached only after dropping the shard
        // lock; with a shared per-id name, a re-spill of the same id in
        // that window would have its fresh file unlinked under it.
        let written = self.spool_dir().and_then(|dir| {
            let path = dir.join(format!("snap-{id}-{}.hsnap", self.tick()));
            std::fs::write(&path, &image)
                .map_err(|e| format!("write '{}': {e}", path.display()))?;
            Ok(path)
        });
        let path = match written {
            Ok(p) => p,
            Err(_) => {
                self.inner
                    .counters
                    .spill_fails
                    .fetch_add(1, Ordering::Relaxed);
                // Re-stamp the victim so the next pick moves on instead
                // of hammering the same failing entry.
                let shard = self.inner.shards.shard_for(id);
                if let Some(s) = shard.read().entries.get(&id) {
                    s.touch.store(self.tick(), Ordering::Relaxed);
                }
                return false;
            }
        };
        let freed = {
            let shard = self.inner.shards.shard_for(id);
            let mut g = shard.write();
            let Some(s) = g.entries.get_mut(&id) else {
                drop(g);
                let _ = std::fs::remove_file(&path);
                return false;
            };
            let sz = s.entry.byte_size();
            let spilled = match &s.entry {
                _ if s.generation != generation => None,
                Entry::Full(_) => Some(Entry::SpilledFull {
                    path: path.clone(),
                    ram_bytes: sz,
                }),
                Entry::Delta { base, .. } => Some(Entry::SpilledDelta {
                    base: base.clone(),
                    path: path.clone(),
                    ram_bytes: sz,
                }),
                Entry::SpilledFull { .. } | Entry::SpilledDelta { .. } => None,
            };
            let Some(spilled) = spilled else {
                // Lost a race (update, page-in, or a concurrent spill of
                // the same id): the file is ours alone, so drop it.
                drop(g);
                let _ = std::fs::remove_file(&path);
                return false;
            };
            s.entry = spilled;
            sz
        };
        self.inner.bytes.sub(freed);
        self.inner.counters.spills.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Pages a spilled entry back into RAM, verifying the spool file's
    /// checksums (and a delta's pinned base) along the way, and returns
    /// the resident payload. The returned copy stays valid even if
    /// budget pressure immediately spills the entry again — callers
    /// must use it rather than re-reading the map: under a tight budget
    /// a concurrent `reserve` can spill the entry again the instant it
    /// lands, and a read-back retry loop then livelocks with two
    /// threads ping-ponging each other's page-ins.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Spill`] on I/O or integrity failure (the entry
    /// stays spilled), [`SnapshotError::Missing`] if it raced removal.
    fn page_in(&self, id: SnapId) -> Result<PersistEntry, SnapshotError> {
        let (path, ram_bytes, base) = {
            let shard = self.inner.shards.shard_for(id);
            let g = shard.read();
            let Some(s) = g.entries.get(&id) else {
                return Err(SnapshotError::Missing(id));
            };
            match &s.entry {
                Entry::SpilledFull { path, ram_bytes } => (path.clone(), *ram_bytes, None),
                Entry::SpilledDelta {
                    base,
                    path,
                    ram_bytes,
                } => (path.clone(), *ram_bytes, Some(base.clone())),
                // Raced: another thread already paged it in.
                resident => return Ok(resident.resident().expect("resident entry")),
            }
        };
        self.reserve(ram_bytes);
        let spill_err = |detail: String| SnapshotError::Spill { id, detail };
        let loaded = std::fs::read(&path)
            .map_err(|e| spill_err(format!("read '{}': {e}", path.display())))
            .and_then(|data| {
                PersistedImage::from_bytes(&data).map_err(|e| spill_err(e.to_string()))
            })
            .and_then(|img| match (img, base) {
                (PersistedImage::Full(snap), None) => Ok(Entry::Full(Arc::new(snap))),
                (
                    PersistedImage::Delta {
                        base_content_hash,
                        delta,
                        ..
                    },
                    Some(base),
                ) if base_content_hash == base.snap.content_hash() => {
                    Ok(Entry::Delta { base, delta })
                }
                _ => Err(spill_err(
                    "spool file does not match the entry's base".into(),
                )),
            });
        let entry = match loaded {
            Ok(e) => e,
            Err(e) => {
                self.inner.bytes.sub(ram_bytes);
                // A concurrent page-in may have swapped the entry
                // resident and unlinked the spool file between our
                // path read and the file read — that is a win, not an
                // error: hand back the resident payload, or page in
                // again if it has since been re-spilled to a new file.
                let shard = self.inner.shards.shard_for(id);
                let g = shard.read();
                let Some(s) = g.entries.get(&id) else {
                    return Err(e);
                };
                if let Some(payload) = s.entry.resident() {
                    return Ok(payload);
                }
                if s.entry.spill_path().is_some_and(|p| *p != path) {
                    drop(g);
                    return self.page_in(id);
                }
                return Err(e);
            }
        };
        let paged = entry.resident().expect("loaded entries are resident");
        let actual = entry.byte_size();
        let swapped = {
            let shard = self.inner.shards.shard_for(id);
            let mut g = shard.write();
            match g.entries.get_mut(&id) {
                Some(s) if s.entry.spill_path() == Some(&path) => {
                    s.entry = entry;
                    s.touch.store(self.tick(), Ordering::Relaxed);
                    true
                }
                _ => false,
            }
        };
        if !swapped {
            // Raced a concurrent page-in or removal: undo the
            // reservation, keep whatever state won the race. The copy
            // we loaded is still the entry's content, so hand it back.
            self.inner.bytes.sub(ram_bytes);
            return Ok(paged);
        }
        if actual > ram_bytes {
            self.inner.bytes.add(actual - ram_bytes);
        } else {
            self.inner.bytes.sub(ram_bytes - actual);
        }
        let _ = std::fs::remove_file(&path);
        self.inner.counters.page_ins.fetch_add(1, Ordering::Relaxed);
        Ok(paged)
    }

    /// Puts `entry` under `id`, replacing (and discarding) whatever was
    /// there: the one swap behind every insert and update.
    fn put(&self, id: SnapId, entry: Entry) {
        self.reserve(entry.byte_size());
        let old = {
            let mut g = self.inner.shards.shard_for(id).write();
            match g.entries.get_mut(&id) {
                Some(stored) => {
                    stored.generation += 1;
                    stored.touch.store(self.tick(), Ordering::Relaxed);
                    Some(std::mem::replace(&mut stored.entry, entry))
                }
                None => {
                    let touch = AtomicU64::new(self.tick());
                    g.entries.insert(
                        id,
                        Stored {
                            entry,
                            touch,
                            generation: 0,
                        },
                    );
                    None
                }
            }
        };
        if let Some(old) = old {
            self.discard(old);
        }
    }

    /// Accounting + spool cleanup for an entry detached from the map;
    /// dropping it releases its base handle.
    fn discard(&self, entry: Entry) {
        self.inner.bytes.sub(entry.byte_size());
        if let Some(path) = entry.spill_path() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Stores a full snapshot under a fresh id.
    pub fn insert(&self, snap: impl Into<Arc<HwSnapshot>>) -> SnapId {
        let id = self.alloc_id();
        self.put(id, Entry::Full(snap.into()));
        id
    }

    /// Stores a delta the target emitted against `base` under a fresh
    /// id — no O(design) re-diff, the store cost is O(delta).
    pub(crate) fn insert_delta(&self, base: Arc<Base>, delta: SnapshotDelta) -> SnapId {
        let id = self.alloc_id();
        self.put(id, Entry::Delta { base, delta });
        id
    }

    /// Overwrites the snapshot under `id` with a full image (the
    /// paper's `UpdateState`).
    pub fn update(&self, id: SnapId, snap: impl Into<Arc<HwSnapshot>>) {
        self.put(id, Entry::Full(snap.into()));
    }

    /// Overwrites the snapshot under `id` with a delta against `base` —
    /// the O(delta) counterpart of [`SnapshotStore::update`]. The
    /// entry's previous base is released.
    pub(crate) fn update_delta(&self, id: SnapId, base: Arc<Base>, delta: SnapshotDelta) {
        self.put(id, Entry::Delta { base, delta });
    }

    /// Records a lookup outcome in the activity counters.
    fn note_lookup(&self, hit: bool) {
        let c = &self.inner.counters;
        if hit {
            c.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            c.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Resolves `id` to its image, applying a delta to its base; a
    /// spilled entry pages back in on the way. A full entry comes back
    /// as its shared image, uncloned.
    fn try_resolve(&self, id: SnapId) -> Result<Arc<HwSnapshot>, SnapshotError> {
        match self.export_entry(id)? {
            PersistEntry::Full(snap) => Ok(snap),
            PersistEntry::Delta { base, delta } => delta
                .apply(&base)
                .map(Arc::new)
                .map_err(|_| SnapshotError::Corrupt { id }),
        }
    }

    /// Fetches a snapshot by id (reconstructing deltas and paging in
    /// spilled entries transparently). A full entry is returned as the
    /// stored image itself, shared.
    pub fn get(&self, id: SnapId) -> Option<Arc<HwSnapshot>> {
        self.try_get(id).ok()
    }

    /// Like [`SnapshotStore::get`], but reports *why* a snapshot cannot
    /// be produced: missing id, a delta that no longer applies, or a
    /// spool page-in failure.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] naming the failure.
    pub fn try_get(&self, id: SnapId) -> Result<Arc<HwSnapshot>, SnapshotError> {
        let got = self.try_resolve(id);
        self.note_lookup(got.is_ok());
        got
    }

    /// Drops a snapshot (state terminated); its base is freed with the
    /// last delta holding it. Nothing is resolved or paged in: a spilled
    /// entry just loses its spool file. False when no entry exists
    /// under `id`.
    pub fn remove(&self, id: SnapId) -> bool {
        let Some(stored) = self.inner.shards.shard_for(id).write().entries.remove(&id) else {
            return false;
        };
        self.discard(stored.entry);
        self.inner
            .counters
            .evictions
            .fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Number of live entries (spilled ones included; bases are not
    /// entries).
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().entries.len())
            .sum()
    }

    /// True if no snapshots are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current *resident* bytes: full and delta entries plus the live
    /// bases they hold (spilled entries cost nothing here).
    pub fn total_bytes(&self) -> usize {
        self.inner.bytes.current()
    }

    /// High-water mark of [`SnapshotStore::total_bytes`] — the number
    /// the `--snapshot-mem-budget` cap bounds.
    pub fn peak_bytes(&self) -> usize {
        self.inner.bytes.peak()
    }

    /// Returns the entry's *stored representation* for serialization —
    /// a delta entry comes back as `(base, delta)` rather than a
    /// flattened image, so an on-disk campaign stores it as a delta.
    /// Spilled entries are paged back in first.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Missing`] for an unknown id,
    /// [`SnapshotError::Spill`] if a spilled entry cannot be paged in.
    pub fn export_entry(&self, id: SnapId) -> Result<PersistEntry, SnapshotError> {
        let found = {
            let shard = self.inner.shards.shard_for(id);
            let g = shard.read();
            let Some(stored) = g.entries.get(&id) else {
                return Err(SnapshotError::Missing(id));
            };
            stored.touch.store(self.tick(), Ordering::Relaxed);
            stored.entry.resident()
        };
        // Spilled: page it back in and use the returned payload directly
        // (see `page_in`).
        match found {
            Some(payload) => Ok(payload),
            None => self.page_in(id),
        }
    }

    /// Point-in-time copy of the store's activity counters.
    pub fn stats(&self) -> StoreStats {
        let c = &self.inner.counters;
        StoreStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            spills: c.spills.load(Ordering::Relaxed),
            page_ins: c.page_ins.load(Ordering::Relaxed),
            spill_fails: c.spill_fails.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardsnap_bus::{RegSlot, SnapshotLayout};
    use std::sync::Weak;

    fn snap(v: u64) -> HwSnapshot {
        let layout = SnapshotLayout::new(
            "d",
            (0..32)
                .map(|i| RegSlot {
                    name: format!("r{i}"),
                    width: 32,
                })
                .collect(),
            vec![],
        );
        HwSnapshot::new(
            Arc::new(layout),
            v,
            (0..32).map(|i| i * 11 + v).collect(),
            vec![],
        )
    }

    /// `base` with register `reg` set to `value`.
    fn moved(base: &HwSnapshot, reg: usize, value: u64) -> HwSnapshot {
        let mut s = base.clone();
        s.regs[reg] = value;
        s
    }

    /// The delta a target would emit for `snap` against `base`.
    fn diff(base: &Base, snap: &HwSnapshot) -> SnapshotDelta {
        SnapshotDelta::between(base.snap(), snap).unwrap()
    }

    #[test]
    fn insert_get_update_remove() {
        let store = SnapshotStore::new();
        let a = store.insert(snap(1));
        let b = store.insert(snap(2));
        assert_ne!(a, b);
        assert_eq!(store.get(a).unwrap().reg("r0"), Some(1));
        store.update(a, snap(9));
        assert_eq!(store.get(a).unwrap().reg("r0"), Some(9));
        assert_eq!(store.len(), 2);
        assert!(store.remove(b));
        assert!(!store.remove(b), "already gone");
        assert_eq!(store.len(), 1);
        assert!(store.get(b).is_none());
        assert_eq!(store.try_get(999), Err(SnapshotError::Missing(999)));
    }

    #[test]
    fn delta_entries_resolve_and_save_space() {
        let store = SnapshotStore::new();
        let base_snap = snap(5);
        let base = Base::new(&store, Arc::new(base_snap.clone()));
        let bytes_after_base = store.total_bytes();
        assert_eq!(
            bytes_after_base,
            base_snap.byte_size(),
            "a base is resident"
        );
        let child_snap = moved(&base_snap, 7, 0xfeed);
        let child = store.insert_delta(base.clone(), diff(&base, &child_snap));
        assert_eq!(*store.get(child).unwrap(), child_snap);
        assert!(
            store.total_bytes() - bytes_after_base < base_snap.byte_size() / 4,
            "delta must be small"
        );
    }

    #[test]
    fn base_freed_with_last_dependent() {
        let store = SnapshotStore::new();
        let base_snap = snap(5);
        let base = Base::new(&store, Arc::new(base_snap.clone()));
        let c1 = store.insert_delta(base.clone(), diff(&base, &base_snap));
        let c2 = store.insert_delta(base.clone(), diff(&base, &base_snap));
        drop(base);
        assert_eq!(store.len(), 2, "a base is not an entry");
        store.remove(c1);
        assert!(
            store.total_bytes() > base_snap.byte_size(),
            "base still held by c2"
        );
        assert_eq!(*store.get(c2).unwrap(), base_snap);
        store.remove(c2);
        assert_eq!(store.len(), 0);
        assert_eq!(store.total_bytes(), 0, "base freed with last dependent");
    }

    #[test]
    fn byte_accounting_and_peak() {
        let store = SnapshotStore::new();
        let a = store.insert(snap(1));
        let peak1 = store.peak_bytes();
        assert!(peak1 > 0);
        store.remove(a);
        assert_eq!(store.total_bytes(), 0);
        assert_eq!(store.peak_bytes(), peak1, "peak is a high-water mark");
        assert!(store.is_empty());
    }

    #[test]
    fn store_stats_track_activity() {
        let store = SnapshotStore::new();
        let a = store.insert(snap(1));
        assert!(store.get(a).is_some());
        assert!(store.get(999).is_none());
        let base = Base::new(&store, Arc::new(snap(2)));
        let c = store.insert_delta(base.clone(), diff(&base, &moved(&snap(2), 0, 77)));
        store.remove(c);
        store.remove(a);
        let s = store.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 2, "c and a evicted via remove()");
    }

    #[test]
    fn clones_share_the_store() {
        let store = SnapshotStore::new();
        let other = store.clone();
        let id = store.insert(snap(7));
        assert_eq!(other.get(id).unwrap().cycle, 7);
    }

    #[test]
    fn concurrent_workers_hammering_the_store_stay_consistent() {
        use hardsnap_util::sync::scope;
        let store = SnapshotStore::new();
        let base = Base::new(&store, Arc::new(snap(0)));
        scope(|s| {
            for w in 0..4u64 {
                let (store, base) = (store.clone(), base.clone());
                s.spawn(move || {
                    for i in 0..50u64 {
                        let img = moved(&snap(0), (w as usize) % 32, i);
                        let id = store.insert_delta(base.clone(), diff(&base, &img));
                        assert_eq!(*store.get(id).unwrap(), img);
                        store.update(id, snap(w * 100 + i));
                        assert_eq!(store.get(id).unwrap().cycle, w * 100 + i);
                        store.remove(id);
                    }
                });
            }
        });
        drop(base);
        assert!(store.is_empty());
        assert_eq!(store.total_bytes(), 0, "the base went with its last handle");
    }

    /// The spool file holding spilled entry `id`.
    fn spool_file(spool: &Path, id: SnapId) -> PathBuf {
        let prefix = format!("snap-{id}-");
        std::fs::read_dir(spool)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&prefix))
            })
            .expect("entry spilled")
    }

    fn test_spool(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hardsnap-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn budget_spills_lru_and_pages_back_in() {
        let spool = test_spool("spill-basic");
        let store = SnapshotStore::new();
        store.set_spool_dir(&spool);
        let one = snap(0).byte_size();
        // Room for ~3 images; insert 6.
        store.set_mem_budget(Some(3 * one + one / 2));
        let ids: Vec<_> = (0..6).map(|v| store.insert(snap(v))).collect();
        assert!(
            store.peak_bytes() <= 3 * one + one / 2,
            "resident peak {} must stay under the budget",
            store.peak_bytes()
        );
        let s = store.stats();
        assert!(s.spills >= 3, "expected spills, got {s:?}");
        // Every snapshot still resolves bit-exactly, paging in on demand.
        for (v, &id) in ids.iter().enumerate() {
            assert_eq!(*store.try_get(id).unwrap(), snap(v as u64));
        }
        assert!(store.stats().page_ins >= 3);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn bases_never_spill_under_pressure() {
        let spool = test_spool("spill-pinned");
        let store = SnapshotStore::new();
        store.set_spool_dir(&spool);
        let base_snap = snap(1);
        let base = Base::new(&store, Arc::new(base_snap.clone()));
        let child_snap = moved(&base_snap, 0, 0xAA);
        let child = store.insert_delta(base.clone(), diff(&base, &child_snap));
        drop(base);
        // Budget far below one image: every entry spills, but the base
        // the spilled delta holds stays resident.
        store.set_mem_budget(Some(64));
        for v in 10..16 {
            store.insert(snap(v));
        }
        assert!(store.stats().spills >= 6);
        assert!(
            store.total_bytes() >= base_snap.byte_size(),
            "base resident"
        );
        assert_eq!(*store.try_get(child).unwrap(), child_snap);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn delta_entries_spill_and_page_in_against_their_base() {
        let spool = test_spool("spill-delta");
        let store = SnapshotStore::new();
        store.set_spool_dir(&spool);
        let base_snap = snap(1);
        let base = Base::new(&store, Arc::new(base_snap.clone()));
        let child_snap = moved(&base_snap, 3, 0x77);
        let child = store.insert_delta(base.clone(), diff(&base, &child_snap));
        // Make the delta cold, then pressure the budget so it spills.
        store.set_mem_budget(Some(base_snap.byte_size() + 64));
        let hot = store.insert(snap(9));
        assert_eq!(*store.get(hot).unwrap(), snap(9));
        let s = store.stats();
        assert!(s.spills >= 1, "delta should have spilled: {s:?}");
        // Paged back in, the delta still applies to its base.
        assert_eq!(*store.try_get(child).unwrap(), child_snap);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn a_spool_file_against_another_base_is_a_typed_error() {
        let spool = test_spool("spill-rebased");
        let store = SnapshotStore::new();
        store.set_spool_dir(&spool);
        let base = Base::new(&store, Arc::new(snap(1)));
        let child_snap = moved(&snap(1), 3, 0x77);
        let delta = diff(&base, &child_snap);
        let child = store.insert_delta(base.clone(), delta.clone());
        store.set_mem_budget(Some(snap(1).byte_size()));
        store.insert(snap(9));
        // A well-formed file of the same delta, pinned to another base.
        std::fs::write(
            spool_file(&spool, child),
            write_delta(&snap(2), &delta, "entry"),
        )
        .unwrap();
        match store.try_get(child) {
            Err(SnapshotError::Spill { id, .. }) => assert_eq!(id, child),
            other => panic!("expected Spill error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn spill_io_failure_is_soft_never_a_panic() {
        // Point the spool at a path that cannot be a directory.
        let blocker = std::env::temp_dir().join(format!(
            "hardsnap-test-spool-blocker-{}",
            std::process::id()
        ));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let store = SnapshotStore::new();
        store.set_spool_dir(&blocker.join("sub"));
        store.set_mem_budget(Some(64));
        let ids: Vec<_> = (0..4).map(|v| store.insert(snap(v))).collect();
        // Nothing spilled (I/O fails), but the store still works and
        // the failures are counted, not panicked.
        for (v, &id) in ids.iter().enumerate() {
            assert_eq!(*store.try_get(id).unwrap(), snap(v as u64));
        }
        assert!(store.stats().spill_fails > 0);
        assert_eq!(store.stats().spills, 0);
        let _ = std::fs::remove_file(&blocker);
    }

    /// Under a one-byte budget every page-in re-spills another entry, so
    /// concurrent readers keep spilling and paging the same ids. Each
    /// spill must own its spool file: with one file name per id, a
    /// page-in unlinking the file it read could delete the file a
    /// concurrent re-spill had just written, stranding the entry.
    #[test]
    fn concurrent_spill_and_page_in_never_strand_an_entry() {
        let spool = test_spool("spill-race");
        let store = SnapshotStore::new();
        store.set_spool_dir(&spool);
        store.set_mem_budget(Some(1));
        let ids: Vec<SnapId> = (0..4).map(|v| store.insert(snap(v))).collect();
        hardsnap_util::sync::scope(|s| {
            for t in 0..4u64 {
                let (store, ids) = (&store, &ids);
                s.spawn(move || {
                    for i in 0..400u64 {
                        let v = ((i + t) % 4) as usize;
                        assert_eq!(*store.try_get(ids[v]).unwrap(), snap(v as u64));
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn corrupted_spool_file_is_a_typed_error() {
        let spool = test_spool("spill-corrupt");
        let store = SnapshotStore::new();
        store.set_spool_dir(&spool);
        store.set_mem_budget(Some(snap(0).byte_size() + 64));
        let cold = store.insert(snap(1));
        let _hot = store.insert(snap(2)); // forces `cold` out
        assert!(store.stats().spills >= 1);
        // Corrupt the spilled file on disk.
        let path = spool_file(&spool, cold);
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x20;
        std::fs::write(&path, &data).unwrap();
        match store.try_get(cold) {
            Err(SnapshotError::Spill { id, .. }) => assert_eq!(id, cold),
            other => panic!("expected Spill error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn removing_a_spilled_entry_cleans_its_spool_file() {
        let spool = test_spool("spill-remove");
        let store = SnapshotStore::new();
        store.set_spool_dir(&spool);
        store.set_mem_budget(Some(snap(0).byte_size() + 64));
        let cold = store.insert(snap(1));
        let _hot = store.insert(snap(2));
        let path = spool_file(&spool, cold);
        assert!(path.exists(), "cold entry should be on disk");
        // remove() deletes without reading the entry back: nothing is
        // paged in, and the spool file goes with the entry.
        assert!(store.remove(cold));
        assert_eq!(store.stats().page_ins, 0, "remove must not page in");
        assert!(!path.exists(), "spool file cleaned up");
        assert!(store.get(cold).is_none());
        let _ = std::fs::remove_dir_all(&spool);
    }

    /// Resident bytes recomputed from the entries: resident entries plus
    /// each distinct base an entry holds.
    fn recount(store: &SnapshotStore) -> usize {
        let mut bases: HashMap<*const Base, usize> = HashMap::new();
        let mut bytes = 0;
        for shard in store.inner.shards.iter() {
            for s in shard.read().entries.values() {
                bytes += s.entry.byte_size();
                if let Entry::Delta { base, .. } | Entry::SpilledDelta { base, .. } = &s.entry {
                    bases.insert(Arc::as_ptr(base), base.snap.byte_size());
                }
            }
        }
        bytes + bases.values().sum::<usize>()
    }

    /// Random interleavings of every entry point under a budget that
    /// holds about one full image, against a map model: lookups always
    /// match the model, the byte count always matches the entries and
    /// the bases they hold, and removing everything leaves no byte and
    /// no spool file behind.
    #[test]
    fn store_matches_a_map_model_under_a_tiny_budget() {
        use hardsnap_util::prop::vec_of;
        use hardsnap_util::prop_check;
        prop_check!(cases = 24, seed = 0x5709_E0DE_1B0A, (ops in vec_of((0u8..5, 0usize..32, 0u64..3), 1..40)) => {
            let spool = test_spool("model");
            let store = SnapshotStore::new();
            store.set_spool_dir(&spool);
            let one = snap(0).byte_size();
            store.set_mem_budget(Some(one + one / 2));
            let mut model: HashMap<SnapId, HwSnapshot> = HashMap::new();
            let mut ids: Vec<SnapId> = Vec::new();
            // Base handles are held only by entries, as the engine's
            // anchors hold them; a dead one is registered afresh.
            let mut anchors: [Weak<Base>; 3] = Default::default();
            for (k, &(op, reg, which)) in ops.iter().enumerate() {
                let value = k as u64 * 7 + 1;
                let target = (!ids.is_empty()).then(|| ids[reg % ids.len()]);
                let mut delta_of = |which: u64| {
                    let slot = which as usize;
                    let base = anchors[slot].upgrade().unwrap_or_else(|| {
                        let b = Base::new(&store, Arc::new(snap(100 * (which + 1))));
                        anchors[slot] = Arc::downgrade(&b);
                        b
                    });
                    let img = moved(base.snap(), reg, value);
                    let delta = diff(&base, &img);
                    (base, delta, img)
                };
                match (op, target) {
                    (0, _) | (2, None) => {
                        let id = store.insert(snap(value));
                        model.insert(id, snap(value));
                        ids.push(id);
                    }
                    (1, _) | (3, None) => {
                        let (base, delta, img) = delta_of(which);
                        let id = store.insert_delta(base, delta);
                        model.insert(id, img);
                        ids.push(id);
                    }
                    (2, Some(id)) => {
                        store.update(id, snap(value));
                        model.insert(id, snap(value));
                    }
                    (3, Some(id)) => {
                        let (base, delta, img) = delta_of(which);
                        store.update_delta(id, base, delta);
                        model.insert(id, img);
                    }
                    (_, Some(id)) => {
                        assert!(store.remove(id));
                        model.remove(&id);
                        ids.retain(|&i| i != id);
                        assert!(!store.remove(id), "removed twice");
                    }
                    (_, None) => assert!(!store.remove(0)),
                }
                assert_eq!(store.len(), model.len());
                for (&id, want) in &model {
                    assert_eq!(*store.try_get(id).unwrap(), *want, "snapshot {id} after op {k}");
                }
                assert_eq!(store.total_bytes(), recount(&store), "after op {k}");
            }
            for id in ids {
                assert!(store.remove(id));
            }
            assert!(store.is_empty());
            assert_eq!(store.total_bytes(), 0);
            let left = std::fs::read_dir(&spool).map_or(0, |d| d.count());
            assert_eq!(left, 0, "spool files left behind");
            let _ = std::fs::remove_dir_all(&spool);
        });
    }
}
