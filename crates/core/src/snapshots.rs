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
//! * **delta** images — a [`SnapshotDelta`] against an immutable base
//!   image. Fork-heavy analyses produce many snapshots that differ from
//!   their fork point by a handful of registers, so delta storage cuts
//!   the controller's memory footprint dramatically (measured by the
//!   `exp_ablation` harness).
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
//! water mark while the id space and delta-chain semantics stay exactly
//! as if everything were in RAM. Entries that are refcounted as delta
//! bases (or hidden bases) are never spill candidates, so a base can
//! never leave RAM out from under a delta mid-operation; spill/page I/O
//! failures are typed [`SnapshotError`]s (or soft-fail the spill,
//! leaving the entry resident), never panics.
//!
//! ## Concurrency
//!
//! The store is **lock-sharded**: ids map to `id % N` shards, each
//! behind its own `RwLock`, so the N workers of the engine do
//! not serialize on one store-wide lock. No operation ever holds two
//! shard guards at once — delta chains are walked one locked hop at a
//! time, and spilling serializes the victim *outside* any lock and
//! re-checks (via a per-entry generation counter) before swapping —
//! which keeps the sharding deadlock-free by construction. Id
//! allocation and byte accounting are lock-free atomics; budget
//! admission serializes on one small gate mutex that is never held
//! across I/O or another lock.
//!
//! ## Pinning
//!
//! Delta bases are refcounted. [`SnapshotStore::remove`] on a base that
//! live deltas still reference is *deferred*: the entry is marked
//! hidden and reclaimed when the last dependent goes away, so normal
//! operation can never break a delta chain. The unconditional
//! [`SnapshotStore::purge`] models external corruption/eviction and is
//! what makes the [`SnapshotError::MissingBase`] path testable.

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

/// Errors from snapshot lookup/reconstruction.
///
/// A delta entry is only usable while its base image is alive; pinning
/// prevents the store itself from evicting a referenced base, but a
/// [`SnapshotStore::purge`] (the external-corruption model) can still
/// break a chain, and lookups then report exactly which link is broken
/// instead of panicking. Spilled entries add an I/O failure mode: a
/// spool file that cannot be read back (or fails its checksums) is
/// reported as [`SnapshotError::Spill`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// No entry under this id.
    Missing(SnapId),
    /// A delta entry (somewhere along `id`'s chain) references a base
    /// that no longer exists.
    MissingBase {
        /// The id whose reconstruction failed.
        id: SnapId,
        /// The missing base id the chain references.
        base: SnapId,
    },
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
            SnapshotError::MissingBase { id, base } => {
                write!(f, "snapshot {id} is a delta against missing base {base}")
            }
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

#[derive(Debug)]
enum Entry {
    Full(Arc<HwSnapshot>),
    Delta {
        base: SnapId,
        delta: SnapshotDelta,
    },
    /// A full image spilled to the spool directory; `ram_bytes` is the
    /// resident size it returns to when paged back in.
    SpilledFull {
        path: PathBuf,
        ram_bytes: usize,
    },
    /// A delta spilled to the spool directory; keeps its base pinned
    /// (the pin taken at install time is not released by spilling).
    SpilledDelta {
        base: SnapId,
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

    fn pinned_base(&self) -> Option<SnapId> {
        match self {
            Entry::Delta { base, .. } | Entry::SpilledDelta { base, .. } => Some(*base),
            _ => None,
        }
    }

    fn spill_path(&self) -> Option<&PathBuf> {
        match self {
            Entry::SpilledFull { path, .. } | Entry::SpilledDelta { path, .. } => Some(path),
            _ => None,
        }
    }
}

/// Resident payload handed back by [`SnapshotStore::page_in`]. Callers
/// consume this copy directly instead of re-reading the shard map:
/// under a tight memory budget a concurrent `reserve` can spill the
/// entry again the instant it lands, and a read-back retry loop then
/// livelocks with two threads ping-ponging each other's page-ins.
enum Paged {
    Full(Arc<HwSnapshot>),
    Delta { base: SnapId, delta: SnapshotDelta },
}

#[derive(Debug)]
struct Stored {
    entry: Entry,
    /// Live delta entries referencing this id as their base (pin count).
    refs: usize,
    /// Kept alive only by `refs` (no direct owner): either registered
    /// via [`SnapshotStore::insert_base`], or a deferred
    /// [`SnapshotStore::remove`].
    hidden: bool,
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
    deferred: AtomicU64,
    spills: AtomicU64,
    page_ins: AtomicU64,
    spill_fails: AtomicU64,
}

/// The stored representation of one snapshot, as handed to a
/// serializer: either a self-contained full image or a delta plus the id
/// of the base it applies to. Campaign checkpointing uses this to write
/// delta chains to disk *as chains* instead of flattening every entry
/// to a full image.
#[derive(Clone, Debug)]
pub enum PersistEntry {
    /// Self-contained image.
    Full(Arc<HwSnapshot>),
    /// Delta against the store entry `base`.
    Delta {
        /// Store id of the base image the delta applies to.
        base: SnapId,
        /// The delta itself.
        delta: SnapshotDelta,
    },
}

/// Point-in-time copy of the store's activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that produced a snapshot.
    pub hits: u64,
    /// Lookups that failed (missing id or broken delta chain).
    pub misses: u64,
    /// Entries actually reclaimed by `remove`/`purge`.
    pub evictions: u64,
    /// `remove` calls deferred because live deltas pin the entry.
    pub deferred: u64,
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
    bytes: WatermarkCounter,
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
                bytes: WatermarkCounter::new(),
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
    /// long as enough unpinned entries exist to spill.
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

    /// Picks and spills the least-recently-used cold entry. Returns
    /// false when no eligible victim exists (everything resident is
    /// pinned, hidden, or already spilled).
    fn spill_one(&self) -> bool {
        let mut best: Option<(u64, SnapId)> = None;
        for shard in self.inner.shards.iter() {
            let g = shard.read();
            for (&id, s) in &g.entries {
                if s.refs == 0 && !s.hidden && s.entry.byte_size() > 0 {
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
        enum Payload {
            Full(Arc<HwSnapshot>),
            Delta(SnapId, SnapshotDelta),
        }
        let (generation, payload) = {
            let shard = self.inner.shards.shard_for(id);
            let g = shard.read();
            let Some(s) = g.entries.get(&id) else {
                return false;
            };
            if s.refs != 0 || s.hidden {
                return false;
            }
            match &s.entry {
                Entry::Full(snap) => (s.generation, Payload::Full(snap.clone())),
                Entry::Delta { base, delta } => {
                    (s.generation, Payload::Delta(*base, delta.clone()))
                }
                _ => return false,
            }
        };
        let image = match &payload {
            Payload::Full(snap) => write_full(snap),
            Payload::Delta(base, delta) => match self.try_resolve(*base) {
                Ok(base_snap) => write_delta(&base_snap, delta, &format!("snap:{base}")),
                Err(_) => return false,
            },
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
            if s.generation != generation || s.refs != 0 || s.hidden || sz == 0 {
                // Lost a race (update, page-in, or a concurrent spill of
                // the same id): the file is ours alone, so drop it.
                drop(g);
                let _ = std::fs::remove_file(&path);
                return false;
            }
            s.entry = match payload {
                Payload::Full(_) => Entry::SpilledFull {
                    path,
                    ram_bytes: sz,
                },
                Payload::Delta(base, _) => Entry::SpilledDelta {
                    base,
                    path,
                    ram_bytes: sz,
                },
            };
            sz
        };
        self.inner.bytes.sub(freed);
        self.inner.counters.spills.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Pages a spilled entry back into RAM, verifying the spool file's
    /// checksums along the way, and returns the resident payload. The
    /// returned copy stays valid even if budget pressure immediately
    /// spills the entry again — callers must use it rather than
    /// re-reading the map (see [`Paged`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Spill`] on I/O or integrity failure (the entry
    /// stays spilled), [`SnapshotError::Missing`] if it raced removal.
    fn page_in(&self, id: SnapId) -> Result<Paged, SnapshotError> {
        let (path, ram_bytes) = {
            let shard = self.inner.shards.shard_for(id);
            let g = shard.read();
            match g.entries.get(&id) {
                None => return Err(SnapshotError::Missing(id)),
                Some(s) => match &s.entry {
                    Entry::SpilledFull { path, ram_bytes }
                    | Entry::SpilledDelta {
                        path, ram_bytes, ..
                    } => (path.clone(), *ram_bytes),
                    // Raced: another thread already paged it in.
                    Entry::Full(snap) => return Ok(Paged::Full(snap.clone())),
                    Entry::Delta { base, delta } => {
                        return Ok(Paged::Delta {
                            base: *base,
                            delta: delta.clone(),
                        })
                    }
                },
            }
        };
        self.reserve(ram_bytes);
        let spill_err = |detail: String| SnapshotError::Spill { id, detail };
        let loaded = std::fs::read(&path)
            .map_err(|e| spill_err(format!("read '{}': {e}", path.display())))
            .and_then(|data| {
                PersistedImage::from_bytes(&data).map_err(|e| spill_err(e.to_string()))
            })
            .and_then(|img| match img {
                PersistedImage::Full(snap) => Ok(Entry::Full(Arc::new(snap))),
                PersistedImage::Delta {
                    base_ref, delta, ..
                } => base_ref
                    .strip_prefix("snap:")
                    .and_then(|s| s.parse::<SnapId>().ok())
                    .map(|base| Entry::Delta { base, delta })
                    .ok_or_else(|| spill_err(format!("bad base reference '{base_ref}'"))),
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
                match g.entries.get(&id).map(|s| &s.entry) {
                    Some(Entry::Full(snap)) => return Ok(Paged::Full(snap.clone())),
                    Some(Entry::Delta { base, delta }) => {
                        return Ok(Paged::Delta {
                            base: *base,
                            delta: delta.clone(),
                        })
                    }
                    Some(entry) if entry.spill_path().is_some_and(|p| *p != path) => {
                        drop(g);
                        return self.page_in(id);
                    }
                    _ => return Err(e),
                }
            }
        };
        let paged = match &entry {
            Entry::Full(snap) => Paged::Full(snap.clone()),
            Entry::Delta { base, delta } => Paged::Delta {
                base: *base,
                delta: delta.clone(),
            },
            _ => unreachable!("spool files only persist full or delta images"),
        };
        let actual = entry.byte_size();
        let swapped = {
            let shard = self.inner.shards.shard_for(id);
            let mut g = shard.write();
            match g.entries.get_mut(&id) {
                None => false,
                Some(s) => match &s.entry {
                    Entry::SpilledFull { .. } | Entry::SpilledDelta { .. } => {
                        s.entry = entry;
                        s.touch.store(self.tick(), Ordering::Relaxed);
                        true
                    }
                    _ => false,
                },
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

    fn install(&self, id: SnapId, entry: Entry, hidden: bool) {
        let sz = entry.byte_size();
        self.reserve(sz);
        self.inner.shards.shard_for(id).write().entries.insert(
            id,
            Stored {
                entry,
                refs: 0,
                hidden,
                touch: AtomicU64::new(self.tick()),
                generation: 0,
            },
        );
    }

    /// Resolves `id` by walking its delta chain, locking one shard at a
    /// time (never two at once); spilled links page back in on the way.
    /// A full entry comes back as its shared image, uncloned.
    fn try_resolve(&self, id: SnapId) -> Result<Arc<HwSnapshot>, SnapshotError> {
        let mut chain: Vec<(SnapId, SnapshotDelta)> = Vec::new();
        let mut cur = id;
        let base_snap = loop {
            let shard = self.inner.shards.shard_for(cur);
            let g = shard.read();
            match g.entries.get(&cur) {
                None => {
                    return Err(match chain.last() {
                        None => SnapshotError::Missing(id),
                        Some(&(broken, _)) => SnapshotError::MissingBase {
                            id: broken,
                            base: cur,
                        },
                    });
                }
                Some(stored) => {
                    stored.touch.store(self.tick(), Ordering::Relaxed);
                    match &stored.entry {
                        Entry::Full(s) => break s.clone(),
                        Entry::Delta { base, delta } => {
                            let b = *base;
                            chain.push((cur, delta.clone()));
                            drop(g);
                            cur = b;
                        }
                        Entry::SpilledFull { .. } | Entry::SpilledDelta { .. } => {
                            drop(g);
                            // Use the paged-in payload directly: budget
                            // pressure may spill `cur` again before a
                            // re-read, and retrying would livelock.
                            match self.page_in(cur)? {
                                Paged::Full(s) => break s,
                                Paged::Delta { base, delta } => {
                                    chain.push((cur, delta));
                                    cur = base;
                                }
                            }
                        }
                    }
                }
            }
        };
        let mut snap = base_snap;
        for (eid, delta) in chain.iter().rev() {
            snap = Arc::new(
                delta
                    .apply(&snap)
                    .map_err(|_| SnapshotError::Corrupt { id: *eid })?,
            );
        }
        Ok(snap)
    }

    /// Increments the pin count of `base`; false if `base` is gone.
    fn pin_base(&self, base: SnapId) -> bool {
        let shard = self.inner.shards.shard_for(base);
        let mut g = shard.write();
        match g.entries.get_mut(&base) {
            Some(stored) => {
                stored.refs += 1;
                true
            }
            None => false,
        }
    }

    /// Decrements the pin count of `base`, reclaiming hidden entries
    /// whose last dependent went away (iterating down chains).
    fn release_base(&self, mut base: SnapId) {
        loop {
            let shard = self.inner.shards.shard_for(base);
            let mut g = shard.write();
            let Some(stored) = g.entries.get_mut(&base) else {
                return;
            };
            stored.refs = stored.refs.saturating_sub(1);
            if stored.refs == 0 && stored.hidden {
                if let Some(stored) = g.entries.remove(&base) {
                    drop(g);
                    self.discard(&stored);
                    if let Some(next) = stored.entry.pinned_base() {
                        base = next;
                        continue;
                    }
                }
            }
            return;
        }
    }

    /// Accounting + spool cleanup for an entry detached from the map.
    fn discard(&self, stored: &Stored) {
        self.inner.bytes.sub(stored.entry.byte_size());
        if let Some(path) = stored.entry.spill_path() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Stores a full snapshot under a fresh id.
    pub fn insert(&self, snap: impl Into<Arc<HwSnapshot>>) -> SnapId {
        let id = self.alloc_id();
        self.install(id, Entry::Full(snap.into()), false);
        id
    }

    /// Stores `snap` as a delta against the (immutable) snapshot under
    /// `base`; falls back to full storage if the delta would not save
    /// space or the shapes differ. Pins `base` so it outlives its
    /// dependents.
    pub fn insert_delta(&self, base: SnapId, snap: impl Into<Arc<HwSnapshot>>) -> SnapId {
        let snap = snap.into();
        let id = self.alloc_id();
        let delta = self
            .try_resolve(base)
            .ok()
            .and_then(|b| SnapshotDelta::between(&b, &snap).ok())
            .filter(|d| d.byte_size() < snap.byte_size());
        let entry = match delta {
            // Pin before installing the dependent: a concurrent remove
            // of `base` then defers instead of breaking the chain.
            Some(delta) if self.pin_base(base) => Entry::Delta { base, delta },
            _ => Entry::Full(snap),
        };
        self.install(id, entry, false);
        id
    }

    /// Stores a delta the target emitted natively (already expressed
    /// against the snapshot under `base`) — no O(design) re-diff, the
    /// store cost is O(delta). Pins `base`; `None` if `base` is gone
    /// (the caller must fall back to materializing a full image).
    pub fn insert_delta_native(&self, base: SnapId, delta: SnapshotDelta) -> Option<SnapId> {
        if !self.pin_base(base) {
            return None;
        }
        let id = self.alloc_id();
        self.install(id, Entry::Delta { base, delta }, false);
        Some(id)
    }

    /// Overwrites the snapshot under `id` with a natively-emitted delta
    /// against `base` — the O(delta) counterpart of
    /// [`SnapshotStore::update`]. Pins the new base and releases the
    /// entry's previous base (if its old representation was a delta);
    /// false if `base` is gone and the caller must fall back.
    pub fn update_delta_native(&self, id: SnapId, base: SnapId, delta: SnapshotDelta) -> bool {
        if !self.pin_base(base) {
            return false;
        }
        let new_entry = Entry::Delta { base, delta };
        let new_sz = new_entry.byte_size();
        self.reserve(new_sz);
        let (old_sz, released, stale_file) = {
            let mut g = self.inner.shards.shard_for(id).write();
            match g.entries.get_mut(&id) {
                Some(stored) => {
                    let old = stored.entry.byte_size();
                    // The old representation's pin is dropped after the
                    // new pin is in place, so a same-base update nets
                    // out to one held pin.
                    let released = stored.entry.pinned_base();
                    let stale = stored.entry.spill_path().cloned();
                    stored.entry = new_entry;
                    stored.generation += 1;
                    stored.touch.store(self.tick(), Ordering::Relaxed);
                    (old, released, stale)
                }
                None => {
                    g.entries.insert(
                        id,
                        Stored {
                            entry: new_entry,
                            refs: 0,
                            hidden: false,
                            touch: AtomicU64::new(self.tick()),
                            generation: 0,
                        },
                    );
                    (0, None, None)
                }
            }
        };
        self.inner.bytes.sub(old_sz);
        if let Some(path) = stale_file {
            let _ = std::fs::remove_file(path);
        }
        if let Some(b) = released {
            self.release_base(b);
        }
        true
    }

    /// Registers a snapshot that exists only to serve as a delta base
    /// (freed automatically when the last dependent goes away).
    pub fn insert_base(&self, snap: impl Into<Arc<HwSnapshot>>) -> SnapId {
        let id = self.alloc_id();
        self.install(id, Entry::Full(snap.into()), true);
        id
    }

    /// Size a delta of `snap` against the snapshot under `base` would
    /// take, or `None` when the shapes are incompatible. Lets callers
    /// decide whether an existing base is still a good anchor.
    pub fn delta_size_vs(&self, base: SnapId, snap: &HwSnapshot) -> Option<usize> {
        let b = self.try_resolve(base).ok()?;
        SnapshotDelta::between(&b, snap).ok().map(|d| d.byte_size())
    }

    /// Overwrites the snapshot under `id` (the paper's `UpdateState`),
    /// preserving the entry's representation (delta entries stay deltas
    /// against their base) and keeping the pin count intact.
    pub fn update(&self, id: SnapId, snap: impl Into<Arc<HwSnapshot>>) {
        let snap = snap.into();
        let repr_base = {
            let g = self.inner.shards.shard_for(id).read();
            g.entries.get(&id).and_then(|s| s.entry.pinned_base())
        };
        let (new_entry, released_base) = match repr_base {
            Some(base) => {
                let delta = self
                    .try_resolve(base)
                    .ok()
                    .and_then(|b| SnapshotDelta::between(&b, &snap).ok())
                    .filter(|d| d.byte_size() < snap.byte_size());
                match delta {
                    Some(delta) => (Entry::Delta { base, delta }, None),
                    None => (Entry::Full(snap), Some(base)),
                }
            }
            None => (Entry::Full(snap), None),
        };
        let new_sz = new_entry.byte_size();
        self.reserve(new_sz);
        let (old_sz, stale_file) = {
            let mut g = self.inner.shards.shard_for(id).write();
            match g.entries.get_mut(&id) {
                Some(stored) => {
                    let old = stored.entry.byte_size();
                    let stale = stored.entry.spill_path().cloned();
                    stored.entry = new_entry;
                    stored.generation += 1;
                    stored.touch.store(self.tick(), Ordering::Relaxed);
                    (old, stale)
                }
                None => {
                    g.entries.insert(
                        id,
                        Stored {
                            entry: new_entry,
                            refs: 0,
                            hidden: false,
                            touch: AtomicU64::new(self.tick()),
                            generation: 0,
                        },
                    );
                    (0, None)
                }
            }
        };
        self.inner.bytes.sub(old_sz);
        if let Some(path) = stale_file {
            let _ = std::fs::remove_file(path);
        }
        if let Some(base) = released_base {
            self.release_base(base);
        }
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

    /// Fetches a snapshot by id (reconstructing deltas and paging in
    /// spilled entries transparently). A full entry is returned as the
    /// stored image itself, shared.
    pub fn get(&self, id: SnapId) -> Option<Arc<HwSnapshot>> {
        let got = self.try_resolve(id).ok();
        self.note_lookup(got.is_some());
        got
    }

    /// Like [`SnapshotStore::get`], but reports *why* a snapshot cannot
    /// be produced: missing id, delta chain with an evicted base, a
    /// delta that no longer applies, or a spool page-in failure.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] naming the broken link of the chain.
    pub fn try_get(&self, id: SnapId) -> Result<Arc<HwSnapshot>, SnapshotError> {
        let got = self.try_resolve(id);
        self.note_lookup(got.is_ok());
        got
    }

    /// Drops a snapshot (state terminated); frees its delta base when it
    /// was the last dependent. Removal of an id that is itself a pinned
    /// delta base is **deferred**: the entry is hidden and reclaimed
    /// once its last dependent goes away, so the chain never breaks.
    /// Nothing is resolved or paged in: a spilled entry just loses its
    /// spool file. False when no entry exists under `id`.
    pub fn remove(&self, id: SnapId) -> bool {
        let freed_base = {
            let mut g = self.inner.shards.shard_for(id).write();
            let defer = match g.entries.get_mut(&id) {
                None => return false,
                Some(stored) if stored.refs > 0 => {
                    // Deferred: live deltas still need this image.
                    stored.hidden = true;
                    true
                }
                Some(_) => false,
            };
            if defer {
                drop(g);
                self.inner.counters.deferred.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            let Some(stored) = g.entries.remove(&id) else {
                return false;
            };
            drop(g);
            self.discard(&stored);
            self.inner
                .counters
                .evictions
                .fetch_add(1, Ordering::Relaxed);
            stored.entry.pinned_base()
        };
        if let Some(base) = freed_base {
            self.release_base(base);
        }
        true
    }

    /// Unconditionally deletes `id`, **ignoring pins** — dependents are
    /// left with a broken chain (subsequent lookups report
    /// [`SnapshotError::MissingBase`]). This models external eviction
    /// or corruption of the backing storage; analyses never call it.
    /// False when no entry exists under `id`.
    pub fn purge(&self, id: SnapId) -> bool {
        let freed_base = {
            let mut g = self.inner.shards.shard_for(id).write();
            let Some(stored) = g.entries.remove(&id) else {
                return false;
            };
            drop(g);
            self.discard(&stored);
            self.inner
                .counters
                .evictions
                .fetch_add(1, Ordering::Relaxed);
            stored.entry.pinned_base()
        };
        if let Some(base) = freed_base {
            self.release_base(base);
        }
        true
    }

    /// Number of live entries (including hidden bases and spilled
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

    /// Current *resident* bytes of stored images (full + delta
    /// representations; spilled entries cost nothing here).
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
    /// flattened image, so an on-disk campaign preserves the chain.
    /// Spilled entries are paged back in first.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Missing`] for an unknown id,
    /// [`SnapshotError::Spill`] if a spilled entry cannot be paged in.
    pub fn export_entry(&self, id: SnapId) -> Result<PersistEntry, SnapshotError> {
        {
            let shard = self.inner.shards.shard_for(id);
            let g = shard.read();
            match g.entries.get(&id) {
                None => return Err(SnapshotError::Missing(id)),
                Some(stored) => {
                    stored.touch.store(self.tick(), Ordering::Relaxed);
                    match &stored.entry {
                        Entry::Full(s) => return Ok(PersistEntry::Full(s.clone())),
                        Entry::Delta { base, delta } => {
                            return Ok(PersistEntry::Delta {
                                base: *base,
                                delta: delta.clone(),
                            })
                        }
                        Entry::SpilledFull { .. } | Entry::SpilledDelta { .. } => {}
                    }
                }
            }
        }
        // Spilled: page it back in and export the returned payload
        // directly — a map re-read could livelock under a tight budget
        // if a concurrent reserve spills the entry straight back out.
        match self.page_in(id)? {
            Paged::Full(s) => Ok(PersistEntry::Full(s)),
            Paged::Delta { base, delta } => Ok(PersistEntry::Delta { base, delta }),
        }
    }

    /// Point-in-time copy of the store's activity counters.
    pub fn stats(&self) -> StoreStats {
        let c = &self.inner.counters;
        StoreStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            deferred: c.deferred.load(Ordering::Relaxed),
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
    }

    #[test]
    fn delta_entries_resolve_and_save_space() {
        let store = SnapshotStore::new();
        let base_snap = snap(5);
        let base = store.insert_base(base_snap.clone());
        let bytes_after_base = store.total_bytes();
        // A snapshot differing in one register.
        let mut child_snap = base_snap.clone();
        child_snap.regs[7] = 0xfeed;
        let child = store.insert_delta(base, child_snap.clone());
        assert_eq!(*store.get(child).unwrap(), child_snap);
        assert!(
            store.total_bytes() - bytes_after_base < base_snap.byte_size() / 4,
            "delta must be small"
        );
    }

    #[test]
    fn hidden_base_freed_with_last_dependent() {
        let store = SnapshotStore::new();
        let base_snap = snap(5);
        let base = store.insert_base(base_snap.clone());
        let c1 = store.insert_delta(base, base_snap.clone());
        let c2 = store.insert_delta(base, base_snap.clone());
        assert_eq!(store.len(), 3);
        store.remove(c1);
        assert_eq!(store.len(), 2, "base still referenced by c2");
        store.remove(c2);
        assert_eq!(store.len(), 0, "hidden base freed with last dependent");
        assert_eq!(store.total_bytes(), 0);
    }

    #[test]
    fn update_of_delta_entry_stays_compact() {
        let store = SnapshotStore::new();
        let base_snap = snap(5);
        let base = store.insert_base(base_snap.clone());
        let mut v1 = base_snap.clone();
        v1.regs[0] = 1;
        let id = store.insert_delta(base, v1);
        let mut v2 = base_snap.clone();
        v2.regs[1] = 2;
        v2.regs[2] = 3;
        store.update(id, v2.clone());
        assert_eq!(*store.get(id).unwrap(), v2);
        assert!(store.total_bytes() < 2 * base_snap.byte_size());
    }

    #[test]
    fn incompatible_delta_falls_back_to_full() {
        let store = SnapshotStore::new();
        let base = store.insert_base(snap(1));
        let mut other = snap(2);
        other.relabel("different");
        let id = store.insert_delta(base, other.clone());
        assert_eq!(*store.get(id).unwrap(), other);
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
        let b = store.insert(snap(2));
        let mut child = snap(2);
        child.regs[0] = 77;
        let c = store.insert_delta(b, child);
        store.remove(b); // deferred: c pins it
        store.remove(c); // evicts c, then reclaims hidden b
        store.remove(a);
        let s = store.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.deferred, 1);
        assert_eq!(s.evictions, 2, "c and a evicted via remove()");
    }

    #[test]
    fn remove_of_referenced_base_is_deferred_not_destructive() {
        // The pinning regression: a base with live dependents survives
        // "eviction pressure" (remove calls) until the last dependent
        // goes away — delta chains can never break via remove().
        let store = SnapshotStore::new();
        let base_snap = snap(5);
        let base = store.insert(base_snap.clone());
        let mut child_snap = base_snap.clone();
        child_snap.regs[3] = 0xBAD;
        let child = store.insert_delta(base, child_snap.clone());
        // Eviction pressure: repeated removes of the referenced base.
        for _ in 0..3 {
            store.remove(base);
        }
        assert_eq!(
            *store.try_get(child).unwrap(),
            child_snap,
            "pinned base survives, chain intact"
        );
        assert!(
            store.get(base).is_some(),
            "base image still resolvable while pinned"
        );
        // The base is reclaimed with its last dependent.
        store.remove(child);
        assert_eq!(store.len(), 0);
        assert_eq!(store.total_bytes(), 0);
    }

    #[test]
    fn delta_with_purged_base_is_an_error_not_a_panic() {
        let store = SnapshotStore::new();
        let base_snap = snap(5);
        let base = store.insert(base_snap.clone());
        let mut child_snap = base_snap.clone();
        child_snap.regs[3] = 0xBAD;
        let child = store.insert_delta(base, child_snap.clone());
        assert_eq!(*store.try_get(child).unwrap(), child_snap);
        // purge() bypasses pinning — the external-corruption model.
        store.purge(base);
        assert_eq!(store.get(child), None, "unrecoverable, but no panic");
        assert_eq!(
            store.try_get(child),
            Err(SnapshotError::MissingBase { id: child, base }),
        );
    }

    #[test]
    fn delta_chain_reports_first_broken_link() {
        let store = SnapshotStore::new();
        let s0 = snap(1);
        let a = store.insert(s0.clone());
        let mut s1 = s0.clone();
        s1.regs[0] = 11;
        let b = store.insert_delta(a, s1.clone());
        let mut s2 = s1.clone();
        s2.regs[1] = 22;
        let c = store.insert_delta(b, s2.clone());
        assert_eq!(*store.try_get(c).unwrap(), s2);
        store.purge(a);
        // c -> b (alive delta) -> a (gone): the broken link is b's base.
        assert_eq!(
            store.try_get(c),
            Err(SnapshotError::MissingBase { id: b, base: a }),
        );
        assert_eq!(store.try_get(999), Err(SnapshotError::Missing(999)));
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
        let base = store.insert_base(snap(0));
        scope(|s| {
            for w in 0..4u64 {
                let store = store.clone();
                s.spawn(move || {
                    for i in 0..50u64 {
                        let mut img = snap(0);
                        img.regs[(w as usize) % 32] = i;
                        let id = store.insert_delta(base, img.clone());
                        assert_eq!(*store.get(id).unwrap(), img);
                        store.update(id, snap(w * 100 + i));
                        assert_eq!(store.get(id).unwrap().cycle, w * 100 + i);
                        store.remove(id);
                    }
                });
            }
        });
        // All workers' entries cleaned up; only the hidden base remains
        // (it had no dependents left), or was already reclaimed.
        assert!(store.len() <= 1);
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
    fn pinned_bases_never_spill_under_pressure() {
        let spool = test_spool("spill-pinned");
        let store = SnapshotStore::new();
        store.set_spool_dir(&spool);
        let base_snap = snap(1);
        let base = store.insert_base(base_snap.clone());
        let mut child_snap = base_snap.clone();
        child_snap.regs[0] = 0xAA;
        let child = store.insert_delta(base, child_snap.clone());
        // Budget far below one image: everything eligible spills, but
        // the pinned base must stay resident and the chain intact.
        store.set_mem_budget(Some(64));
        for v in 10..16 {
            store.insert(snap(v));
        }
        assert_eq!(*store.try_get(child).unwrap(), child_snap);
        assert_eq!(*store.try_get(base).unwrap(), base_snap);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn delta_entries_spill_and_chain_survives_serialization() {
        let spool = test_spool("spill-delta");
        let store = SnapshotStore::new();
        store.set_spool_dir(&spool);
        let base_snap = snap(1);
        let base = store.insert_base(base_snap.clone());
        let mut child_snap = base_snap.clone();
        child_snap.regs[3] = 0x77;
        let child = store.insert_delta(base, child_snap.clone());
        // Make the delta cold, then pressure the budget so it spills.
        store.set_mem_budget(Some(base_snap.byte_size() + 64));
        let hot = store.insert(snap(9));
        assert_eq!(*store.get(hot).unwrap(), snap(9));
        let s = store.stats();
        assert!(s.spills >= 1, "delta should have spilled: {s:?}");
        // Paged back in, the delta still applies to its pinned base.
        assert_eq!(*store.try_get(child).unwrap(), child_snap);
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
}
