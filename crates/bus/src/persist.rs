//! The one on-disk codec: section-framed files with per-section and
//! whole-file checksums.
//!
//! Every durable HardSnap file is a file of this codec, told apart by
//! the kind byte in its header ([`ImageKind`]): a full snapshot image, a
//! delta image against a base, or a campaign checkpoint that nests
//! images as sections (its schema lives in `hardsnap::campaign`). The
//! spill tier, warm-pool baselines and `snapshot inspect|validate` all
//! read the same framing:
//!
//! ```text
//! "HSTLV01\0" | u16 version | u8 kind | u8 reserved | u32 n   (16-byte header)
//! n × { u32 tag | u32 index | u64 offset | u64 len |
//!       u64 payload checksum | u64 content hash }          (40 bytes each)
//! u64 checksum of header + table
//! payloads, in table order
//! u64 checksum of everything before it
//! ```
//!
//! * **magic + version header** so format evolution is detectable, never
//!   silently misparsed;
//! * **section framing** — an image has one section for the register
//!   file and one per memory region, in canonical (scan-chain) order,
//!   each carrying its own FNV-1a payload checksum *and* a content hash
//!   of just the values, so a lazy restore can decide "this section
//!   already matches the live state" from the 40-byte table entry alone;
//! * a **table checksum**, verified on [`SnapshotFile::open`], so a
//!   lazily opened file with a corrupt index fails before any payload is
//!   trusted;
//! * a **trailing whole-file checksum** so an eager load (or
//!   `snapshot validate --deep`) detects any single flipped byte anywhere
//!   in the file;
//! * a **META section first** in every file, naming the design (and, for
//!   an image, the state's identity), so `inspect` and the shape gates
//!   work on any file;
//! * **deterministic encoding**: the same content always gives the same
//!   bytes.
//!
//! A delta image names its base by an opaque reference string and pins
//! the base's shape/content hashes, so applying it against the wrong
//! base is a typed error. An unknown section tag is
//! [`PersistError::Malformed`]: no reader needs to skip sections.
//!
//! All errors are the typed [`PersistError`]; no path in here panics on
//! malformed input.

use crate::snapshot::{fnv1a, FNV_OFFSET};
use crate::{HwSnapshot, MemImage, RegImage, SnapshotDelta};
use std::fmt;
use std::path::Path;

/// File magic of the codec.
pub const TLV_MAGIC: &[u8; 8] = b"HSTLV01\0";
/// Current format version.
pub const TLV_VERSION: u16 = 1;

const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 40;
const MAX_SECTIONS: usize = (1 << 20) + 4;
/// Longest name string a reader accepts.
const MAX_STR: usize = 1 << 16;

/// Section type tags in the table. Images use `META` through
/// `DELTA_MEM`; campaign checkpoints use `META` and `COUNTERS` through
/// `IMAGE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionTag {
    /// What the file belongs to: design, shape/content hashes, base ref.
    Meta = 1,
    /// The whole register file (one section, scan-chain order).
    Regs = 2,
    /// One memory region; `index` is the memory's position in the shape.
    Mem = 3,
    /// Changed registers of a delta image.
    DeltaRegs = 4,
    /// Changed memory words of a delta image.
    DeltaMem = 5,
    /// A checkpoint's consumed budgets.
    Counters = 6,
    /// A checkpoint's covered program counters.
    Covered = 7,
    /// A checkpoint's bug reports.
    Bugs = 8,
    /// A checkpoint's completed paths.
    Completed = 9,
    /// A checkpoint's schedulable states and their snapshot references.
    Frontier = 10,
    /// One whole full or delta image nested in a checkpoint; `index`
    /// numbers the images.
    Image = 11,
}

impl SectionTag {
    fn from_u32(v: u32) -> Option<SectionTag> {
        use SectionTag::*;
        [
            Meta, Regs, Mem, DeltaRegs, DeltaMem, Counters, Covered, Bugs, Completed, Frontier,
            Image,
        ]
        .into_iter()
        .find(|&t| t as u32 == v)
    }

    /// Short human name used by `snapshot inspect`.
    pub fn name(self) -> &'static str {
        match self {
            SectionTag::Meta => "META",
            SectionTag::Regs => "REGS",
            SectionTag::Mem => "MEM",
            SectionTag::DeltaRegs => "DELTA_REGS",
            SectionTag::DeltaMem => "DELTA_MEM",
            SectionTag::Counters => "COUNTERS",
            SectionTag::Covered => "COVERED",
            SectionTag::Bugs => "BUGS",
            SectionTag::Completed => "COMPLETED",
            SectionTag::Frontier => "FRONTIER",
            SectionTag::Image => "IMAGE",
        }
    }
}

/// What a file of the codec holds (the header's kind byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImageKind {
    /// A complete image (also a valid delta base).
    Full,
    /// Only what changed since the referenced base.
    Delta,
    /// A campaign checkpoint: counters, states, and nested images.
    Campaign,
}

impl fmt::Display for ImageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ImageKind::Full => "full",
            ImageKind::Delta => "delta",
            ImageKind::Campaign => "campaign",
        })
    }
}

/// Errors from writing, opening, or loading files of the codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// Filesystem I/O failed; carries the path and the OS error text.
    Io {
        /// The file involved.
        path: String,
        /// The underlying error, stringified.
        error: String,
    },
    /// The file does not start with [`TLV_MAGIC`].
    BadMagic,
    /// The file's format version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The file ended before a structure was complete.
    Truncated {
        /// Byte offset at which data ran out.
        at: usize,
    },
    /// A checksum did not match the stored value.
    ChecksumMismatch {
        /// Which checksum failed: `"table"`, `"file"`, or a section name.
        what: String,
    },
    /// Structurally invalid content (bad tag, count overflow, bad UTF-8,
    /// out-of-width values, ...).
    Malformed(String),
    /// A delta image was applied against a base with the wrong identity.
    BaseMismatch {
        /// The base reference recorded in the delta image.
        reference: String,
        /// What was wrong about the supplied base.
        detail: String,
    },
    /// The file's design shape does not match the consumer's — e.g. a
    /// campaign checkpoint from a different design, rejected before any
    /// section payload is used.
    ShapeMismatch {
        /// Shape hash recorded in the file.
        expected: u64,
        /// Shape hash of the live target.
        found: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, error } => write!(f, "i/o on '{path}': {error}"),
            PersistError::BadMagic => write!(f, "not a HardSnap snapshot file (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot file version {v}")
            }
            PersistError::Truncated { at } => write!(f, "truncated file at offset {at}"),
            PersistError::ChecksumMismatch { what } => write!(f, "{what} checksum mismatch"),
            PersistError::Malformed(m) => write!(f, "malformed file: {m}"),
            PersistError::BaseMismatch { reference, detail } => {
                write!(f, "delta base '{reference}' mismatch: {detail}")
            }
            PersistError::ShapeMismatch { expected, found } => {
                write!(
                    f,
                    "design shape mismatch: file has {expected:#018x}, live side has {found:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// Wraps an `std::io::Error` with the path it happened on.
    pub fn io(path: &Path, e: std::io::Error) -> PersistError {
        PersistError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        }
    }
}

/// Parsed META section of a file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PersistMeta {
    /// Design the state belongs to.
    pub design: String,
    /// Target cycle counter of the captured state (the delta's cycle for
    /// a delta image; 0 for a checkpoint).
    pub cycle: u64,
    /// Shape hash of the full image (for a delta: of its base; for a
    /// checkpoint: of its images, 0 when it holds none).
    pub shape_hash: u64,
    /// Content hash of the full image (for a delta: of its base — the
    /// reader uses it to reject application against the wrong base; 0
    /// for a checkpoint).
    pub content_hash: u64,
    /// Register count of the (base) shape.
    pub n_regs: u32,
    /// Memory count of the (base) shape.
    pub n_mems: u32,
    /// Opaque reference naming the base image a delta patches; empty for
    /// a full image. Checkpoints use the base's image-section index, the
    /// spill tier uses in-store snapshot ids.
    pub base_ref: String,
}

impl PersistMeta {
    /// Rejects a file whose design shape differs from the consumer's.
    ///
    /// This is the cheap admission gate used before resuming a
    /// checkpoint: the META section decides
    /// compatibility without reading a single state payload. A
    /// `live_shape` of 0 means the consumer cannot fingerprint its own
    /// shape (the [`crate::HwTarget::snapshot_shape`] "unknown" value);
    /// the check is skipped and a later eager restore does the full
    /// name/width comparison instead.
    pub fn check_shape(&self, live_shape: u64) -> Result<(), PersistError> {
        if live_shape != 0 && self.shape_hash != live_shape {
            return Err(PersistError::ShapeMismatch {
                expected: self.shape_hash,
                found: live_shape,
            });
        }
        Ok(())
    }

    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(64 + self.design.len() + self.base_ref.len());
        put_str(&mut p, &self.design);
        p.extend_from_slice(&self.cycle.to_le_bytes());
        p.extend_from_slice(&self.shape_hash.to_le_bytes());
        p.extend_from_slice(&self.content_hash.to_le_bytes());
        p.extend_from_slice(&self.n_regs.to_le_bytes());
        p.extend_from_slice(&self.n_mems.to_le_bytes());
        put_str(&mut p, &self.base_ref);
        p
    }
}

/// One entry of the section table.
#[derive(Clone, Debug)]
pub struct SectionEntry {
    /// Section type.
    pub tag: SectionTag,
    /// Per-tag index (memory position for [`SectionTag::Mem`], image
    /// number for [`SectionTag::Image`], else 0).
    pub index: u32,
    /// Absolute payload offset in the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a over the payload bytes.
    pub checksum: u64,
    /// FNV-1a over just the section's *values* (register bits / memory
    /// words) — comparable against a hash of live target state without
    /// reading the payload. 0 for sections that hold no values.
    pub content_hash: u64,
}

/// Hash of a register file's values only, in scan-chain order — the
/// live-state counterpart of a [`SectionTag::Regs`] entry's
/// `content_hash`.
pub fn regs_values_hash(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for b in bits {
        h = fnv1a(&b.to_le_bytes(), h);
    }
    h
}

/// Hash of one memory's words — the live-state counterpart of a
/// [`SectionTag::Mem`] entry's `content_hash`.
pub fn mem_words_hash(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        h = fnv1a(&w.to_le_bytes(), h);
    }
    h
}

/// Writes `bytes` to `path` crash-atomically: the content goes to a
/// `.tmp` sibling first, is fsynced, renamed over `path`, and the
/// directory entry is fsynced last. A crash at any instant leaves either
/// the old file or the complete new one — never a truncated hybrid. A
/// stale `.tmp` from an earlier crash is simply overwritten.
///
/// # Errors
///
/// [`PersistError::Io`] naming the file that failed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    use std::io::Write as _;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| PersistError::io(&tmp, e))?;
        f.write_all(bytes).map_err(|e| PersistError::io(&tmp, e))?;
        f.sync_all().map_err(|e| PersistError::io(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| PersistError::io(path, e))?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself; failure to fsync a directory is
        // not worth failing the write over (the data is already safe on
        // any crash that doesn't also lose the rename).
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Appends a `u32` length prefix and the bytes.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Appends a string as [`put_bytes`] does.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Builds one file of the codec: META first, then sections in push
/// order.
pub struct SectionWriter {
    kind: ImageKind,
    payloads: Vec<(SectionTag, u32, u64, Vec<u8>)>,
}

impl SectionWriter {
    /// Starts a file of `kind` whose META section is `meta`.
    pub fn new(kind: ImageKind, meta: &PersistMeta) -> SectionWriter {
        SectionWriter {
            kind,
            payloads: vec![(SectionTag::Meta, 0, 0, meta.payload())],
        }
    }

    /// Appends a section.
    pub fn push(&mut self, tag: SectionTag, index: u32, content_hash: u64, payload: Vec<u8>) {
        self.payloads.push((tag, index, content_hash, payload));
    }

    /// The finished file's bytes.
    pub fn finish(self) -> Vec<u8> {
        let n = self.payloads.len();
        let mut out = Vec::with_capacity(
            HEADER_LEN
                + n * TABLE_ENTRY_LEN
                + 16
                + self.payloads.iter().map(|p| p.3.len()).sum::<usize>(),
        );
        out.extend_from_slice(TLV_MAGIC);
        out.extend_from_slice(&TLV_VERSION.to_le_bytes());
        out.push(match self.kind {
            ImageKind::Full => 0,
            ImageKind::Delta => 1,
            ImageKind::Campaign => 2,
        });
        out.push(0); // reserved
        out.extend_from_slice(&(n as u32).to_le_bytes());
        let mut offset = (HEADER_LEN + n * TABLE_ENTRY_LEN + 8) as u64;
        for (tag, index, content_hash, payload) in &self.payloads {
            out.extend_from_slice(&(*tag as u32).to_le_bytes());
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a(payload, FNV_OFFSET).to_le_bytes());
            out.extend_from_slice(&content_hash.to_le_bytes());
            offset += payload.len() as u64;
        }
        let table_sum = fnv1a(&out, FNV_OFFSET);
        out.extend_from_slice(&table_sum.to_le_bytes());
        for (_, _, _, payload) in &self.payloads {
            out.extend_from_slice(payload);
        }
        let file_sum = fnv1a(&out, FNV_OFFSET);
        out.extend_from_slice(&file_sum.to_le_bytes());
        out
    }
}

/// Reads one section payload field by field. Every read is
/// bounds-checked; running out of bytes, a count the remaining bytes
/// cannot hold, or bytes left over are [`PersistError::Malformed`]
/// naming the section.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    fn malformed(&self, what: impl fmt::Display) -> PersistError {
        PersistError::Malformed(format!("{} at offset {}: {what}", self.section, self.pos))
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if n > self.data.len() - self.pos {
            return Err(self.malformed(format_args!("truncated (need {n} bytes)")));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// A byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// A little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A record count, refused when the rest of the section cannot hold
    /// that many records of at least `min_record` bytes — so no count
    /// can make a reader allocate more than the file backs.
    pub fn count(&mut self, min_record: usize) -> Result<usize, PersistError> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_record) > self.data.len() - self.pos {
            return Err(self.malformed(format_args!("count {n} exceeds the section")));
        }
        Ok(n)
    }

    /// Bytes written by [`put_bytes`].
    pub fn get_bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// A string written by [`put_str`] (at most 64 KiB, UTF-8).
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let b = self.get_bytes()?;
        if b.len() > MAX_STR {
            return Err(self.malformed(format_args!("implausible string length {}", b.len())));
        }
        String::from_utf8(b.to_vec()).map_err(|_| self.malformed("non-UTF-8 string"))
    }

    /// Ends the read: the whole payload must have been consumed.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.pos != self.data.len() {
            return Err(self.malformed("trailing bytes"));
        }
        Ok(())
    }
}

/// Serializes a full snapshot: META, then the register file, then one
/// section per memory, in canonical order.
pub fn write_full(snap: &HwSnapshot) -> Vec<u8> {
    let mut b = SectionWriter::new(
        ImageKind::Full,
        &PersistMeta {
            design: snap.design.clone(),
            cycle: snap.cycle,
            shape_hash: snap.shape_hash(),
            content_hash: snap.content_hash(),
            n_regs: snap.regs.len() as u32,
            n_mems: snap.mems.len() as u32,
            base_ref: String::new(),
        },
    );
    let mut regs = Vec::with_capacity(4 + snap.regs.len() * 24);
    regs.extend_from_slice(&(snap.regs.len() as u32).to_le_bytes());
    for r in &snap.regs {
        put_str(&mut regs, &r.name);
        regs.extend_from_slice(&r.width.to_le_bytes());
        regs.extend_from_slice(&r.bits.to_le_bytes());
    }
    b.push(
        SectionTag::Regs,
        0,
        regs_values_hash(snap.regs.iter().map(|r| r.bits)),
        regs,
    );
    for (k, m) in snap.mems.iter().enumerate() {
        let mut p = Vec::with_capacity(12 + m.name.len() + 8 * m.words.len());
        put_str(&mut p, &m.name);
        p.extend_from_slice(&m.width.to_le_bytes());
        p.extend_from_slice(&(m.words.len() as u32).to_le_bytes());
        for w in &m.words {
            p.extend_from_slice(&w.to_le_bytes());
        }
        b.push(SectionTag::Mem, k as u32, mem_words_hash(&m.words), p);
    }
    b.finish()
}

/// Serializes a delta capture. `base_ref` is the opaque name under which
/// the base can be found again (an image-section index in a checkpoint,
/// a snapshot id for the spill tier); the base's shape and content
/// hashes are pinned in META so a later apply against the wrong base is
/// rejected.
pub fn write_delta(base: &HwSnapshot, delta: &SnapshotDelta, base_ref: &str) -> Vec<u8> {
    let mut b = SectionWriter::new(
        ImageKind::Delta,
        &PersistMeta {
            design: base.design.clone(),
            cycle: delta.cycle,
            shape_hash: base.shape_hash(),
            content_hash: base.content_hash(),
            n_regs: base.regs.len() as u32,
            n_mems: base.mems.len() as u32,
            base_ref: base_ref.to_string(),
        },
    );
    let mut dr = Vec::with_capacity(4 + delta.regs.len() * 12);
    dr.extend_from_slice(&(delta.regs.len() as u32).to_le_bytes());
    for &(i, bits) in &delta.regs {
        dr.extend_from_slice(&i.to_le_bytes());
        dr.extend_from_slice(&bits.to_le_bytes());
    }
    b.push(
        SectionTag::DeltaRegs,
        0,
        regs_values_hash(delta.regs.iter().map(|&(_, b)| b)),
        dr,
    );
    let mut dm = Vec::with_capacity(4 + delta.mem_words.len() * 16);
    dm.extend_from_slice(&(delta.mem_words.len() as u32).to_le_bytes());
    for &(mi, wi, v) in &delta.mem_words {
        dm.extend_from_slice(&mi.to_le_bytes());
        dm.extend_from_slice(&wi.to_le_bytes());
        dm.extend_from_slice(&v.to_le_bytes());
    }
    b.push(
        SectionTag::DeltaMem,
        0,
        mem_words_hash(
            &delta
                .mem_words
                .iter()
                .map(|&(_, _, v)| v)
                .collect::<Vec<_>>(),
        ),
        dm,
    );
    b.finish()
}

/// An image read eagerly, whole-file checksum verified first.
#[derive(Clone, Debug)]
pub enum PersistedImage {
    /// A complete snapshot.
    Full(HwSnapshot),
    /// A delta plus everything needed to find and verify its base.
    Delta {
        /// Name of the base image (see [`write_delta`]).
        base_ref: String,
        /// The base's shape hash at write time.
        base_shape_hash: u64,
        /// The base's content hash at write time.
        base_content_hash: u64,
        /// The changed state.
        delta: SnapshotDelta,
    },
}

impl PersistedImage {
    /// Reads an image eagerly: the whole-file checksum is verified before
    /// anything is parsed, so *any* single flipped byte in the image is a
    /// typed [`PersistError`], never a wrong restore.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] the image deserves.
    pub fn from_bytes(data: &[u8]) -> Result<PersistedImage, PersistError> {
        SnapshotFile::from_bytes_verified(data.to_vec())?.materialize()
    }
}

/// A file of the codec, opened. [`SnapshotFile::open`] verifies only the
/// header + section-table checksum, and each section's payload checksum
/// is verified when (and only when) that section is loaded — the on-disk
/// analogue of demand paging. `validate(deep)` escalates to the
/// whole-file checksum plus every section.
#[derive(Clone, Debug)]
pub struct SnapshotFile {
    data: Vec<u8>,
    kind: ImageKind,
    sections: Vec<SectionEntry>,
    /// The whole-file checksum was verified at open, so every payload
    /// is known good and loads skip the per-section checksum.
    verified: bool,
}

impl SnapshotFile {
    /// Opens a file, verifying magic, version, and the table checksum
    /// only.
    ///
    /// # Errors
    ///
    /// I/O failures, bad magic/version, truncation, or a corrupt table.
    pub fn open(path: &Path) -> Result<SnapshotFile, PersistError> {
        let data = std::fs::read(path).map_err(|e| PersistError::io(path, e))?;
        SnapshotFile::parse(data, false)
    }

    /// Opens a file from bytes already in memory (see
    /// [`SnapshotFile::open`]).
    ///
    /// # Errors
    ///
    /// Bad magic/version, truncation, or a corrupt table.
    pub fn from_bytes(data: Vec<u8>) -> Result<SnapshotFile, PersistError> {
        SnapshotFile::parse(data, false)
    }

    /// Opens a file from bytes, verifying the whole-file checksum right
    /// after the magic and before anything else is decoded. Section
    /// loads then skip their own checksums: the file's covers them.
    ///
    /// # Errors
    ///
    /// Bad magic, a file checksum mismatch, or anything
    /// [`SnapshotFile::from_bytes`] refuses.
    pub fn from_bytes_verified(data: Vec<u8>) -> Result<SnapshotFile, PersistError> {
        SnapshotFile::parse(data, true)
    }

    fn parse(data: Vec<u8>, check_file_sum: bool) -> Result<SnapshotFile, PersistError> {
        if data.len() < HEADER_LEN {
            return Err(PersistError::Truncated { at: data.len() });
        }
        if &data[0..8] != TLV_MAGIC {
            return Err(PersistError::BadMagic);
        }
        if check_file_sum {
            verify_file_sum(&data)?;
        }
        let version = u16::from_le_bytes([data[8], data[9]]);
        if version != TLV_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let kind = match data[10] {
            0 => ImageKind::Full,
            1 => ImageKind::Delta,
            2 => ImageKind::Campaign,
            k => return Err(PersistError::Malformed(format!("unknown file kind {k}"))),
        };
        if data[11] != 0 {
            return Err(PersistError::Malformed("nonzero reserved byte".into()));
        }
        let n = u32::from_le_bytes([data[12], data[13], data[14], data[15]]) as usize;
        if n > MAX_SECTIONS {
            return Err(PersistError::Malformed(format!(
                "implausible section count {n}"
            )));
        }
        let table_end = HEADER_LEN + n * TABLE_ENTRY_LEN;
        if data.len() < table_end + 8 {
            return Err(PersistError::Truncated { at: data.len() });
        }
        let stored_table_sum = u64::from_le_bytes(
            data[table_end..table_end + 8]
                .try_into()
                .expect("8-byte table checksum"),
        );
        if fnv1a(&data[..table_end], FNV_OFFSET) != stored_table_sum {
            return Err(PersistError::ChecksumMismatch {
                what: "table".into(),
            });
        }
        let mut sections = Vec::with_capacity(n);
        for i in 0..n {
            let e = &data[HEADER_LEN + i * TABLE_ENTRY_LEN..HEADER_LEN + (i + 1) * TABLE_ENTRY_LEN];
            let tag_raw = u32::from_le_bytes(e[0..4].try_into().expect("4 bytes"));
            let tag = SectionTag::from_u32(tag_raw)
                .ok_or_else(|| PersistError::Malformed(format!("unknown section tag {tag_raw}")))?;
            let entry = SectionEntry {
                tag,
                index: u32::from_le_bytes(e[4..8].try_into().expect("4 bytes")),
                offset: u64::from_le_bytes(e[8..16].try_into().expect("8 bytes")),
                len: u64::from_le_bytes(e[16..24].try_into().expect("8 bytes")),
                checksum: u64::from_le_bytes(e[24..32].try_into().expect("8 bytes")),
                content_hash: u64::from_le_bytes(e[32..40].try_into().expect("8 bytes")),
            };
            let end = entry.offset.checked_add(entry.len);
            match end {
                Some(end) if end as usize <= data.len().saturating_sub(8) => {}
                _ => {
                    return Err(PersistError::Malformed(format!(
                        "section {} extends past the payload area",
                        tag.name()
                    )))
                }
            }
            sections.push(entry);
        }
        Ok(SnapshotFile {
            data,
            kind,
            sections,
            verified: check_file_sum,
        })
    }

    /// What the file holds.
    pub fn kind(&self) -> ImageKind {
        self.kind
    }

    /// The verified section table.
    pub fn sections(&self) -> &[SectionEntry] {
        &self.sections
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.data.len()
    }

    /// The table entry of section `tag`/`index`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Malformed`] when the file has no such section.
    pub fn find(&self, tag: SectionTag, index: u32) -> Result<&SectionEntry, PersistError> {
        self.sections
            .iter()
            .find(|s| s.tag == tag && s.index == index)
            .ok_or_else(|| {
                PersistError::Malformed(format!("missing {} section (index {index})", tag.name()))
            })
    }

    /// Loads one section's payload, verifying its checksum (unless the
    /// whole file was verified at open) — the unit of demand paging.
    ///
    /// # Errors
    ///
    /// [`PersistError::ChecksumMismatch`] naming the section on payload
    /// corruption.
    pub fn section_payload(&self, entry: &SectionEntry) -> Result<&[u8], PersistError> {
        let payload = &self.data[entry.offset as usize..(entry.offset + entry.len) as usize];
        if !self.verified && fnv1a(payload, FNV_OFFSET) != entry.checksum {
            return Err(PersistError::ChecksumMismatch {
                what: format!("section {}", entry.tag.name()),
            });
        }
        Ok(payload)
    }

    /// A [`Cursor`] over section `tag`/`index`, its checksum verified.
    ///
    /// # Errors
    ///
    /// A missing or corrupt section.
    pub fn cursor(&self, tag: SectionTag, index: u32) -> Result<Cursor<'_>, PersistError> {
        Ok(Cursor {
            data: self.section_payload(self.find(tag, index)?)?,
            pos: 0,
            section: tag.name(),
        })
    }

    /// Parses the META section.
    ///
    /// # Errors
    ///
    /// Missing/corrupt META.
    pub fn meta(&self) -> Result<PersistMeta, PersistError> {
        let mut cur = self.cursor(SectionTag::Meta, 0)?;
        let meta = PersistMeta {
            design: cur.get_str()?,
            cycle: cur.get_u64()?,
            shape_hash: cur.get_u64()?,
            content_hash: cur.get_u64()?,
            n_regs: cur.get_u32()?,
            n_mems: cur.get_u32()?,
            base_ref: cur.get_str()?,
        };
        cur.finish()?;
        Ok(meta)
    }

    /// Loads the register-file section of a full image.
    ///
    /// # Errors
    ///
    /// Missing/corrupt/malformed REGS.
    pub fn load_regs(&self) -> Result<Vec<RegImage>, PersistError> {
        let mut cur = self.cursor(SectionTag::Regs, 0)?;
        let n = cur.count(16)?;
        let mut regs = Vec::with_capacity(n);
        for _ in 0..n {
            let name = cur.get_str()?;
            let width = cur.get_u32()?;
            let bits = cur.get_u64()?;
            if width == 0 || width > 64 {
                return Err(PersistError::Malformed(format!(
                    "register '{name}' has invalid width {width}"
                )));
            }
            regs.push(RegImage { name, width, bits });
        }
        cur.finish()?;
        Ok(regs)
    }

    /// Loads memory section `index` of a full image.
    ///
    /// # Errors
    ///
    /// Missing/corrupt/malformed MEM section.
    pub fn load_mem(&self, index: u32) -> Result<MemImage, PersistError> {
        let mut cur = self.cursor(SectionTag::Mem, index)?;
        let name = cur.get_str()?;
        let width = cur.get_u32()?;
        if width == 0 || width > 64 {
            return Err(PersistError::Malformed(format!(
                "memory '{name}' has invalid width {width}"
            )));
        }
        let depth = cur.count(8)?;
        let words = (0..depth)
            .map(|_| cur.get_u64())
            .collect::<Result<Vec<_>, _>>()?;
        cur.finish()?;
        Ok(MemImage { name, width, words })
    }

    /// Loads the delta sections of a delta image.
    ///
    /// # Errors
    ///
    /// Missing/corrupt/malformed delta sections, or calling this on any
    /// other kind of file.
    pub fn load_delta(&self) -> Result<SnapshotDelta, PersistError> {
        if self.kind != ImageKind::Delta {
            return Err(PersistError::Malformed(format!(
                "{} file has no delta sections",
                self.kind
            )));
        }
        let mut delta = SnapshotDelta {
            cycle: self.meta()?.cycle,
            ..Default::default()
        };
        let mut cur = self.cursor(SectionTag::DeltaRegs, 0)?;
        for _ in 0..cur.count(12)? {
            delta.regs.push((cur.get_u32()?, cur.get_u64()?));
        }
        cur.finish()?;
        let mut cur = self.cursor(SectionTag::DeltaMem, 0)?;
        for _ in 0..cur.count(16)? {
            delta
                .mem_words
                .push((cur.get_u32()?, cur.get_u32()?, cur.get_u64()?));
        }
        cur.finish()?;
        Ok(delta)
    }

    /// Materializes the image's content eagerly: every section loaded and
    /// parsed (each payload checksum verified along the way).
    ///
    /// # Errors
    ///
    /// Any section problem found; a checkpoint is not an image.
    pub fn materialize(&self) -> Result<PersistedImage, PersistError> {
        let meta = self.meta()?;
        match self.kind {
            ImageKind::Full => {
                let regs = self.load_regs()?;
                if regs.len() != meta.n_regs as usize {
                    return Err(PersistError::Malformed(format!(
                        "META claims {} registers, REGS holds {}",
                        meta.n_regs,
                        regs.len()
                    )));
                }
                let mut mems = Vec::with_capacity(meta.n_mems.min(1 << 16) as usize);
                for k in 0..meta.n_mems {
                    mems.push(self.load_mem(k)?);
                }
                let snap = HwSnapshot {
                    design: meta.design,
                    cycle: meta.cycle,
                    regs,
                    mems,
                };
                if snap.shape_hash() != meta.shape_hash {
                    return Err(PersistError::Malformed(
                        "reassembled shape hash differs from META".into(),
                    ));
                }
                if snap.content_hash() != meta.content_hash {
                    return Err(PersistError::ChecksumMismatch {
                        what: "content".into(),
                    });
                }
                snap.validate().map_err(PersistError::Malformed)?;
                Ok(PersistedImage::Full(snap))
            }
            ImageKind::Delta => {
                let delta = self.load_delta()?;
                Ok(PersistedImage::Delta {
                    base_ref: meta.base_ref,
                    base_shape_hash: meta.shape_hash,
                    base_content_hash: meta.content_hash,
                    delta,
                })
            }
            ImageKind::Campaign => Err(PersistError::Malformed(
                "a campaign checkpoint is not a snapshot image".into(),
            )),
        }
    }

    /// Validates the file. Shallow (`deep == false`) re-checks the
    /// header/table invariants and META; deep additionally verifies the
    /// trailing whole-file checksum and every section payload checksum.
    /// For an image, deep also checks the per-section content hashes and
    /// the reassembled state; for a checkpoint, every nested image is
    /// deep-validated and must share the checkpoint's design shape.
    ///
    /// # Errors
    ///
    /// The first problem found.
    pub fn validate(&self, deep: bool) -> Result<(), PersistError> {
        let meta = self.meta()?;
        if !deep {
            return Ok(());
        }
        verify_file_sum(&self.data)?;
        if self.kind == ImageKind::Campaign {
            for s in &self.sections {
                let payload = self.section_payload(s)?;
                if s.tag != SectionTag::Image {
                    continue;
                }
                let image = SnapshotFile::from_bytes(payload.to_vec())?;
                if image.kind == ImageKind::Campaign {
                    return Err(PersistError::Malformed(format!(
                        "IMAGE[{}] is a checkpoint, not an image",
                        s.index
                    )));
                }
                image.validate(true)?;
                image.meta()?.check_shape(meta.shape_hash)?;
            }
            return Ok(());
        }
        match self.materialize()? {
            PersistedImage::Full(snap) => {
                let entry = self.find(SectionTag::Regs, 0)?;
                if regs_values_hash(snap.regs.iter().map(|r| r.bits)) != entry.content_hash {
                    return Err(PersistError::ChecksumMismatch {
                        what: "REGS content hash".into(),
                    });
                }
                for (k, m) in snap.mems.iter().enumerate() {
                    let entry = self.find(SectionTag::Mem, k as u32)?;
                    if mem_words_hash(&m.words) != entry.content_hash {
                        return Err(PersistError::ChecksumMismatch {
                            what: format!("MEM[{k}] content hash"),
                        });
                    }
                }
            }
            PersistedImage::Delta { delta, .. } => {
                if meta.base_ref.is_empty() {
                    return Err(PersistError::Malformed(
                        "delta image with empty base reference".into(),
                    ));
                }
                for &(i, _) in &delta.regs {
                    if i >= meta.n_regs {
                        return Err(PersistError::Malformed(format!(
                            "delta register index {i} outside base shape ({} regs)",
                            meta.n_regs
                        )));
                    }
                }
                for &(mi, _, _) in &delta.mem_words {
                    if mi >= meta.n_mems {
                        return Err(PersistError::Malformed(format!(
                            "delta memory index {mi} outside base shape ({} mems)",
                            meta.n_mems
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies a delta image to its base, after verifying the base's
    /// identity against the hashes pinned at write time.
    ///
    /// # Errors
    ///
    /// [`PersistError::BaseMismatch`] when `base` is not the image's
    /// recorded base; otherwise any load error.
    pub fn apply_to_base(&self, base: &HwSnapshot) -> Result<HwSnapshot, PersistError> {
        let meta = self.meta()?;
        if self.kind != ImageKind::Delta {
            return Err(PersistError::Malformed(format!(
                "apply_to_base on a {} file",
                self.kind
            )));
        }
        if base.shape_hash() != meta.shape_hash {
            return Err(PersistError::BaseMismatch {
                reference: meta.base_ref.clone(),
                detail: "shape hash differs".into(),
            });
        }
        if base.content_hash() != meta.content_hash {
            return Err(PersistError::BaseMismatch {
                reference: meta.base_ref.clone(),
                detail: "content hash differs".into(),
            });
        }
        let delta = self.load_delta()?;
        delta.apply(base).map_err(PersistError::Malformed)
    }
}

fn verify_file_sum(data: &[u8]) -> Result<(), PersistError> {
    let (body, tail) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if fnv1a(body, FNV_OFFSET) != stored {
        return Err(PersistError::ChecksumMismatch {
            what: "file".into(),
        });
    }
    Ok(())
}

/// Re-signs the table and file checksums after an edit, so a damaged
/// copy gets past both and the structural checks behind them must fire.
fn resign(bytes: &mut [u8]) {
    let n = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    let table_end = HEADER_LEN + n * TABLE_ENTRY_LEN;
    let sum = fnv1a(&bytes[..table_end], FNV_OFFSET);
    bytes[table_end..table_end + 8].copy_from_slice(&sum.to_le_bytes());
    let body = bytes.len() - 8;
    let sum = fnv1a(&bytes[..body], FNV_OFFSET);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// Every damaged copy of a well-formed file of the codec that a decoder
/// must refuse with a typed error, handed to `check(what, bytes)` one at
/// a time: each byte flipped, the file cut at every length, and each
/// section's length set so that offset + length overflows `u64` (table
/// and file checksums re-signed, so the bounds check itself must catch
/// it). The corruption suites of every file kind run on this one
/// generator.
///
/// # Panics
///
/// If `clean` is not a well-formed file of the codec.
pub fn for_each_damage(clean: &[u8], mut check: impl FnMut(&str, &[u8])) {
    let sections = SnapshotFile::from_bytes(clean.to_vec())
        .expect("damage needs a well-formed file")
        .sections
        .len();
    let mut bad = clean.to_vec();
    for i in 0..clean.len() {
        bad[i] ^= 0x40;
        check(&format!("byte {i} flipped"), &bad);
        bad[i] = clean[i];
    }
    for n in 0..clean.len() {
        check(&format!("cut to {n} bytes"), &clean[..n]);
    }
    for i in 0..sections {
        let mut bad = clean.to_vec();
        let len_at = HEADER_LEN + i * TABLE_ENTRY_LEN + 16;
        bad[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        resign(&mut bad);
        check(&format!("section {i} offset + length overflows"), &bad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample() -> HwSnapshot {
        HwSnapshot {
            design: "soc_top".into(),
            cycle: 4242,
            regs: (0..10)
                .map(|i| RegImage {
                    name: format!("u_p.r{i}"),
                    width: 32,
                    bits: i * 3,
                })
                .collect(),
            mems: vec![
                MemImage {
                    name: "u_p.ram".into(),
                    width: 32,
                    words: (0..64).collect(),
                },
                MemImage {
                    name: "u_p.fifo".into(),
                    width: 16,
                    words: vec![7; 8],
                },
            ],
        }
    }

    /// `sample()` with one register, one memory word and the cycle
    /// changed.
    fn sample_delta() -> (HwSnapshot, SnapshotDelta) {
        let base = sample();
        let mut new = base.clone();
        new.cycle = 5000;
        new.regs[3].bits = 0xffff;
        new.mems[0].words[9] = 0xabcd;
        let delta = SnapshotDelta::between(&base, &new).unwrap();
        (new, delta)
    }

    #[test]
    fn image_bytes_are_pinned() {
        // Full and delta images of the fixture, as hashes of their
        // bytes: the spill tier, warm-pool baselines and lazy restore
        // read these files, so the encoding must not drift.
        let full = write_full(&sample());
        assert_eq!(
            (full.len(), fnv1a(&full, FNV_OFFSET)),
            (1078, 0xb3fe_4593_beea_e004)
        );
        let delta = write_delta(&sample(), &sample_delta().1, "base-0001");
        assert_eq!(
            (delta.len(), fnv1a(&delta, FNV_OFFSET)),
            (244, 0x22ec_1ead_b296_647b)
        );
    }

    #[test]
    fn full_roundtrip_eager() {
        let empty = HwSnapshot {
            design: "d".into(),
            ..HwSnapshot::default()
        };
        for s in [sample(), empty] {
            let bytes = write_full(&s);
            match PersistedImage::from_bytes(&bytes).unwrap() {
                PersistedImage::Full(got) => assert_eq!(got, s),
                _ => panic!("expected full image"),
            }
            // Serialization is deterministic.
            assert_eq!(bytes, write_full(&s));
        }
    }

    #[test]
    fn full_roundtrip_lazy_sections() {
        let s = sample();
        let file = SnapshotFile::from_bytes(write_full(&s)).unwrap();
        assert_eq!(file.kind(), ImageKind::Full);
        let meta = file.meta().unwrap();
        assert_eq!(meta.design, "soc_top");
        assert_eq!(meta.n_regs, 10);
        assert_eq!(meta.n_mems, 2);
        assert!(meta.base_ref.is_empty());
        let regs = file.load_regs().unwrap();
        assert_eq!(regs, s.regs);
        assert_eq!(file.load_mem(1).unwrap(), s.mems[1]);
        file.validate(true).unwrap();
    }

    #[test]
    fn delta_roundtrip_and_base_pinning() {
        let base = sample();
        let (new, delta) = sample_delta();
        let bytes = write_delta(&base, &delta, "base-0001");
        let file = SnapshotFile::from_bytes(bytes.clone()).unwrap();
        assert_eq!(file.kind(), ImageKind::Delta);
        assert_eq!(file.meta().unwrap().base_ref, "base-0001");
        assert_eq!(file.apply_to_base(&base).unwrap(), new);
        file.validate(true).unwrap();
        // The wrong base is rejected by content hash.
        let mut wrong = base.clone();
        wrong.regs[0].bits ^= 1;
        match file.apply_to_base(&wrong) {
            Err(PersistError::BaseMismatch { .. }) => {}
            other => panic!("expected BaseMismatch, got {other:?}"),
        }
        match PersistedImage::from_bytes(&bytes).unwrap() {
            PersistedImage::Delta {
                base_ref, delta: d, ..
            } => {
                assert_eq!(base_ref, "base-0001");
                assert_eq!(d, delta);
            }
            _ => panic!("expected delta image"),
        }
    }

    #[test]
    fn lazy_open_catches_table_corruption() {
        let s = sample();
        let bytes = write_full(&s);
        // Flip a byte inside the section table: caught at open time.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 4] ^= 1;
        assert!(matches!(
            SnapshotFile::from_bytes(bad),
            Err(PersistError::ChecksumMismatch { .. }) | Err(PersistError::Malformed(_))
        ));
        // Flip a payload byte: open succeeds (lazy), loading that section
        // fails, deep validation fails.
        let file_ok = SnapshotFile::from_bytes(bytes.clone()).unwrap();
        let regs_entry = file_ok.find(SectionTag::Regs, 0).unwrap();
        let mut bad = bytes.clone();
        bad[regs_entry.offset as usize + 6] ^= 1;
        let file = SnapshotFile::from_bytes(bad).unwrap();
        assert!(matches!(
            file.load_regs(),
            Err(PersistError::ChecksumMismatch { .. })
        ));
        assert!(file.validate(true).is_err());
        assert!(file.load_mem(0).is_ok(), "untouched sections still load");
    }

    #[test]
    fn truncation_and_magic_and_version_errors() {
        let s = sample();
        let bytes = write_full(&s);
        assert!(matches!(
            SnapshotFile::from_bytes(bytes[..10].to_vec()),
            Err(PersistError::Truncated { .. })
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            SnapshotFile::from_bytes(bad),
            Err(PersistError::BadMagic)
        ));
        let mut bad = bytes.clone();
        bad[8] = 99;
        // Version bump also breaks the table checksum; re-sign it to
        // prove the version check itself fires.
        resign(&mut bad);
        assert!(matches!(
            SnapshotFile::from_bytes(bad),
            Err(PersistError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn unknown_section_tag_is_malformed() {
        let mut bad = write_full(&sample());
        bad[HEADER_LEN + TABLE_ENTRY_LEN] = 99; // second section's tag
        resign(&mut bad);
        match SnapshotFile::from_bytes(bad) {
            Err(PersistError::Malformed(m)) => assert!(m.contains("tag 99"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn content_hashes_enable_section_skip_decisions() {
        let s = sample();
        let file = SnapshotFile::from_bytes(write_full(&s)).unwrap();
        let regs_entry = file.find(SectionTag::Regs, 0).unwrap();
        assert_eq!(
            regs_entry.content_hash,
            regs_values_hash(s.regs.iter().map(|r| r.bits))
        );
        let mem0 = file.find(SectionTag::Mem, 0).unwrap();
        assert_eq!(mem0.content_hash, mem_words_hash(&s.mems[0].words));
        // A live state with one changed word hashes differently.
        let mut live = s.mems[0].words.clone();
        live[3] ^= 1;
        assert_ne!(mem0.content_hash, mem_words_hash(&live));
    }

    #[test]
    fn capture_round_trips_through_files() {
        let base = Arc::new(sample());
        let mut new = (*base).clone();
        new.regs[1].bits = 999;
        let delta = SnapshotDelta::between(&base, &new).unwrap();
        let cap = crate::SnapshotCapture::Delta {
            base: base.clone(),
            delta: delta.clone(),
        };
        let base_bytes = write_full(&base);
        let delta_bytes = write_delta(&base, &delta, "b");
        let base_file = SnapshotFile::from_bytes(base_bytes).unwrap();
        let delta_file = SnapshotFile::from_bytes(delta_bytes).unwrap();
        let base_back = match base_file.materialize().unwrap() {
            PersistedImage::Full(s) => s,
            _ => panic!(),
        };
        let got = delta_file.apply_to_base(&base_back).unwrap();
        assert_eq!(got, cap.materialize().unwrap());
    }

    #[test]
    fn a_stale_tmp_is_overwritten_and_one_file_left() {
        let dir = std::env::temp_dir().join(format!("hstlv-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.hscamp");
        std::fs::write(dir.join("x.tmp"), b"stale, torn").unwrap();
        write_atomic(&path, b"new").unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["x.hscamp"]);
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
