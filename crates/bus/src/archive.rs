//! Portable snapshot archives: a tar-like container for a checkpoint /
//! campaign directory, with a manifest that carries the design identity
//! (`shape_hash`) and per-file content hashes up front.
//!
//! HardSnap's cross-host story (ROADMAP: ship a campaign to another
//! machine, seed a warm pool from it) needs snapshot state to travel as
//! one artifact — and needs the *receiving* side to refuse an
//! incompatible design before any section payload is transferred. The
//! archive therefore leads with a JSON manifest:
//!
//! ```text
//! "HSPACK1\0"            8-byte magic
//! manifest_len   u32 LE  length of the manifest JSON
//! manifest_fnv   u64 LE  FNV-1a over the manifest bytes
//! manifest JSON          schema hardsnap-pack-v1 (see below)
//! payloads               member file bytes, concatenated in manifest order
//! ```
//!
//! The manifest records `design` and `shape_hash` (extracted from the
//! member `.hsnap` images' META sections, which all have to agree) plus
//! each member's length and FNV-1a checksum. [`unpack_to`] parses and
//! verifies only the manifest, runs [`PersistMeta::check_shape`]-style
//! admission against the receiver's shape, and only then streams the
//! payloads out — so "wrong design" costs a few hundred bytes of I/O,
//! not the transfer.
//!
//! Member names are flat (no directories); [`unpack_to`] rejects names
//! with path separators or `..` so a hostile archive cannot escape the
//! destination directory.

use crate::persist::{PersistError, SnapshotFile};
use crate::snapshot::{fnv1a, FNV_OFFSET};
use hardsnap_util::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Archive magic, distinct from both snapshot image magics.
pub const PACK_MAGIC: &[u8; 8] = b"HSPACK1\0";
/// Manifest schema identifier.
pub const PACK_SCHEMA: &str = "hardsnap-pack-v1";

/// Sanity bound on the manifest; a real manifest is a few KiB.
const MAX_MANIFEST_LEN: usize = 16 << 20;

/// One member file of an archive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackEntry {
    /// Flat file name inside the archived directory.
    pub name: String,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a over the payload bytes.
    pub checksum: u64,
}

/// The archive's leading manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackManifest {
    /// Design the archived snapshots belong to.
    pub design: String,
    /// Shape hash shared by every `.hsnap` member (a receiver compares
    /// this against its own live shape before extracting anything).
    pub shape_hash: u64,
    /// Members, in payload order.
    pub files: Vec<PackEntry>,
}

impl PackManifest {
    /// Total payload bytes following the manifest.
    pub fn payload_len(&self) -> u64 {
        self.files.iter().map(|f| f.len).sum()
    }

    /// The manifest as a JSON value (hashes as hex strings — the JSON
    /// layer holds numbers as `f64`, which cannot carry a 64-bit hash).
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("schema".into(), Value::Str(PACK_SCHEMA.into()));
        m.insert("design".into(), Value::Str(self.design.clone()));
        m.insert(
            "shape_hash".into(),
            Value::Str(format!("{:#018x}", self.shape_hash)),
        );
        let files = self
            .files
            .iter()
            .map(|f| {
                let mut e = BTreeMap::new();
                e.insert("name".into(), Value::Str(f.name.clone()));
                e.insert("len".into(), Value::Num(f.len as f64));
                e.insert("fnv".into(), Value::Str(format!("{:#018x}", f.checksum)));
                Value::Obj(e)
            })
            .collect();
        m.insert("files".into(), Value::Arr(files));
        Value::Obj(m)
    }

    /// Parses a manifest value, validating schema and member names.
    pub fn from_value(v: &Value) -> Result<PackManifest, PersistError> {
        let bad = |m: &str| PersistError::Malformed(format!("pack manifest: {m}"));
        match v.get("schema").and_then(Value::as_str) {
            Some(PACK_SCHEMA) => {}
            Some(other) => return Err(bad(&format!("unknown schema '{other}'"))),
            None => return Err(bad("missing schema")),
        }
        let design = v
            .get("design")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing design"))?
            .to_string();
        let shape_hash = parse_hex_u64(v.get("shape_hash")).ok_or_else(|| bad("bad shape_hash"))?;
        let mut files = Vec::new();
        for e in v
            .get("files")
            .and_then(Value::as_arr)
            .ok_or_else(|| bad("missing files"))?
        {
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("member missing name"))?
                .to_string();
            check_member_name(&name)?;
            let len = e
                .get("len")
                .and_then(Value::as_u64)
                .ok_or_else(|| bad("member missing len"))?;
            let checksum = parse_hex_u64(e.get("fnv")).ok_or_else(|| bad("member missing fnv"))?;
            files.push(PackEntry {
                name,
                len,
                checksum,
            });
        }
        Ok(PackManifest {
            design,
            shape_hash,
            files,
        })
    }
}

fn parse_hex_u64(v: Option<&Value>) -> Option<u64> {
    let s = v?.as_str()?;
    let digits = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(digits, 16).ok()
}

/// Flat names only: a member must not be able to write outside the
/// destination directory.
fn check_member_name(name: &str) -> Result<(), PersistError> {
    if !crate::persist::is_flat_name(name) {
        return Err(PersistError::Malformed(format!(
            "pack manifest: unsafe member name '{}'",
            name.escape_default()
        )));
    }
    Ok(())
}

/// Packs every regular file at the top level of `dir` into an archive.
///
/// All `.hsnap` members are opened (table-checksum verified) and their
/// META sections must agree on design and shape; the common identity is
/// recorded in the manifest. A directory with no snapshot image is
/// refused — an archive that cannot state its shape is useless to the
/// receiver's admission check.
pub fn pack_dir(dir: &Path) -> Result<(PackManifest, Vec<u8>), PersistError> {
    let mut names: Vec<String> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| PersistError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PersistError::io(dir, e))?;
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        match entry.file_name().into_string() {
            Ok(n) => names.push(n),
            Err(_) => {
                return Err(PersistError::Malformed(format!(
                    "non-UTF-8 file name in {}",
                    dir.display()
                )))
            }
        }
    }
    names.sort();

    let mut design: Option<String> = None;
    let mut shape_hash: Option<u64> = None;
    let mut files = Vec::new();
    let mut payloads: Vec<u8> = Vec::new();
    for name in &names {
        let path = dir.join(name);
        let data = std::fs::read(&path).map_err(|e| PersistError::io(&path, e))?;
        if name.ends_with(".hsnap") {
            let snap = SnapshotFile::from_bytes(data.clone())?;
            let meta = snap.meta()?;
            match (&design, shape_hash) {
                (None, _) => {
                    design = Some(meta.design.clone());
                    shape_hash = Some(meta.shape_hash);
                }
                (Some(d), Some(s)) if *d == meta.design && s == meta.shape_hash => {}
                (Some(_), _) => {
                    return Err(PersistError::Malformed(format!(
                        "mixed designs in {}: '{}' does not match the rest",
                        dir.display(),
                        name
                    )))
                }
            }
        }
        files.push(PackEntry {
            name: name.clone(),
            len: data.len() as u64,
            checksum: fnv1a(&data, FNV_OFFSET),
        });
        payloads.extend_from_slice(&data);
    }
    let (design, shape_hash) = match (design, shape_hash) {
        (Some(d), Some(s)) => (d, s),
        _ => {
            return Err(PersistError::Malformed(format!(
                "no snapshot image (.hsnap) in {}",
                dir.display()
            )))
        }
    };

    let manifest = PackManifest {
        design,
        shape_hash,
        files,
    };
    let mjson = manifest.to_value().to_json();
    let mbytes = mjson.as_bytes();
    let mut out = Vec::with_capacity(PACK_MAGIC.len() + 12 + mbytes.len() + payloads.len());
    out.extend_from_slice(PACK_MAGIC);
    out.extend_from_slice(&(mbytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(mbytes, FNV_OFFSET).to_le_bytes());
    out.extend_from_slice(mbytes);
    out.extend_from_slice(&payloads);
    Ok((manifest, out))
}

/// [`pack_dir`] straight to a file.
pub fn pack_dir_to(dir: &Path, out: &Path) -> Result<PackManifest, PersistError> {
    let (manifest, bytes) = pack_dir(dir)?;
    std::fs::write(out, bytes).map_err(|e| PersistError::io(out, e))?;
    Ok(manifest)
}

/// Parses and verifies just the manifest of `bytes`; returns it together
/// with the offset at which payloads begin.
pub fn read_manifest(bytes: &[u8]) -> Result<(PackManifest, usize), PersistError> {
    if bytes.len() < PACK_MAGIC.len() + 12 {
        return Err(PersistError::Truncated { at: bytes.len() });
    }
    if &bytes[..PACK_MAGIC.len()] != PACK_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let mut off = PACK_MAGIC.len();
    let mlen = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
    off += 4;
    let mfnv = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    off += 8;
    if mlen > MAX_MANIFEST_LEN {
        return Err(PersistError::Malformed(format!(
            "manifest length {mlen} exceeds bound"
        )));
    }
    if bytes.len() < off + mlen {
        return Err(PersistError::Truncated { at: bytes.len() });
    }
    let mbytes = &bytes[off..off + mlen];
    if fnv1a(mbytes, FNV_OFFSET) != mfnv {
        return Err(PersistError::ChecksumMismatch {
            what: "manifest".into(),
        });
    }
    let text = std::str::from_utf8(mbytes)
        .map_err(|_| PersistError::Malformed("manifest is not UTF-8".into()))?;
    let value =
        json::parse(text).map_err(|e| PersistError::Malformed(format!("manifest JSON: {e}")))?;
    let manifest = PackManifest::from_value(&value)?;
    Ok((manifest, off + mlen))
}

/// Reads only the manifest of an archive file.
pub fn inspect(path: &Path) -> Result<PackManifest, PersistError> {
    let bytes = std::fs::read(path).map_err(|e| PersistError::io(path, e))?;
    Ok(read_manifest(&bytes)?.0)
}

/// Unpacks `archive` into `dest` (created if absent).
///
/// The admission gate runs *before* any payload is read: when
/// `live_shape` is nonzero and differs from the manifest's `shape_hash`,
/// the call fails with [`PersistError::ShapeMismatch`] and nothing is
/// written. Each extracted member is verified against its manifest
/// checksum.
pub fn unpack_to(
    archive: &Path,
    dest: &Path,
    live_shape: u64,
) -> Result<PackManifest, PersistError> {
    let bytes = std::fs::read(archive).map_err(|e| PersistError::io(archive, e))?;
    let (manifest, mut off) = read_manifest(&bytes)?;
    if live_shape != 0 && manifest.shape_hash != live_shape {
        return Err(PersistError::ShapeMismatch {
            expected: manifest.shape_hash,
            found: live_shape,
        });
    }
    std::fs::create_dir_all(dest).map_err(|e| PersistError::io(dest, e))?;
    for entry in &manifest.files {
        let len = entry.len as usize;
        if bytes.len() < off + len {
            return Err(PersistError::Truncated { at: bytes.len() });
        }
        let payload = &bytes[off..off + len];
        off += len;
        if fnv1a(payload, FNV_OFFSET) != entry.checksum {
            return Err(PersistError::ChecksumMismatch {
                what: entry.name.clone(),
            });
        }
        let path = dest.join(&entry.name);
        std::fs::write(&path, payload).map_err(|e| PersistError::io(&path, e))?;
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::write_full;
    use crate::snapshot::{HwSnapshot, MemImage, RegImage};

    fn snap(design: &str, seed: u64) -> HwSnapshot {
        HwSnapshot {
            design: design.to_string(),
            cycle: seed,
            regs: vec![
                RegImage {
                    name: "r0".into(),
                    width: 32,
                    bits: seed & 0xffff_ffff,
                },
                RegImage {
                    name: "r1".into(),
                    width: 8,
                    bits: seed & 0xff,
                },
            ],
            mems: vec![MemImage {
                name: "ram".into(),
                width: 32,
                words: vec![seed & 0xffff_ffff, 2, 3, 4],
            }],
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("hspack-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn checkpoint_dir(name: &str, design: &str) -> std::path::PathBuf {
        let dir = tmp(name);
        std::fs::write(dir.join("snap-0.hsnap"), write_full(&snap(design, 7))).unwrap();
        std::fs::write(dir.join("snap-1.hsnap"), write_full(&snap(design, 9))).unwrap();
        std::fs::write(dir.join("campaign.hscamp"), b"opaque manifest").unwrap();
        dir
    }

    #[test]
    fn pack_unpack_round_trips() {
        let src = checkpoint_dir("rt-src", "soc");
        let shape = snap("soc", 7).shape_hash();
        let ar = src.join("pack.hspack");
        let manifest = pack_dir_to(&src, &ar).unwrap();
        assert_eq!(manifest.design, "soc");
        assert_eq!(manifest.shape_hash, shape);
        assert_eq!(manifest.files.len(), 3);

        let dest = tmp("rt-dest");
        let got = unpack_to(&ar, &dest, shape).unwrap();
        assert_eq!(got, manifest);
        for e in &manifest.files {
            let data = std::fs::read(dest.join(&e.name)).unwrap();
            assert_eq!(data.len() as u64, e.len);
            assert_eq!(fnv1a(&data, FNV_OFFSET), e.checksum);
        }
        // Unpacked snapshots still open as valid TLV images.
        let reopened = SnapshotFile::open(&dest.join("snap-0.hsnap")).unwrap();
        assert_eq!(reopened.meta().unwrap().design, "soc");
    }

    #[test]
    fn shape_gate_refuses_before_extracting() {
        let src = checkpoint_dir("gate-src", "soc");
        let ar = src.join("pack.hspack");
        let manifest = pack_dir_to(&src, &ar).unwrap();
        let dest = tmp("gate-dest");
        std::fs::remove_dir_all(&dest).unwrap();
        let err = unpack_to(&ar, &dest, manifest.shape_hash ^ 1).unwrap_err();
        assert!(matches!(err, PersistError::ShapeMismatch { .. }));
        // Refused before extraction: the destination was never created.
        assert!(!dest.exists());
        // Shape 0 (unknown receiver) skips the gate.
        unpack_to(&ar, &dest, 0).unwrap();
    }

    #[test]
    fn traversal_names_and_corruption_are_rejected() {
        let src = checkpoint_dir("evil-src", "soc");
        let ar = src.join("pack.hspack");
        pack_dir_to(&src, &ar).unwrap();
        let mut bytes = std::fs::read(&ar).unwrap();

        // Corrupt one payload byte: the member checksum catches it.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let bad = src.join("corrupt.hspack");
        std::fs::write(&bad, &bytes).unwrap();
        let err = unpack_to(&bad, &tmp("evil-dest"), 0).unwrap_err();
        assert!(matches!(err, PersistError::ChecksumMismatch { .. }));

        // A manifest member name with a path separator is refused.
        let m = PackManifest {
            design: "soc".into(),
            shape_hash: 1,
            files: vec![PackEntry {
                name: "../escape".into(),
                len: 0,
                checksum: FNV_OFFSET,
            }],
        };
        assert!(matches!(
            PackManifest::from_value(&m.to_value()),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn mixed_designs_refuse_to_pack() {
        let dir = tmp("mixed");
        std::fs::write(dir.join("a.hsnap"), write_full(&snap("soc", 1))).unwrap();
        std::fs::write(dir.join("b.hsnap"), write_full(&snap("other", 1))).unwrap();
        assert!(matches!(pack_dir(&dir), Err(PersistError::Malformed(_))));
        let empty = tmp("empty");
        assert!(matches!(pack_dir(&empty), Err(PersistError::Malformed(_))));
    }
}
