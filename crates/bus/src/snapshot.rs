//! The canonical hardware-snapshot format.
//!
//! A [`HwSnapshot`] is the paper's "offline representation" of hardware
//! state: every flip-flop register and every memory of the design under
//! test, by hierarchical name. Both targets produce and consume this one
//! format, which is precisely what makes multi-target state transfer
//! (FPGA → simulator and back, paper §III-B "target orchestration")
//! possible: a snapshot saved on one target restores bit-exactly on the
//! other.
//!
//! Snapshots persist as files of the section codec in [`crate::persist`]
//! — the analogue of the CRIU checkpoint file the paper stores on
//! persistent storage — and [`HwSnapshot::byte_size`] is the size the
//! save/restore cost models charge for.

use std::collections::HashMap;

/// One flip-flop register's saved state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegImage {
    /// Hierarchical register name (e.g. `u_aes.round_cnt`).
    pub name: String,
    /// Width in bits (1..=64).
    pub width: u32,
    /// The saved bits (normalized to the width).
    pub bits: u64,
}

/// One memory's saved state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemImage {
    /// Hierarchical memory name.
    pub name: String,
    /// Word width in bits.
    pub width: u32,
    /// All words, index 0 first.
    pub words: Vec<u64>,
}

/// A complete hardware snapshot: the set `S_hw` of all hardware register
/// values of the peripherals under test at a point in time (paper §IV-B).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HwSnapshot {
    /// Name of the (flattened) design this snapshot was taken from; used
    /// to reject cross-design restores.
    pub design: String,
    /// Target cycle counter at capture time.
    pub cycle: u64,
    /// All registers, in scan-chain order.
    pub regs: Vec<RegImage>,
    /// All memories, in scan-chain order.
    pub mems: Vec<MemImage>,
}

/// FNV-1a over a byte slice (the workspace's standard cheap digest).
pub(crate) fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fingerprint of a snapshot *shape* — the design name plus the ordered
/// register `(name, width)` and memory `(name, width, depth)` layout,
/// with all values excluded. A target that knows its own design can
/// compute the same fingerprint without any reference snapshot (see
/// `HwTarget::snapshot_shape`), which is what lets a supervision layer
/// detect truncated or misassembled images at **capture** time: an image
/// whose shape hash differs from the design's was damaged in transit.
pub fn shape_hash_parts<'a>(
    design: &str,
    regs: impl Iterator<Item = (&'a str, u32)>,
    mems: impl Iterator<Item = (&'a str, u32, usize)>,
) -> u64 {
    let mut h = fnv1a(design.as_bytes(), FNV_OFFSET);
    for (name, width) in regs {
        h = fnv1a(b"R", h);
        h = fnv1a(name.as_bytes(), h);
        h = fnv1a(&width.to_le_bytes(), h);
    }
    for (name, width, depth) in mems {
        h = fnv1a(b"M", h);
        h = fnv1a(name.as_bytes(), h);
        h = fnv1a(&width.to_le_bytes(), h);
        h = fnv1a(&(depth as u64).to_le_bytes(), h);
    }
    h
}

impl HwSnapshot {
    /// Total architectural state bits captured.
    pub fn state_bits(&self) -> u64 {
        let r: u64 = self.regs.iter().map(|r| r.width as u64).sum();
        let m: u64 = self
            .mems
            .iter()
            .map(|m| m.width as u64 * m.words.len() as u64)
            .sum();
        r + m
    }

    /// Looks up a register's saved bits by hierarchical name.
    pub fn reg(&self, name: &str) -> Option<u64> {
        self.regs.iter().find(|r| r.name == name).map(|r| r.bits)
    }

    /// Looks up a memory image by hierarchical name.
    pub fn mem(&self, name: &str) -> Option<&MemImage> {
        self.mems.iter().find(|m| m.name == name)
    }

    /// Builds a name → bits map for diffing snapshots in diagnostics.
    pub fn reg_map(&self) -> HashMap<&str, u64> {
        self.regs
            .iter()
            .map(|r| (r.name.as_str(), r.bits))
            .collect()
    }

    /// Names of registers whose value differs between `self` and `other`
    /// (used by root-cause diagnosis in examples and tests).
    pub fn diff_regs<'a>(&'a self, other: &'a HwSnapshot) -> Vec<&'a str> {
        let theirs = other.reg_map();
        self.regs
            .iter()
            .filter(|r| theirs.get(r.name.as_str()).is_none_or(|&b| b != r.bits))
            .map(|r| r.name.as_str())
            .collect()
    }

    /// Shape fingerprint of this image (see [`shape_hash_parts`]).
    pub fn shape_hash(&self) -> u64 {
        shape_hash_parts(
            &self.design,
            self.regs.iter().map(|r| (r.name.as_str(), r.width)),
            self.mems
                .iter()
                .map(|m| (m.name.as_str(), m.width, m.words.len())),
        )
    }

    /// Content fingerprint: shape plus every register bit and memory
    /// word. The capture-time `cycle` counter is deliberately excluded
    /// so that two captures of the same hardware state hash equal even
    /// when the second capture happened later (e.g. a re-capture after
    /// a corrupted scan-out).
    pub fn content_hash(&self) -> u64 {
        let mut h = self.shape_hash();
        for r in &self.regs {
            h = fnv1a(&r.bits.to_le_bytes(), h);
        }
        for m in &self.mems {
            for w in &m.words {
                h = fnv1a(&w.to_le_bytes(), h);
            }
        }
        h
    }

    /// Checks the structural invariants every honestly captured image
    /// satisfies: register/memory widths in `1..=64` and every value
    /// normalized to its declared width. A scan chain that dropped or
    /// gained a bit misaligns everything downstream, so some register
    /// image ends up carrying bits outside its width — exactly what
    /// this check catches without needing a reference image.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for r in &self.regs {
            if r.width == 0 || r.width > 64 {
                return Err(format!(
                    "register '{}' has invalid width {}",
                    r.name, r.width
                ));
            }
            if r.width < 64 && r.bits >> r.width != 0 {
                return Err(format!(
                    "register '{}' carries bits outside its {}-bit width ({:#x})",
                    r.name, r.width, r.bits
                ));
            }
        }
        for m in &self.mems {
            if m.width == 0 || m.width > 64 {
                return Err(format!("memory '{}' has invalid width {}", m.name, m.width));
            }
            if m.width < 64 {
                for (i, w) in m.words.iter().enumerate() {
                    if w >> m.width != 0 {
                        return Err(format!(
                            "memory '{}'[{i}] carries bits outside its {}-bit width ({w:#x})",
                            m.name, m.width
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Bytes the save/restore cost models charge for this snapshot: the
    /// design name, each register's name, width and bits, each memory's
    /// name, geometry and words, plus 36 fixed bytes (cycle, counts and
    /// a checksum's worth of framing). Computed, never serialized: a
    /// [`crate::persist::write_full`] image adds its section framing on
    /// top.
    pub fn byte_size(&self) -> usize {
        let mut n = 8 + 4 + self.design.len() + 8 + 4 + 4 + 8;
        for r in &self.regs {
            n += 4 + r.name.len() + 4 + 8;
        }
        for m in &self.mems {
            n += 4 + m.name.len() + 4 + 4 + 8 * m.words.len();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HwSnapshot {
        HwSnapshot {
            design: "soc_top".into(),
            cycle: 1234,
            regs: vec![
                RegImage {
                    name: "u_uart.txfifo_head".into(),
                    width: 4,
                    bits: 7,
                },
                RegImage {
                    name: "u_aes.busy".into(),
                    width: 1,
                    bits: 1,
                },
            ],
            mems: vec![MemImage {
                name: "u_sha.w_mem".into(),
                width: 32,
                words: vec![0xdeadbeef, 0x01020304],
            }],
        }
    }

    #[test]
    fn state_bits_counts_regs_and_mems() {
        assert_eq!(sample().state_bits(), 4 + 1 + 64);
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.reg("u_aes.busy"), Some(1));
        assert_eq!(s.reg("nope"), None);
        assert_eq!(s.mem("u_sha.w_mem").unwrap().words[0], 0xdeadbeef);
    }

    #[test]
    fn diff_regs_reports_changes() {
        let a = sample();
        let mut b = sample();
        b.regs[1].bits = 0;
        assert_eq!(a.diff_regs(&b), vec!["u_aes.busy"]);
        assert!(a.diff_regs(&a.clone()).is_empty());
    }

    #[test]
    fn shape_hash_detects_truncation_and_relabeling() {
        let s = sample();
        let mut truncated = s.clone();
        truncated.regs.pop();
        assert_ne!(s.shape_hash(), truncated.shape_hash());
        let mut relabeled = s.clone();
        relabeled.design = "other".into();
        assert_ne!(s.shape_hash(), relabeled.shape_hash());
        // Values do not affect the shape, only the content hash.
        let mut mutated = s.clone();
        mutated.regs[0].bits ^= 1;
        assert_eq!(s.shape_hash(), mutated.shape_hash());
        assert_ne!(s.content_hash(), mutated.content_hash());
    }

    #[test]
    fn content_hash_ignores_cycle() {
        let s = sample();
        let mut later = s.clone();
        later.cycle += 1000;
        assert_eq!(s.content_hash(), later.content_hash());
    }

    #[test]
    fn validate_catches_out_of_width_bits() {
        let s = sample();
        assert!(s.validate().is_ok());
        let mut bad = s.clone();
        bad.regs[0].bits = 1 << bad.regs[0].width; // one bit above the width
        assert!(bad.validate().unwrap_err().contains("u_uart.txfifo_head"));
        let mut bad = s.clone();
        bad.mems[0].words[1] = 1 << 33; // 32-bit memory word
        assert!(bad.validate().unwrap_err().contains("u_sha.w_mem"));
        let mut bad = s;
        bad.regs[1].width = 65;
        assert!(bad.validate().is_err());
    }
}

/// A delta between two snapshots of the same design: only the registers
/// and memory words that changed. This is the storage optimization the
/// snapshot controller uses when many states share a recent ancestor
/// (cf. the paper's SRAM staging of snapshots for performance): a fork's
/// children start bit-identical to the parent, so their images compress
/// to nearly nothing until they diverge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// Changed registers: (index into the base's `regs`, new bits).
    pub regs: Vec<(u32, u64)>,
    /// Changed memory words: (memory index, word index, new value).
    pub mem_words: Vec<(u32, u32, u64)>,
    /// New cycle counter.
    pub cycle: u64,
}

impl SnapshotDelta {
    /// Computes the delta that turns `base` into `new`.
    ///
    /// # Errors
    ///
    /// Returns a description if the snapshots have different shapes
    /// (different design, register lists or memory layouts).
    pub fn between(base: &HwSnapshot, new: &HwSnapshot) -> Result<SnapshotDelta, String> {
        if base.design != new.design {
            return Err(format!(
                "delta across designs '{}' vs '{}'",
                base.design, new.design
            ));
        }
        if base.regs.len() != new.regs.len() || base.mems.len() != new.mems.len() {
            return Err("snapshot shapes differ".into());
        }
        let mut delta = SnapshotDelta {
            cycle: new.cycle,
            ..Default::default()
        };
        for (i, (b, n)) in base.regs.iter().zip(&new.regs).enumerate() {
            if b.name != n.name || b.width != n.width {
                return Err(format!("register {i} layout differs"));
            }
            if b.bits != n.bits {
                delta.regs.push((i as u32, n.bits));
            }
        }
        for (mi, (bm, nm)) in base.mems.iter().zip(&new.mems).enumerate() {
            if bm.name != nm.name || bm.words.len() != nm.words.len() {
                return Err(format!("memory {mi} layout differs"));
            }
            for (wi, (bw, nw)) in bm.words.iter().zip(&nm.words).enumerate() {
                if bw != nw {
                    delta.mem_words.push((mi as u32, wi as u32, *nw));
                }
            }
        }
        Ok(delta)
    }

    /// Applies the delta to `base`, producing the target snapshot.
    ///
    /// # Errors
    ///
    /// Returns a description on out-of-range indices.
    pub fn apply(&self, base: &HwSnapshot) -> Result<HwSnapshot, String> {
        let mut out = base.clone();
        out.cycle = self.cycle;
        for &(i, bits) in &self.regs {
            let r = out
                .regs
                .get_mut(i as usize)
                .ok_or_else(|| format!("register index {i} out of range"))?;
            r.bits = bits;
        }
        for &(mi, wi, v) in &self.mem_words {
            let m = out
                .mems
                .get_mut(mi as usize)
                .ok_or_else(|| format!("memory index {mi} out of range"))?;
            let w = m
                .words
                .get_mut(wi as usize)
                .ok_or_else(|| format!("word index {wi} out of range"))?;
            *w = v;
        }
        Ok(out)
    }

    /// Bytes the save cost models charge for this delta: 12 per changed
    /// register, 16 per changed memory word, plus 8.
    pub fn byte_size(&self) -> usize {
        8 + self.regs.len() * 12 + self.mem_words.len() * 16
    }

    /// Validates this delta against the base it claims to patch, in
    /// O(delta): every register index must exist in the base and carry
    /// no bits outside that register's width, and every memory word
    /// reference must be in range and normalized. This is the capture
    /// supervision check for delta-native images — the full-image
    /// analogue is [`HwSnapshot::validate`] plus the shape hash, but a
    /// delta shares its base's shape by construction, so only the
    /// patched entries need inspection.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate_against(&self, base: &HwSnapshot) -> Result<(), String> {
        for &(i, bits) in &self.regs {
            let r = base
                .regs
                .get(i as usize)
                .ok_or_else(|| format!("delta register index {i} out of range"))?;
            if r.width < 64 && bits >> r.width != 0 {
                return Err(format!(
                    "delta for register '{}' carries bits outside its {}-bit width ({bits:#x})",
                    r.name, r.width
                ));
            }
        }
        for &(mi, wi, v) in &self.mem_words {
            let m = base
                .mems
                .get(mi as usize)
                .ok_or_else(|| format!("delta memory index {mi} out of range"))?;
            if wi as usize >= m.words.len() {
                return Err(format!(
                    "delta word index {wi} out of range for memory '{}'",
                    m.name
                ));
            }
            if m.width < 64 && v >> m.width != 0 {
                return Err(format!(
                    "delta for memory '{}'[{wi}] carries bits outside its {}-bit width ({v:#x})",
                    m.name, m.width
                ));
            }
        }
        Ok(())
    }
}

/// A capture as a target emits it: either a complete image, or a
/// copy-on-write delta against a shared immutable base the target and
/// its driver both hold. This is the Firecracker full-vs-diff snapshot
/// split applied to hardware state: a target in delta mode tracks which
/// registers and memory words it dirtied since its base capture and
/// ships only those, so capture cost is proportional to activity, not
/// design size. [`SnapshotCapture::materialize`] recovers the full
/// image bit-identically, which is what keeps the canonical result
/// digest invariant under the delta/full choice.
#[derive(Clone, Debug)]
pub enum SnapshotCapture {
    /// A complete image (also the base for subsequent deltas).
    Full(std::sync::Arc<HwSnapshot>),
    /// Only what changed since `base` was captured.
    Delta {
        /// The shared immutable base image this delta patches.
        base: std::sync::Arc<HwSnapshot>,
        /// The changed registers and memory words.
        delta: SnapshotDelta,
    },
}

impl SnapshotCapture {
    /// The design the capture was taken from.
    pub fn design(&self) -> &str {
        match self {
            SnapshotCapture::Full(s) => &s.design,
            SnapshotCapture::Delta { base, .. } => &base.design,
        }
    }

    /// Target cycle counter at capture time.
    pub fn cycle(&self) -> u64 {
        match self {
            SnapshotCapture::Full(s) => s.cycle,
            SnapshotCapture::Delta { delta, .. } => delta.cycle,
        }
    }

    /// Bytes this capture costs to transfer/store: the full image size,
    /// or just the delta's — the quantity the save cost models scale
    /// with.
    pub fn byte_size(&self) -> usize {
        match self {
            SnapshotCapture::Full(s) => s.byte_size(),
            SnapshotCapture::Delta { delta, .. } => delta.byte_size(),
        }
    }

    /// Shape fingerprint (a delta shares its base's shape).
    pub fn shape_hash(&self) -> u64 {
        match self {
            SnapshotCapture::Full(s) => s.shape_hash(),
            SnapshotCapture::Delta { base, .. } => base.shape_hash(),
        }
    }

    /// Structural validation: [`HwSnapshot::validate`] for a full image,
    /// [`SnapshotDelta::validate_against`] (O(delta)) for a delta.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            SnapshotCapture::Full(s) => s.validate(),
            SnapshotCapture::Delta { base, delta } => delta.validate_against(base),
        }
    }

    /// Recovers the complete image: a no-op clone for a full capture,
    /// [`SnapshotDelta::apply`] for a delta. Bit-identical to what a
    /// full capture of the same hardware state would have produced.
    ///
    /// # Errors
    ///
    /// Delta indices out of range (an image that would fail
    /// [`SnapshotCapture::validate`]).
    pub fn materialize(&self) -> Result<HwSnapshot, String> {
        match self {
            SnapshotCapture::Full(s) => Ok((**s).clone()),
            SnapshotCapture::Delta { base, delta } => delta.apply(base),
        }
    }
}

#[cfg(test)]
mod delta_tests {
    use super::*;

    fn base() -> HwSnapshot {
        HwSnapshot {
            design: "d".into(),
            cycle: 10,
            regs: (0..8)
                .map(|i| RegImage {
                    name: format!("r{i}"),
                    width: 32,
                    bits: i,
                })
                .collect(),
            mems: vec![MemImage {
                name: "m".into(),
                width: 32,
                words: vec![0; 16],
            }],
        }
    }

    #[test]
    fn delta_roundtrip() {
        let b = base();
        let mut n = b.clone();
        n.cycle = 99;
        n.regs[3].bits = 0xdead;
        n.mems[0].words[7] = 42;
        let d = SnapshotDelta::between(&b, &n).unwrap();
        assert_eq!(d.regs, vec![(3, 0xdead)]);
        assert_eq!(d.mem_words, vec![(0, 7, 42)]);
        assert_eq!(d.apply(&b).unwrap(), n);
        assert!(d.byte_size() < b.byte_size() / 4);
    }

    #[test]
    fn identical_snapshots_have_empty_delta() {
        let b = base();
        let d = SnapshotDelta::between(&b, &b.clone()).unwrap();
        assert!(d.regs.is_empty() && d.mem_words.is_empty());
        assert_eq!(d.apply(&b).unwrap(), b);
    }

    #[test]
    fn cross_design_delta_rejected() {
        let b = base();
        let mut o = base();
        o.design = "other".into();
        assert!(SnapshotDelta::between(&b, &o).is_err());
        let mut o = base();
        o.regs.pop();
        assert!(SnapshotDelta::between(&b, &o).is_err());
    }

    #[test]
    fn validate_against_checks_ranges_and_widths() {
        let b = base();
        let ok = SnapshotDelta {
            regs: vec![(3, 0xdead)],
            mem_words: vec![(0, 7, 42)],
            cycle: 1,
        };
        assert!(ok.validate_against(&b).is_ok());
        let bad_idx = SnapshotDelta {
            regs: vec![(99, 0)],
            ..Default::default()
        };
        assert!(bad_idx.validate_against(&b).is_err());
        let bad_word = SnapshotDelta {
            mem_words: vec![(0, 999, 0)],
            ..Default::default()
        };
        assert!(bad_word.validate_against(&b).is_err());
        let wide = SnapshotDelta {
            regs: vec![(0, 1 << 33)], // 32-bit register
            ..Default::default()
        };
        assert!(wide.validate_against(&b).unwrap_err().contains("width"));
        let wide_mem = SnapshotDelta {
            mem_words: vec![(0, 0, 1 << 40)], // 32-bit memory
            ..Default::default()
        };
        assert!(wide_mem.validate_against(&b).is_err());
    }

    #[test]
    fn capture_materializes_bit_identically() {
        let b = base();
        let mut n = b.clone();
        n.cycle = 77;
        n.regs[5].bits = 9;
        n.mems[0].words[2] = 3;
        let d = SnapshotDelta::between(&b, &n).unwrap();
        let cap = SnapshotCapture::Delta {
            base: std::sync::Arc::new(b.clone()),
            delta: d,
        };
        assert_eq!(cap.materialize().unwrap(), n);
        assert_eq!(cap.shape_hash(), n.shape_hash());
        assert_eq!(cap.cycle(), 77);
        assert!(cap.byte_size() < b.byte_size() / 4);
        assert!(cap.validate().is_ok());
        let full = SnapshotCapture::Full(std::sync::Arc::new(n.clone()));
        assert_eq!(full.materialize().unwrap(), n);
        assert_eq!(full.byte_size(), n.byte_size());
    }

    #[test]
    fn apply_range_checks() {
        let b = base();
        let d = SnapshotDelta {
            regs: vec![(99, 0)],
            mem_words: vec![],
            cycle: 0,
        };
        assert!(d.apply(&b).is_err());
        let d = SnapshotDelta {
            regs: vec![],
            mem_words: vec![(0, 999, 0)],
            cycle: 0,
        };
        assert!(d.apply(&b).is_err());
    }
}
