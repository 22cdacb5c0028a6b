//! The canonical hardware-snapshot format.
//!
//! A [`HwSnapshot`] is the paper's "offline representation" of hardware
//! state: every flip-flop register and every memory of the design under
//! test. Both targets produce and consume this one format, which is
//! precisely what makes multi-target state transfer (FPGA → simulator
//! and back, paper §III-B "target orchestration") possible: a snapshot
//! saved on one target restores bit-exactly on the other.
//!
//! An image has two halves, like the paper's scan-chain controller,
//! which moves only values in chain order while the chain map names
//! them once per design:
//!
//! * a [`SnapshotLayout`], shared through an [`Arc`] by every image of
//!   one design: the design name, the register `(name, width)` and
//!   memory `(name, width, depth)` lists in scan-chain order, and the
//!   shape hash and image size computed from them once;
//! * the values: the cycle counter, one `u64` per register and the words
//!   of each memory, in the layout's order.
//!
//! An image whose value vectors match its layout — every honest capture
//! — answers [`HwSnapshot::shape_hash`] and [`HwSnapshot::byte_size`]
//! from the layout without touching a name. A truncated image, or one
//! with values its layout does not name, walks the names instead and
//! gets exactly what an image naming every entry would; a relabelled
//! image carries a layout of its own. So damage still never hashes like
//! the design's shape.
//!
//! Snapshots persist as files of the section codec in [`crate::persist`]
//! — the analogue of the CRIU checkpoint file the paper stores on
//! persistent storage — and [`HwSnapshot::byte_size`] is the size the
//! save/restore cost models charge for.

use crate::TargetError;
use std::collections::HashMap;
use std::sync::Arc;

/// One register's entry in a [`SnapshotLayout`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegSlot {
    /// Hierarchical register name (e.g. `u_aes.round_cnt`).
    pub name: String,
    /// Width in bits (1..=64 in a valid image).
    pub width: u32,
}

/// One memory's entry in a [`SnapshotLayout`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemSlot {
    /// Hierarchical memory name.
    pub name: String,
    /// Word width in bits.
    pub width: u32,
    /// Number of words.
    pub depth: usize,
}

/// The per-design half of a snapshot image, the analogue of the scan
/// chain map: what each value of a [`HwSnapshot`] is, in chain order.
/// Built once per design by a target (or once per decoded file) and
/// shared by every image through an [`Arc`]; immutable, so the shape
/// hash and image size cached at construction always match the names.
#[derive(Clone, Debug)]
pub struct SnapshotLayout {
    design: String,
    regs: Vec<RegSlot>,
    mems: Vec<MemSlot>,
    /// [`shape_hash_parts`] over the lists above.
    shape_hash: u64,
    /// [`HwSnapshot::byte_size`] of an image that fits this layout.
    byte_size: usize,
}

impl SnapshotLayout {
    /// Builds a layout, computing its shape hash and image size.
    pub fn new(design: impl Into<String>, regs: Vec<RegSlot>, mems: Vec<MemSlot>) -> Self {
        let design = design.into();
        let shape_hash = shape_hash_parts(
            &design,
            regs.iter().map(|r| (r.name.as_str(), r.width)),
            mems.iter().map(|m| (m.name.as_str(), m.width, m.depth)),
        );
        let byte_size = byte_size_parts(
            &design,
            regs.iter().map(|r| r.name.as_str()),
            mems.iter().map(|m| (m.name.as_str(), m.depth)),
        );
        SnapshotLayout {
            design,
            regs,
            mems,
            shape_hash,
            byte_size,
        }
    }

    /// Name of the (flattened) design.
    pub fn design(&self) -> &str {
        &self.design
    }

    /// Registers, in scan-chain order.
    pub fn regs(&self) -> &[RegSlot] {
        &self.regs
    }

    /// Memories, in scan-chain order.
    pub fn mems(&self) -> &[MemSlot] {
        &self.mems
    }

    /// The shape fingerprint of every image that fits this layout (see
    /// [`shape_hash_parts`]).
    pub fn shape_hash(&self) -> u64 {
        self.shape_hash
    }

    /// Restore admission, decided without touching the target: whether
    /// `snap` may be loaded onto a target whose images carry this
    /// layout. The image must name this design and hold exactly this
    /// layout's registers and memories, in its order, with equal names,
    /// widths and depths; the names are compared only when the image's
    /// layout is not this one (an image decoded from a file, or captured
    /// on another target). Every value must fit its width. An image that
    /// passes cannot fail mid-restore, which is what keeps both targets'
    /// restores all-or-nothing.
    ///
    /// # Errors
    ///
    /// [`TargetError::DesignMismatch`] for an image of another design,
    /// [`TargetError::CorruptSnapshot`] naming the first other mismatch.
    pub fn admit(&self, snap: &HwSnapshot) -> Result<(), TargetError> {
        let corrupt = |m: String| Err(TargetError::CorruptSnapshot(m));
        if !std::ptr::eq(Arc::as_ptr(&snap.layout), self) {
            if snap.design() != self.design {
                return Err(TargetError::DesignMismatch {
                    expected: snap.design().to_string(),
                    found: self.design.clone(),
                });
            }
            first_difference("register", snap.layout.regs(), &self.regs)?;
            first_difference("memory", snap.layout.mems(), &self.mems)?;
        }
        if snap.regs.len() != self.regs.len() || snap.mems.len() != self.mems.len() {
            return corrupt(format!(
                "image holds {} registers and {} memories, design has {} and {}",
                snap.regs.len(),
                snap.mems.len(),
                self.regs.len(),
                self.mems.len()
            ));
        }
        for (&bits, slot) in snap.regs.iter().zip(&self.regs) {
            if slot.width < 64 && bits >> slot.width != 0 {
                return corrupt(format!(
                    "register '{}' value {bits:#x} exceeds its {} bits",
                    slot.name, slot.width
                ));
            }
        }
        for (words, slot) in snap.mems.iter().zip(&self.mems) {
            if words.len() != slot.depth {
                return corrupt(format!(
                    "memory '{}' has {} words, design has {}",
                    slot.name,
                    words.len(),
                    slot.depth
                ));
            }
            if slot.width < 64 {
                if let Some(wi) = words.iter().position(|&w| w >> slot.width != 0) {
                    return corrupt(format!(
                        "memory '{}'[{wi}] value exceeds its {} bits",
                        slot.name, slot.width
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Refuses an image whose `what` list differs from the design's, naming
/// the first entry that differs (a missing entry reads `None`).
fn first_difference<T: PartialEq + std::fmt::Debug>(
    what: &str,
    image: &[T],
    design: &[T],
) -> Result<(), TargetError> {
    if image == design {
        return Ok(());
    }
    let i = image.iter().zip(design).take_while(|(a, b)| a == b).count();
    Err(TargetError::CorruptSnapshot(format!(
        "{what} {i} of the image is {:?}, design has {:?}",
        image.get(i),
        design.get(i)
    )))
}

impl PartialEq for SnapshotLayout {
    fn eq(&self, other: &Self) -> bool {
        // The cached hash settles almost every mismatch without a name
        // compare; equal hashes still compare the names, so equality is
        // exact.
        self.shape_hash == other.shape_hash
            && self.design == other.design
            && self.regs == other.regs
            && self.mems == other.mems
    }
}

impl Eq for SnapshotLayout {}

impl Default for SnapshotLayout {
    fn default() -> Self {
        SnapshotLayout::new(String::new(), Vec::new(), Vec::new())
    }
}

/// A complete hardware snapshot: the set `S_hw` of all hardware register
/// values of the peripherals under test at a point in time (paper §IV-B).
#[derive(Clone, Debug, Default)]
pub struct HwSnapshot {
    /// What the values are: names and geometry, shared by every image of
    /// the design.
    pub layout: Arc<SnapshotLayout>,
    /// Target cycle counter at capture time.
    pub cycle: u64,
    /// Register values, in the layout's (scan-chain) order.
    pub regs: Vec<u64>,
    /// Memory words, one vector per memory in the layout's order.
    pub mems: Vec<Vec<u64>>,
}

impl PartialEq for HwSnapshot {
    fn eq(&self, other: &Self) -> bool {
        // `Arc` equality tries the pointer first: images of one layout
        // compare values only.
        self.cycle == other.cycle
            && self.regs == other.regs
            && self.mems == other.mems
            && self.layout == other.layout
    }
}

impl Eq for HwSnapshot {}

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

/// [`HwSnapshot::byte_size`] from the names and memory depths.
fn byte_size_parts<'a>(
    design: &str,
    regs: impl Iterator<Item = &'a str>,
    mems: impl Iterator<Item = (&'a str, usize)>,
) -> usize {
    let mut n = 8 + 4 + design.len() + 8 + 4 + 4 + 8;
    for name in regs {
        n += 4 + name.len() + 4 + 8;
    }
    for (name, depth) in mems {
        n += 4 + name.len() + 4 + 4 + 8 * depth;
    }
    n
}

impl HwSnapshot {
    /// Assembles an image from its layout and values.
    pub fn new(
        layout: Arc<SnapshotLayout>,
        cycle: u64,
        regs: Vec<u64>,
        mems: Vec<Vec<u64>>,
    ) -> Self {
        HwSnapshot {
            layout,
            cycle,
            regs,
            mems,
        }
    }

    /// Name of the (flattened) design this snapshot was taken from; used
    /// to reject cross-design restores.
    pub fn design(&self) -> &str {
        &self.layout.design
    }

    /// Whether the values have exactly the layout's geometry: one value
    /// per register and the declared depth for every memory. Every
    /// honest capture does, and only then are the shape hash and size
    /// read from the layout.
    pub fn fits_layout(&self) -> bool {
        let l = &*self.layout;
        self.regs.len() == l.regs.len()
            && self.mems.len() == l.mems.len()
            && self
                .mems
                .iter()
                .zip(&l.mems)
                .all(|(w, m)| w.len() == m.depth)
    }

    /// Moves the image onto a copy of its layout under another design
    /// name: how a relabelled (or foreign) image is modelled.
    pub fn relabel(&mut self, design: impl Into<String>) {
        let l = &*self.layout;
        self.layout = Arc::new(SnapshotLayout::new(design, l.regs.clone(), l.mems.clone()));
    }

    /// Name and width of register `i`. A value past the end of the
    /// layout has no name there: it reads as an unnamed register of
    /// width 0, which [`HwSnapshot::validate`] rejects.
    pub(crate) fn reg_slot(&self, i: usize) -> (&str, u32) {
        self.layout
            .regs
            .get(i)
            .map_or(("", 0), |s| (s.name.as_str(), s.width))
    }

    /// Name and word width of memory `i` (unnamed, width 0 past the end
    /// of the layout, as for registers).
    fn mem_slot(&self, i: usize) -> (&str, u32) {
        self.layout
            .mems
            .get(i)
            .map_or(("", 0), |s| (s.name.as_str(), s.width))
    }

    /// The registers as `(name, width, bits)`, in chain order; a value
    /// the layout does not name reads as `("", 0, bits)`.
    pub fn named_regs(&self) -> impl Iterator<Item = (&str, u32, u64)> + '_ {
        let slots = self.layout.regs.iter().map(|s| (s.name.as_str(), s.width));
        slots
            .chain(std::iter::repeat(("", 0)))
            .zip(&self.regs)
            .map(|((name, width), &bits)| (name, width, bits))
    }

    /// The memories as `(name, width, words)`, in chain order; a memory
    /// the layout does not name reads as `("", 0, words)`.
    pub fn named_mems(&self) -> impl Iterator<Item = (&str, u32, &[u64])> + '_ {
        let slots = self.layout.mems.iter().map(|s| (s.name.as_str(), s.width));
        slots
            .chain(std::iter::repeat(("", 0)))
            .zip(&self.mems)
            .map(|((name, width), words)| (name, width, words.as_slice()))
    }

    /// Total architectural state bits captured.
    pub fn state_bits(&self) -> u64 {
        let r: u64 = self.named_regs().map(|(_, w, _)| u64::from(w)).sum();
        let m: u64 = self
            .named_mems()
            .map(|(_, w, words)| u64::from(w) * words.len() as u64)
            .sum();
        r + m
    }

    /// Looks up a register's saved bits by hierarchical name.
    pub fn reg(&self, name: &str) -> Option<u64> {
        self.named_regs()
            .find(|&(n, _, _)| n == name)
            .map(|(_, _, bits)| bits)
    }

    /// Looks up a memory's saved words by hierarchical name.
    pub fn mem(&self, name: &str) -> Option<&[u64]> {
        self.named_mems()
            .find(|&(n, _, _)| n == name)
            .map(|(_, _, words)| words)
    }

    /// Builds a name → bits map for diffing snapshots in diagnostics.
    pub fn reg_map(&self) -> HashMap<&str, u64> {
        self.named_regs().map(|(n, _, bits)| (n, bits)).collect()
    }

    /// Names of registers whose value differs between `self` and `other`
    /// (used by root-cause diagnosis in examples and tests).
    pub fn diff_regs<'a>(&'a self, other: &'a HwSnapshot) -> Vec<&'a str> {
        let theirs = other.reg_map();
        self.named_regs()
            .filter(|(n, _, bits)| theirs.get(n).is_none_or(|b| b != bits))
            .map(|(n, _, _)| n)
            .collect()
    }

    /// Shape fingerprint of this image (see [`shape_hash_parts`]): the
    /// layout's cached hash when the values fit it, otherwise a walk
    /// over the names the image carries values for.
    pub fn shape_hash(&self) -> u64 {
        if self.fits_layout() {
            return self.layout.shape_hash;
        }
        shape_hash_parts(
            self.design(),
            self.named_regs().map(|(n, w, _)| (n, w)),
            self.named_mems().map(|(n, w, words)| (n, w, words.len())),
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
            h = fnv1a(&r.to_le_bytes(), h);
        }
        for m in &self.mems {
            for w in m {
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
        for (name, width, bits) in self.named_regs() {
            if width == 0 || width > 64 {
                return Err(format!("register '{name}' has invalid width {width}"));
            }
            if width < 64 && bits >> width != 0 {
                return Err(format!(
                    "register '{name}' carries bits outside its {width}-bit width ({bits:#x})"
                ));
            }
        }
        for (name, width, words) in self.named_mems() {
            if width == 0 || width > 64 {
                return Err(format!("memory '{name}' has invalid width {width}"));
            }
            if width < 64 {
                for (i, w) in words.iter().enumerate() {
                    if w >> width != 0 {
                        return Err(format!(
                            "memory '{name}'[{i}] carries bits outside its {width}-bit width ({w:#x})"
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
    /// top. Read from the layout when the values fit it.
    pub fn byte_size(&self) -> usize {
        if self.fits_layout() {
            return self.layout.byte_size;
        }
        byte_size_parts(
            self.design(),
            self.named_regs().map(|(n, _, _)| n),
            self.named_mems().map(|(n, _, words)| (n, words.len())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HwSnapshot {
        let layout = SnapshotLayout::new(
            "soc_top",
            vec![
                RegSlot {
                    name: "u_uart.txfifo_head".into(),
                    width: 4,
                },
                RegSlot {
                    name: "u_aes.busy".into(),
                    width: 1,
                },
            ],
            vec![MemSlot {
                name: "u_sha.w_mem".into(),
                width: 32,
                depth: 2,
            }],
        );
        HwSnapshot::new(
            Arc::new(layout),
            1234,
            vec![7, 1],
            vec![vec![0xdeadbeef, 0x01020304]],
        )
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
        assert_eq!(s.mem("u_sha.w_mem").unwrap()[0], 0xdeadbeef);
    }

    #[test]
    fn diff_regs_reports_changes() {
        let a = sample();
        let mut b = sample();
        b.regs[1] = 0;
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
        relabeled.relabel("other");
        assert_ne!(s.shape_hash(), relabeled.shape_hash());
        // Values do not affect the shape, only the content hash.
        let mut mutated = s.clone();
        mutated.regs[0] ^= 1;
        assert_eq!(s.shape_hash(), mutated.shape_hash());
        assert_ne!(s.content_hash(), mutated.content_hash());
    }

    #[test]
    fn fitting_images_read_shape_and_size_from_the_layout() {
        let s = sample();
        assert!(s.fits_layout());
        assert_eq!(s.shape_hash(), s.layout.shape_hash());
        // 36 fixed + design 7 + regs (16 + 18) + (16 + 10) + mem
        // (12 + 11 + 16).
        assert_eq!(s.byte_size(), 36 + 7 + 34 + 26 + 39);
        let mut short_mem = s.clone();
        short_mem.mems[0].pop();
        assert!(!short_mem.fits_layout());
        assert_eq!(short_mem.byte_size(), s.byte_size() - 8);
        assert_ne!(short_mem.shape_hash(), s.shape_hash());
        // A value the layout does not name is an unnamed width-0
        // register: a different shape, and invalid.
        let mut extra = s.clone();
        extra.regs.push(0);
        assert_ne!(extra.shape_hash(), s.shape_hash());
        assert!(extra.validate().unwrap_err().contains("invalid width 0"));
    }

    #[test]
    fn content_hash_ignores_cycle() {
        let s = sample();
        let mut later = s.clone();
        later.cycle += 1000;
        assert_eq!(s.content_hash(), later.content_hash());
    }

    #[test]
    fn equality_compares_layouts_by_content() {
        let s = sample();
        let mut copy = s.clone();
        copy.layout = Arc::new((*s.layout).clone());
        assert!(!Arc::ptr_eq(&s.layout, &copy.layout));
        assert_eq!(s, copy);
        copy.relabel("other");
        assert_ne!(s, copy);
    }

    #[test]
    fn validate_catches_out_of_width_bits() {
        let s = sample();
        assert!(s.validate().is_ok());
        let mut bad = s.clone();
        bad.regs[0] = 1 << 4; // one bit above the 4-bit width
        assert!(bad.validate().unwrap_err().contains("u_uart.txfifo_head"));
        let mut bad = s.clone();
        bad.mems[0][1] = 1 << 33; // 32-bit memory word
        assert!(bad.validate().unwrap_err().contains("u_sha.w_mem"));
        let mut regs = s.layout.regs().to_vec();
        regs[1].width = 65;
        let mut bad = s.clone();
        bad.layout = Arc::new(SnapshotLayout::new(
            "soc_top",
            regs,
            s.layout.mems().to_vec(),
        ));
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
        // Two images that fit one shared layout have one shape without a
        // name compare; anything else compares the names it carries.
        let shared =
            Arc::ptr_eq(&base.layout, &new.layout) && base.fits_layout() && new.fits_layout();
        if !shared {
            if base.design() != new.design() {
                return Err(format!(
                    "delta across designs '{}' vs '{}'",
                    base.design(),
                    new.design()
                ));
            }
            if base.regs.len() != new.regs.len() || base.mems.len() != new.mems.len() {
                return Err("snapshot shapes differ".into());
            }
            for (i, ((bn, bw, _), (nn, nw, _))) in
                base.named_regs().zip(new.named_regs()).enumerate()
            {
                if bn != nn || bw != nw {
                    return Err(format!("register {i} layout differs"));
                }
            }
            for (mi, ((bn, _, bw), (nn, _, nw))) in
                base.named_mems().zip(new.named_mems()).enumerate()
            {
                if bn != nn || bw.len() != nw.len() {
                    return Err(format!("memory {mi} layout differs"));
                }
            }
        }
        let mut delta = SnapshotDelta {
            cycle: new.cycle,
            ..Default::default()
        };
        for (i, (b, n)) in base.regs.iter().zip(&new.regs).enumerate() {
            if b != n {
                delta.regs.push((i as u32, *n));
            }
        }
        for (mi, (bm, nm)) in base.mems.iter().zip(&new.mems).enumerate() {
            for (wi, (bw, nw)) in bm.iter().zip(nm).enumerate() {
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
            *r = bits;
        }
        for &(mi, wi, v) in &self.mem_words {
            let m = out
                .mems
                .get_mut(mi as usize)
                .ok_or_else(|| format!("memory index {mi} out of range"))?;
            let w = m
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

    /// Whether a target should promote its current state to a new full
    /// base instead of shipping this delta against `base`: at a quarter
    /// of the base's bytes the delta is no longer meaningfully cheaper,
    /// and every later delta would only grow from there.
    pub fn needs_rebase(&self, base: &HwSnapshot) -> bool {
        self.byte_size() * 4 >= base.byte_size()
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
            if i as usize >= base.regs.len() {
                return Err(format!("delta register index {i} out of range"));
            }
            let (name, width) = base.reg_slot(i as usize);
            if width < 64 && bits >> width != 0 {
                return Err(format!(
                    "delta for register '{name}' carries bits outside its {width}-bit width ({bits:#x})"
                ));
            }
        }
        for &(mi, wi, v) in &self.mem_words {
            let words = base
                .mems
                .get(mi as usize)
                .ok_or_else(|| format!("delta memory index {mi} out of range"))?;
            let (name, width) = base.mem_slot(mi as usize);
            if wi as usize >= words.len() {
                return Err(format!(
                    "delta word index {wi} out of range for memory '{name}'"
                ));
            }
            if width < 64 && v >> width != 0 {
                return Err(format!(
                    "delta for memory '{name}'[{wi}] carries bits outside its {width}-bit width ({v:#x})"
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
    Full(Arc<HwSnapshot>),
    /// Only what changed since `base` was captured.
    Delta {
        /// The shared immutable base image this delta patches.
        base: Arc<HwSnapshot>,
        /// The changed registers and memory words.
        delta: SnapshotDelta,
    },
}

impl SnapshotCapture {
    /// The design the capture was taken from.
    pub fn design(&self) -> &str {
        match self {
            SnapshotCapture::Full(s) => s.design(),
            SnapshotCapture::Delta { base, .. } => base.design(),
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
        let layout = SnapshotLayout::new(
            "d",
            (0..8)
                .map(|i| RegSlot {
                    name: format!("r{i}"),
                    width: 32,
                })
                .collect(),
            vec![MemSlot {
                name: "m".into(),
                width: 32,
                depth: 16,
            }],
        );
        HwSnapshot::new(Arc::new(layout), 10, (0..8).collect(), vec![vec![0; 16]])
    }

    #[test]
    fn delta_roundtrip() {
        let b = base();
        let mut n = b.clone();
        n.cycle = 99;
        n.regs[3] = 0xdead;
        n.mems[0][7] = 42;
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
        o.relabel("other");
        assert!(SnapshotDelta::between(&b, &o).is_err());
        let mut o = base();
        o.regs.pop();
        assert!(SnapshotDelta::between(&b, &o).is_err());
        // A copy of the layout (not the shared one) still diffs by name.
        let mut o = base();
        o.layout = Arc::new((*b.layout).clone());
        o.regs[2] = 5;
        assert_eq!(SnapshotDelta::between(&b, &o).unwrap().regs, vec![(2, 5)]);
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
        n.regs[5] = 9;
        n.mems[0][2] = 3;
        let d = SnapshotDelta::between(&b, &n).unwrap();
        let cap = SnapshotCapture::Delta {
            base: Arc::new(b.clone()),
            delta: d,
        };
        assert_eq!(cap.materialize().unwrap(), n);
        assert_eq!(cap.shape_hash(), n.shape_hash());
        assert_eq!(cap.cycle(), 77);
        assert!(cap.byte_size() < b.byte_size() / 4);
        assert!(cap.validate().is_ok());
        let full = SnapshotCapture::Full(Arc::new(n.clone()));
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
