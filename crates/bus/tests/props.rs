//! Property tests for snapshot serialization and delta compression:
//! `SnapshotDelta::between(a, b).apply(a)` must reproduce `b` exactly,
//! and `diff_regs` must agree with the delta's register set. These are
//! the invariants the incremental snapshot transfer (HardSnap §IV-C)
//! depends on. Images keep their names in a shared layout; the hashes,
//! size and validation of any image, honest or damaged, must equal a
//! reference that walks a name per entry.

use hardsnap_bus::fault::{flip_scan_bit, truncate_capture, zero_tail_readback};
use hardsnap_bus::persist::write_full;
use hardsnap_bus::{
    shape_hash_parts, HwSnapshot, MemSlot, PersistedImage, RegSlot, SnapshotDelta, SnapshotLayout,
};
use hardsnap_util::prop::from_fn;
use hardsnap_util::prop_check;
use hardsnap_util::Rng;
use std::sync::Arc;

fn mask(w: u32) -> u64 {
    if w == 64 {
        u64::MAX
    } else {
        (1 << w) - 1
    }
}

/// An image with a layout of its own: `widths` per register and 32-bit
/// memories of random depth.
fn image_with_widths(rng: &mut Rng, widths: &[u32]) -> HwSnapshot {
    let depths: Vec<usize> = (0..rng.gen_range(0usize..3))
        .map(|_| rng.gen_range(1usize..32))
        .collect();
    let layout = SnapshotLayout::new(
        "prop",
        widths
            .iter()
            .enumerate()
            .map(|(i, &width)| RegSlot {
                name: format!("r{i}"),
                width,
            })
            .collect(),
        depths
            .iter()
            .enumerate()
            .map(|(i, &depth)| MemSlot {
                name: format!("m{i}"),
                width: 32,
                depth,
            })
            .collect(),
    );
    let regs = widths
        .iter()
        .map(|&w| rng.next_u64() & mask(w.min(64)))
        .collect();
    let mems = depths
        .iter()
        .map(|&d| (0..d).map(|_| rng.next_u64() & 0xffff_ffff).collect())
        .collect();
    HwSnapshot::new(Arc::new(layout), rng.next_u64(), regs, mems)
}

fn arb_snapshot(rng: &mut Rng) -> HwSnapshot {
    let widths: Vec<u32> = (0..rng.gen_range(1usize..12))
        .map(|_| rng.gen_range(1u32..=64))
        .collect();
    image_with_widths(rng, &widths)
}

/// Mutates a random subset of `snap`'s state, keeping the shape.
fn perturb(rng: &mut Rng, snap: &HwSnapshot) -> HwSnapshot {
    let mut out = snap.clone();
    out.cycle = rng.next_u64();
    for (r, slot) in out.regs.iter_mut().zip(snap.layout.regs()) {
        if rng.gen_bool(0.4) {
            *r = rng.next_u64() & mask(slot.width);
        }
    }
    for m in &mut out.mems {
        for w in m {
            if rng.gen_bool(0.2) {
                *w = rng.next_u64() & 0xffff_ffff;
            }
        }
    }
    out
}

#[test]
fn delta_between_then_apply_is_identity() {
    prop_check!(cases = 128, seed = 0xDE17A_ABB, (pair in from_fn(|rng: &mut Rng| {
        let base = arb_snapshot(rng);
        let new = perturb(rng, &base);
        (base, new)
    })) => {
        let (base, new) = pair;
        let delta = SnapshotDelta::between(&base, &new).unwrap();
        assert_eq!(delta.apply(&base).unwrap(), new);
        // The delta names exactly the registers diff_regs reports.
        let mut from_delta: Vec<&str> = delta
            .regs
            .iter()
            .map(|&(i, _)| base.layout.regs()[i as usize].name.as_str())
            .collect();
        from_delta.sort_unstable();
        let mut from_diff = base.diff_regs(&new);
        from_diff.sort_unstable();
        assert_eq!(from_delta, from_diff);
        // A copy of the layout is foreign to the base's `Arc`: the delta
        // is found by comparing names, and is the same.
        let mut foreign = new.clone();
        foreign.layout = Arc::new((*base.layout).clone());
        assert_eq!(SnapshotDelta::between(&base, &foreign).unwrap(), delta);
    });
}

#[test]
fn empty_delta_for_identical_snapshots() {
    prop_check!(cases = 64, seed = 0xE401_DE17, (snap in from_fn(arb_snapshot)) => {
        let delta = SnapshotDelta::between(&snap, &snap).unwrap();
        assert!(delta.regs.is_empty());
        assert!(delta.mem_words.is_empty());
        assert!(snap.diff_regs(&snap).is_empty());
        assert_eq!(delta.apply(&snap).unwrap(), snap);
    });
}

#[test]
fn bytes_roundtrip_and_corrupt_header_is_an_error() {
    prop_check!(cases = 64, seed = 0xB17E_5AFE, (snap in from_fn(arb_snapshot)) => {
        let bytes = write_full(&snap);
        match PersistedImage::from_bytes(&bytes).unwrap() {
            PersistedImage::Full(back) => assert_eq!(back, snap),
            other => panic!("full image decoded as {other:?}"),
        }
        // Truncations must fail cleanly, never panic.
        for cut in [0, 1, bytes.len() / 2, bytes.len().saturating_sub(1)] {
            if cut < bytes.len() {
                assert!(PersistedImage::from_bytes(&bytes[..cut]).is_err());
            }
        }
    });
}

/// An image as a list of named entries, the form that carries a name
/// per register and memory: values past the end of the layout have
/// the empty name and width 0.
struct Named {
    design: String,
    regs: Vec<(String, u32, u64)>,
    mems: Vec<(String, u32, Vec<u64>)>,
}

impl Named {
    fn of(snap: &HwSnapshot) -> Named {
        let reg = |i: usize| snap.layout.regs().get(i).map(|s| (s.name.clone(), s.width));
        let mem = |i: usize| snap.layout.mems().get(i).map(|s| (s.name.clone(), s.width));
        Named {
            design: snap.layout.design().to_string(),
            regs: (0..snap.regs.len())
                .map(|i| {
                    let (name, width) = reg(i).unwrap_or_default();
                    (name, width, snap.regs[i])
                })
                .collect(),
            mems: (0..snap.mems.len())
                .map(|i| {
                    let (name, width) = mem(i).unwrap_or_default();
                    (name, width, snap.mems[i].clone())
                })
                .collect(),
        }
    }

    fn shape_hash(&self) -> u64 {
        shape_hash_parts(
            &self.design,
            self.regs.iter().map(|(n, w, _)| (n.as_str(), *w)),
            self.mems
                .iter()
                .map(|(n, w, words)| (n.as_str(), *w, words.len())),
        )
    }

    fn content_hash(&self) -> u64 {
        let mut h = self.shape_hash();
        for (_, _, bits) in &self.regs {
            h = fnv1a(&bits.to_le_bytes(), h);
        }
        for (_, _, words) in &self.mems {
            for w in words {
                h = fnv1a(&w.to_le_bytes(), h);
            }
        }
        h
    }

    fn byte_size(&self) -> usize {
        let mut n = 36 + self.design.len();
        for (name, _, _) in &self.regs {
            n += 16 + name.len();
        }
        for (name, _, words) in &self.mems {
            n += 12 + name.len() + 8 * words.len();
        }
        n
    }

    fn validate(&self) -> Result<(), String> {
        for (name, width, bits) in &self.regs {
            if *width == 0 || *width > 64 {
                return Err(format!("register '{name}' has invalid width {width}"));
            }
            if *width < 64 && bits >> width != 0 {
                return Err(format!(
                    "register '{name}' carries bits outside its {width}-bit width ({bits:#x})"
                ));
            }
        }
        for (name, width, words) in &self.mems {
            if *width == 0 || *width > 64 {
                return Err(format!("memory '{name}' has invalid width {width}"));
            }
            if *width < 64 {
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
}

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The ways an image gets damaged in transit or by hand.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Damage {
    None,
    ScanFlip,
    Truncate,
    ZeroTail,
    Relabel,
    ShortMemory,
    ExtraValue,
}

const DAMAGES: [Damage; 7] = [
    Damage::None,
    Damage::ScanFlip,
    Damage::Truncate,
    Damage::ZeroTail,
    Damage::Relabel,
    Damage::ShortMemory,
    Damage::ExtraValue,
];

fn damage(snap: &mut HwSnapshot, how: Damage, rng: &mut Rng) {
    match how {
        Damage::None => {}
        Damage::ScanFlip => flip_scan_bit(snap, rng),
        Damage::Truncate => truncate_capture(snap, rng),
        Damage::ZeroTail => zero_tail_readback(snap, rng),
        Damage::Relabel => snap.relabel("prop-relabelled"),
        Damage::ShortMemory => {
            if let Some(m) = snap.mems.last_mut() {
                m.pop();
            } else {
                snap.regs.pop();
            }
        }
        Damage::ExtraValue => snap.regs.push(rng.next_u64()),
    }
}

#[test]
fn hashes_size_and_validation_match_a_name_per_entry_reference() {
    prop_check!(cases = 256, seed = 0x51A7_E0A7, (case in from_fn(|rng: &mut Rng| {
        // Mostly valid widths, now and then an invalid 0 or 65.
        let widths: Vec<u32> = (0..rng.gen_range(0usize..12))
            .map(|_| match rng.gen_range(0u32..40) {
                0 => 0,
                1 => 65,
                _ => rng.gen_range(1u32..=64),
            })
            .collect();
        let honest = image_with_widths(rng, &widths);
        let how = DAMAGES[rng.gen_range(0..DAMAGES.len())];
        let mut damaged = honest.clone();
        damage(&mut damaged, how, rng);
        (honest, damaged, how)
    })) => {
        let (honest, damaged, how) = case;
        for snap in [&honest, &damaged] {
            let named = Named::of(snap);
            assert_eq!(snap.shape_hash(), named.shape_hash(), "{how:?}");
            assert_eq!(snap.content_hash(), named.content_hash(), "{how:?}");
            assert_eq!(snap.byte_size(), named.byte_size(), "{how:?}");
            assert_eq!(snap.validate(), named.validate(), "{how:?}");
        }
        assert!(honest.fits_layout());
        assert_eq!(honest.shape_hash(), honest.layout.shape_hash());
        // Damage that changes the shape or a width is still caught by the
        // capture checks: the shape check or validation.
        let caught = damaged.shape_hash() != honest.layout.shape_hash()
            || damaged.validate().is_err();
        match how {
            Damage::ScanFlip | Damage::Truncate | Damage::Relabel | Damage::ExtraValue => {
                assert!(caught, "{how:?}")
            }
            Damage::ShortMemory => {
                assert!(caught || (honest.mems.is_empty() && honest.regs.is_empty()), "{how:?}")
            }
            Damage::None | Damage::ZeroTail => {}
        }
    });
}
