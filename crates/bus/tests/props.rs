//! Property tests for snapshot serialization and delta compression:
//! `SnapshotDelta::between(a, b).apply(a)` must reproduce `b` exactly,
//! and `diff_regs` must agree with the delta's register set. These are
//! the invariants the incremental snapshot transfer (HardSnap §IV-C)
//! depends on.

use hardsnap_bus::persist::write_full;
use hardsnap_bus::{HwSnapshot, MemImage, PersistedImage, RegImage, SnapshotDelta};
use hardsnap_util::prop::from_fn;
use hardsnap_util::prop_check;
use hardsnap_util::Rng;

fn mask(w: u32) -> u64 {
    if w == 64 {
        u64::MAX
    } else {
        (1 << w) - 1
    }
}

fn arb_snapshot(rng: &mut Rng) -> HwSnapshot {
    let regs = (0..rng.gen_range(1usize..12))
        .map(|i| {
            let width = rng.gen_range(1u32..=64);
            RegImage {
                name: format!("r{i}"),
                width,
                bits: rng.next_u64() & mask(width),
            }
        })
        .collect();
    let mems = (0..rng.gen_range(0usize..3))
        .map(|i| MemImage {
            name: format!("m{i}"),
            width: 32,
            words: (0..rng.gen_range(1usize..32))
                .map(|_| rng.next_u64() & 0xffff_ffff)
                .collect(),
        })
        .collect();
    HwSnapshot {
        design: "prop".into(),
        cycle: rng.next_u64(),
        regs,
        mems,
    }
}

/// Mutates a random subset of `snap`'s state, keeping the shape.
fn perturb(rng: &mut Rng, snap: &HwSnapshot) -> HwSnapshot {
    let mut out = snap.clone();
    out.cycle = rng.next_u64();
    for r in &mut out.regs {
        if rng.gen_bool(0.4) {
            r.bits = rng.next_u64() & mask(r.width);
        }
    }
    for m in &mut out.mems {
        for w in &mut m.words {
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
            .map(|&(i, _)| base.regs[i as usize].name.as_str())
            .collect();
        from_delta.sort_unstable();
        let mut from_diff = base.diff_regs(&new);
        from_diff.sort_unstable();
        assert_eq!(from_delta, from_diff);
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
