//! Property: the TLV snapshot container round-trips captures of
//! randomly generated designs bit-exactly — full images and delta
//! images both decode to exactly what was encoded and re-encode to the
//! same bytes — and any damage to an image (a flipped byte, a
//! truncation, an overflowing section bound) surfaces as a typed
//! [`hardsnap_bus::PersistError`], never a panic and never a silently
//! different snapshot.

use hardsnap_bus::persist::{for_each_damage, write_delta, write_full};
use hardsnap_bus::{PersistedImage, SnapshotDelta, SnapshotFile};
use hardsnap_rtl::{Module, PortDir};
use hardsnap_sim::{SimEngine, Simulator, SnapshotTracker};
use hardsnap_util::prop::from_fn;
use hardsnap_util::prop_check;
use hardsnap_util::Rng;
use hardsnap_verilog::gen_module;

/// Random stimulus for one phase: input pokes, occasional memory pokes,
/// then `cycles` steps — the same driver the delta-snapshot properties
/// use, so the images exercised here carry realistic state.
fn drive(module: &Module, sim: &mut Simulator, rng: &mut Rng, cycles: u32) {
    let inputs: Vec<_> = module
        .ports()
        .filter(|(_, n)| n.port == Some(PortDir::Input) && n.name != "clk")
        .map(|(id, _)| id)
        .collect();
    let mems: Vec<_> = module
        .iter_mems()
        .map(|(id, m)| (m.name.clone(), id))
        .collect();
    for _ in 0..cycles {
        for &id in &inputs {
            if rng.gen_bool(0.7) {
                sim.poke_id(id, rng.next_u64());
            }
        }
        if let Some((name, id)) = rng.choose(&mems) {
            if rng.gen_bool(0.1) {
                let addr = rng.gen_range(0..sim.mem_words(*id).len() as u32);
                sim.poke_mem(name, addr, rng.next_u64()).unwrap();
            }
        }
        sim.step(1);
    }
}

/// Two captures of a random design a few cycles apart: a base and a
/// diverged successor, for building full and delta images.
fn capture_pair(case_seed: u64) -> (hardsnap_bus::HwSnapshot, hardsnap_bus::HwSnapshot) {
    let mut rng = Rng::seed_from_u64(case_seed);
    let module = gen_module(&mut rng, "fuzz");
    let mut sim = Simulator::with_engine(module.clone(), SimEngine::Bytecode)
        .unwrap_or_else(|e| panic!("seed {case_seed:#x}: {e}"));
    let tracker = SnapshotTracker::new(&sim);
    let mut stim = Rng::seed_from_u64(case_seed ^ 0x50F7_BA5E);
    drive(&module, &mut sim, &mut stim, 9);
    let base = tracker.capture_full(&sim);
    drive(&module, &mut sim, &mut stim, 9);
    let new = tracker.capture_full(&sim);
    (base, new)
}

#[test]
fn images_round_trip_bit_exactly_on_random_designs() {
    prop_check!(cases = 24, seed = 0x9E85_1570, (case_seed in from_fn(|rng: &mut Rng| rng.next_u64())) => {
        let (base, new) = capture_pair(case_seed);

        // Full image: decode == capture, re-encode == original bytes.
        let bytes = write_full(&base);
        let file = SnapshotFile::from_bytes(bytes.clone())
            .unwrap_or_else(|e| panic!("seed {case_seed:#x}: full decode: {e}"));
        file.validate(true)
            .unwrap_or_else(|e| panic!("seed {case_seed:#x}: full deep-validate: {e}"));
        match file.materialize().unwrap() {
            PersistedImage::Full(snap) => {
                assert_eq!(snap, base, "seed {case_seed:#x}: full image diverged");
                assert_eq!(
                    write_full(&snap),
                    bytes,
                    "seed {case_seed:#x}: full re-encode is not byte-identical"
                );
            }
            other => panic!("seed {case_seed:#x}: full image decoded as {other:?}"),
        }

        // Delta image: applying to the base reproduces the successor,
        // and the decoded delta re-encodes to the same bytes.
        let delta = SnapshotDelta::between(&base, &new)
            .unwrap_or_else(|e| panic!("seed {case_seed:#x}: delta: {e}"));
        let dbytes = write_delta(&base, &delta, "base.hsnap");
        let dfile = SnapshotFile::from_bytes(dbytes.clone())
            .unwrap_or_else(|e| panic!("seed {case_seed:#x}: delta decode: {e}"));
        dfile
            .validate(true)
            .unwrap_or_else(|e| panic!("seed {case_seed:#x}: delta deep-validate: {e}"));
        let applied = dfile
            .apply_to_base(&base)
            .unwrap_or_else(|e| panic!("seed {case_seed:#x}: apply: {e}"));
        assert_eq!(applied, new, "seed {case_seed:#x}: delta image diverged");
        let decoded = dfile.load_delta().unwrap();
        assert_eq!(
            write_delta(&base, &decoded, "base.hsnap"),
            dbytes,
            "seed {case_seed:#x}: delta re-encode is not byte-identical"
        );
    });
}

#[test]
fn any_single_byte_flip_is_a_typed_error() {
    // One representative design; both image kinds run through the
    // codec's damage generator (every byte flipped, every truncation,
    // every section-bounds overflow). Cheap decode checks (header/table
    // checksums) may reject immediately; anything they admit must fail
    // deep validation or materialization — no damage may yield a
    // usable, silently different snapshot.
    let (base, new) = capture_pair(0xC0_44E7);
    let delta = SnapshotDelta::between(&base, &new).unwrap();
    for (kind, clean) in [
        ("full", write_full(&base)),
        ("delta", write_delta(&base, &delta, "base.hsnap")),
    ] {
        for_each_damage(&clean, |what, bad| {
            let caught = match SnapshotFile::from_bytes(bad.to_vec()) {
                Err(_) => true,
                Ok(f) => f.validate(true).is_err() || f.materialize().is_err(),
            };
            assert!(caught, "{kind} image, {what}: went completely undetected");
        });
    }
}
