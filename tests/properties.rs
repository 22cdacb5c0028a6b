//! Property-based tests (hardsnap-util `prop_check!`) over the core
//! invariants: scan-chain codec identity, snapshot serialization,
//! instruction round-trips, symbolic/concrete ALU agreement, and
//! save/restore idempotence on the real SoC. All stimulus derives from
//! fixed seeds; a failure prints the case seed to reproduce it.

use hardsnap_bus::persist::write_full;
use hardsnap_bus::{HwSnapshot, HwTarget, MemSlot, PersistedImage, RegSlot, SnapshotLayout};
use hardsnap_scan::{ChainMap, ChainSegment};
use hardsnap_sim::SimTarget;
use hardsnap_util::prop::{any, from_fn, vec_of};
use hardsnap_util::{prop_check, Rng};

fn arb_chain(rng: &mut Rng) -> (ChainMap, Vec<u64>) {
    let widths: Vec<u32> = (0..rng.gen_range(1usize..12))
        .map(|_| rng.gen_range(1u32..=64))
        .collect();
    let mut cells = 0u64;
    let segments: Vec<ChainSegment> = widths
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let seg = ChainSegment {
                name: format!("r{i}"),
                width: w,
                msb_cell: cells,
            };
            cells += w as u64;
            seg
        })
        .collect();
    let values: Vec<u64> = widths.iter().map(|&w| rng.gen_range(0..=mask(w))).collect();
    (
        ChainMap {
            segments,
            mems: vec![],
            ..ChainMap::default()
        },
        values,
    )
}

fn mask(w: u32) -> u64 {
    if w == 64 {
        u64::MAX
    } else {
        (1 << w) - 1
    }
}

/// encode∘decode is the identity for any chain layout and values.
#[test]
fn scan_codec_roundtrip() {
    prop_check!(cases = 64, seed = 0x5CA0_C0DE, (chain_vals in from_fn(arb_chain)) => {
        let (chain, values) = chain_vals;
        let stream = chain.encode(&values).unwrap();
        assert_eq!(stream.len() as u64, chain.chain_bits());
        let decoded = chain.decode(&stream).unwrap();
        assert_eq!(decoded, values);
    });
}

/// Snapshot binary serialization round-trips arbitrary content.
#[test]
fn snapshot_bytes_roundtrip() {
    prop_check!(
        cases = 64,
        seed = 0x5EED_B17E,
        (
            regs in vec_of((any::<u64>(), 1u32..=64), 0..20),
            words in vec_of(any::<u64>(), 0..64),
            cycle in any::<u64>(),
        ) => {
            let layout = SnapshotLayout::new(
                "prop",
                regs.iter()
                    .enumerate()
                    .map(|(i, &(_, width))| RegSlot { name: format!("r{i}"), width })
                    .collect(),
                vec![MemSlot { name: "m".into(), width: 64, depth: words.len() }],
            );
            let snap = HwSnapshot::new(
                std::sync::Arc::new(layout),
                cycle,
                regs.iter().map(|&(bits, width)| bits & mask(width)).collect(),
                vec![words.clone()],
            );
            let bytes = write_full(&snap);
            // The image is the cost-model size plus section framing:
            // 120 bytes, and 40 per memory section.
            assert_eq!(bytes.len(), snap.byte_size() + 120 + 40 * snap.mems.len());
            match PersistedImage::from_bytes(&bytes).unwrap() {
                PersistedImage::Full(back) => assert_eq!(back, snap),
                other => panic!("full image decoded as {other:?}"),
            }
        }
    );
}

/// Every encodable instruction decodes back to itself.
#[test]
fn instruction_encode_decode_roundtrip() {
    prop_check!(
        cases = 64,
        seed = 0x15A_C0DE,
        (
            op in 0u8..9,
            rd in 0u8..16,
            rs1 in 0u8..16,
            rs2 in 0u8..16,
            imm in any::<u16>(),
        ) => {
            use hardsnap_isa::{AluOp, Instr};
            let ops = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor,
                       AluOp::Shl, AluOp::Shr, AluOp::Sra, AluOp::Mul];
            let alu = Instr::Alu { op: ops[op as usize], rd, rs1, rs2 };
            assert_eq!(Instr::decode(alu.encode()).unwrap(), alu);
            let imm_ext = if hardsnap_isa::encoding::imm_is_signed(ops[op as usize]) {
                imm as i16 as i32 as u32
            } else {
                imm as u32
            };
            let alui = Instr::AluImm { op: ops[op as usize], rd, rs1, imm: imm_ext };
            assert_eq!(Instr::decode(alui.encode()).unwrap(), alui);
            let ldw = Instr::Ldw { rd, rs1, off: imm as i16 };
            assert_eq!(Instr::decode(ldw.encode()).unwrap(), ldw);
        }
    );
}

/// The symbolic ALU terms agree with the concrete ALU on concrete
/// operands, for every operation.
#[test]
fn symbolic_alu_matches_concrete() {
    prop_check!(
        cases = 64,
        seed = 0xA1B_57A7E,
        (a in any::<u32>(), b in any::<u32>(), op in 0u8..9) => {
            use hardsnap_isa::AluOp;
            use hardsnap_symex::{BinOp, TermPool};
            let ops = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor,
                       AluOp::Shl, AluOp::Shr, AluOp::Sra, AluOp::Mul];
            let op = ops[op as usize];
            let concrete = hardsnap_isa::cpu::alu_reference(op, a, b);
            let mut pool = TermPool::new();
            let ta = pool.constant(a as u64, 32);
            let tb = pool.constant(b as u64, 32);
            let term = match op {
                AluOp::Add => pool.binary(BinOp::Add, ta, tb),
                AluOp::Sub => pool.binary(BinOp::Sub, ta, tb),
                AluOp::And => pool.binary(BinOp::And, ta, tb),
                AluOp::Or => pool.binary(BinOp::Or, ta, tb),
                AluOp::Xor => pool.binary(BinOp::Xor, ta, tb),
                AluOp::Mul => pool.binary(BinOp::Mul, ta, tb),
                AluOp::Shl | AluOp::Shr | AluOp::Sra => {
                    let m31 = pool.constant(31, 32);
                    let sh = pool.binary(BinOp::And, tb, m31);
                    let bop = match op {
                        AluOp::Shl => BinOp::Shl,
                        AluOp::Shr => BinOp::Lshr,
                        _ => BinOp::Ashr,
                    };
                    pool.binary(bop, ta, sh)
                }
            };
            assert_eq!(pool.as_const(term), Some(concrete as u64));
        }
    );
}

/// Branch conditions agree between the concrete CPU and the solver's
/// term semantics.
#[test]
fn symbolic_cond_matches_concrete() {
    prop_check!(
        cases = 64,
        seed = 0xC04D_0017,
        (a in any::<u32>(), b in any::<u32>(), c in 0u8..6) => {
            use hardsnap_isa::Cond;
            use hardsnap_symex::{BinOp, TermPool, UnOp};
            let conds = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];
            let cond = conds[c as usize];
            let concrete = hardsnap_isa::cpu::cond_reference(cond, a, b);
            let mut pool = TermPool::new();
            let ta = pool.constant(a as u64, 32);
            let tb = pool.constant(b as u64, 32);
            let term = match cond {
                Cond::Eq => pool.binary(BinOp::Eq, ta, tb),
                Cond::Ne => { let e = pool.binary(BinOp::Eq, ta, tb); pool.unary(UnOp::Not, e) }
                Cond::Lt => pool.binary(BinOp::Slt, ta, tb),
                Cond::Ge => { let l = pool.binary(BinOp::Slt, ta, tb); pool.unary(UnOp::Not, l) }
                Cond::Ltu => pool.binary(BinOp::Ult, ta, tb),
                Cond::Geu => { let l = pool.binary(BinOp::Ult, ta, tb); pool.unary(UnOp::Not, l) }
            };
            assert_eq!(pool.as_const(term), Some(concrete as u64));
        }
    );
}

/// save → perturb → restore → save is the identity on the real SoC
/// simulator target, from random starting activity. (Heavier cases:
/// fewer iterations.)
#[test]
fn soc_snapshot_restore_identity() {
    prop_check!(
        cases = 8,
        seed = 0x1DE_4907,
        (warm in 1u64..300, perturb in 1u64..300, load in 1u32..50_000) => {
            let mut t = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
            t.reset();
            t.bus_write(
                hardsnap_bus::map::soc::TIMER_BASE + hardsnap_periph::regs::timer::LOAD,
                load,
            ).unwrap();
            t.bus_write(
                hardsnap_bus::map::soc::TIMER_BASE + hardsnap_periph::regs::timer::CTRL,
                hardsnap_periph::regs::timer::CTRL_ENABLE,
            ).unwrap();
            t.step(warm);
            let snap = t.save_snapshot().unwrap();
            t.step(perturb);
            t.restore_snapshot(&snap).unwrap();
            let snap2 = t.save_snapshot().unwrap();
            assert!(snap.diff_regs(&snap2).is_empty());
            assert_eq!(snap.mems, snap2.mems);
        }
    );
}

/// Two independent `SimTarget` runs driven by the same hardsnap-util
/// seed produce byte-identical `save_snapshot()` images — the
/// determinism guard underpinning every seeded test in this workspace.
#[test]
fn same_seed_same_snapshot_image() {
    fn seeded_run(seed: u64) -> Vec<u8> {
        use hardsnap_bus::map::soc;
        let mut rng = Rng::seed_from_u64(seed);
        let mut t = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
        t.reset();
        let bases = [
            soc::TIMER_BASE,
            soc::UART_BASE,
            soc::SHA_BASE,
            soc::AES_BASE,
        ];
        for _ in 0..40 {
            let addr = bases[rng.gen_range(0..bases.len())] + 4 * rng.gen_range(0u32..5);
            if rng.gen_bool(0.7) {
                let _ = t.bus_write(addr, rng.gen());
            } else {
                let _ = t.bus_read(addr);
            }
            t.step(rng.gen_range(0..50));
        }
        write_full(&t.save_snapshot().unwrap())
    }
    let a = seeded_run(0xD57E_2141_57);
    let b = seeded_run(0xD57E_2141_57);
    assert_eq!(a, b, "same seed must give byte-identical snapshot images");
    let c = seeded_run(0xD57E_2141_58);
    assert_ne!(a, c, "different seeds must exercise different stimulus");
}
