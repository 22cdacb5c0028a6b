//! Property tests for the HS32 instruction codec: decode is total over
//! arbitrary 32-bit words (errors, never panics — firmware images are
//! untrusted input), and encode/decode round-trips every constructible
//! instruction, including the control-flow and hypercall forms the root
//! `tests/properties.rs` suite doesn't cover.

use hardsnap_isa::{Cond, Instr};
use hardsnap_util::prop::any;
use hardsnap_util::prop_check;

/// Any 32-bit word either decodes or reports `DecodeError` — and for
/// words that do decode, re-encoding is stable: the round-tripped
/// instruction decodes to itself (don't-care bits may differ).
#[test]
fn decode_is_total_and_reencode_is_stable() {
    prop_check!(cases = 512, seed = 0xDEC0_DE00, (word in any::<u32>()) => {
        if let Ok(instr) = Instr::decode(word) {
            assert_eq!(Instr::decode(instr.encode()).unwrap(), instr);
        }
    });
}

#[test]
fn control_flow_roundtrip() {
    prop_check!(
        cases = 256,
        seed = 0xB4A_4C11,
        (c in 0usize..6, rd in 0u8..16, rs1 in 0u8..16, rs2 in 0u8..16, raw in any::<u32>()) => {
            let conds = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];
            let off16 = raw as u16 as i16;
            let br = Instr::Branch { cond: conds[c], rs1, rs2, off: off16 };
            assert_eq!(Instr::decode(br.encode()).unwrap(), br);
            // Jal offsets are 22-bit sign-extended.
            let off22 = ((raw as i32) << 10) >> 10;
            let jal = Instr::Jal { rd, off: off22 };
            assert_eq!(Instr::decode(jal.encode()).unwrap(), jal);
            let jalr = Instr::Jalr { rd, rs1, off: off16 };
            assert_eq!(Instr::decode(jalr.encode()).unwrap(), jalr);
        }
    );
}

#[test]
fn memory_and_hypercall_roundtrip() {
    prop_check!(
        cases = 256,
        seed = 0x4E4_CA11,
        (rd in 0u8..16, rs1 in 0u8..16, rs2 in 0u8..16, imm in any::<u16>()) => {
            let off = imm as i16;
            for instr in [
                Instr::Lui { rd, imm },
                Instr::Stw { rs2, rs1, off },
                Instr::Ldb { rd, rs1, off },
                Instr::Stb { rs2, rs1, off },
                Instr::Sym { rd, id: imm },
                Instr::Assert { rs1 },
                Instr::Putc { rs1 },
                Instr::Chkpt { id: imm },
                Instr::Nop,
                Instr::Halt,
                Instr::Iret,
                Instr::Cli,
                Instr::Sei,
                Instr::Fail,
            ] {
                assert_eq!(Instr::decode(instr.encode()).unwrap(), instr, "{instr:?}");
            }
        }
    );
}

/// `Cpu::reset_to` rewinds by written pages only, so it must land on
/// exactly `base.clone()`: random word and byte stores anywhere in RAM
/// above the program (page edges, the last word, repeats), a `sym` that
/// moves the tape, from a base that has itself run part of the program
/// and so carries written pages of its own. A second run and rewind
/// from the rewound CPU must land there again.
#[test]
fn reset_to_after_random_stores_equals_a_fresh_clone_of_the_base() {
    use hardsnap_isa::{assemble, Cpu, NoMmio};
    use hardsnap_util::prop::vec_of;
    prop_check!(
        cases = 128,
        seed = 0x5E5E_7000,
        (
            stores in vec_of((0x2000u32..0x1_0000, any::<u32>(), any::<bool>()), 1..48),
            prefix in 0usize..8,
            tape in vec_of(any::<u32>(), 0..3),
        ) => {
            let mut src = String::from("    sym r5, #0\n");
            for &(addr, value, byte) in &stores {
                let (op, addr) = if byte { ("stb", addr) } else { ("stw", addr & !3) };
                src.push_str(&format!(
                    "    li r1, {addr:#x}\n    li r2, {value:#x}\n    {op} r2, [r1, #0]\n"
                ));
            }
            src.push_str("    halt\n");
            let prog = assemble(&src).unwrap();
            let run = |cpu: &mut Cpu, steps: usize| {
                for _ in 0..steps {
                    cpu.step(&mut NoMmio).unwrap();
                }
            };
            let mut base = Cpu::new(&prog);
            base.set_input_tape(tape.clone());
            // Each store is five instructions (two `li`s and the store).
            run(&mut base, 1 + 5 * prefix.min(stores.len()));
            let fresh = base.clone();
            let mut cpu = base.clone();
            for _ in 0..2 {
                run(&mut cpu, 1 + 5 * stores.len() + 1);
                assert!(cpu.halted);
                cpu.reset_to(&base);
                assert!(cpu == fresh, "rewound CPU differs from a clone of the base");
                assert_eq!(cpu.ram(), fresh.ram());
            }
        }
    );
}
