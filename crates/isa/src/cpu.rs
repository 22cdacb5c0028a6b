//! Concrete HS32 CPU with MMIO forwarding and vectored interrupts.
//!
//! The CPU owns the RAM region; loads/stores that fall into the MMIO
//! window are forwarded through the [`MmioBus`] trait — in HardSnap
//! terms, they cross the virtual-machine boundary into the hardware
//! target. Interrupts are level-triggered per line, vectored through a
//! table at [`crate::encoding::VECTOR_BASE`], and atomic (no nesting),
//! matching Inception's interrupt handling.

use crate::encoding::{AluOp, Cond, Instr, ENTRY_PC, NUM_IRQ_LINES, NUM_REGS, VECTOR_BASE};
use crate::Program;
use hardsnap_bus::{BusError, MemoryMap, RegionKind};
use std::fmt;

/// A fault detected while executing firmware (the detectors HardSnap
/// inherits from KLEE, plus the hypercall-driven ones).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CpuFault {
    /// Access to an address outside every mapped region.
    Unmapped {
        /// Faulting address.
        addr: u32,
        /// PC of the faulting instruction.
        pc: u32,
    },
    /// Misaligned word access.
    Unaligned {
        /// Faulting address.
        addr: u32,
        /// PC of the faulting instruction.
        pc: u32,
    },
    /// `assert` hypercall failed.
    AssertFailed {
        /// PC of the assert.
        pc: u32,
    },
    /// `fail` hypercall executed (a planted bug detonated).
    FailHit {
        /// PC of the fail.
        pc: u32,
    },
    /// The instruction word did not decode.
    IllegalInstruction {
        /// PC of the bad word.
        pc: u32,
        /// The word.
        word: u32,
    },
    /// A forwarded MMIO transaction failed on the hardware side.
    Bus {
        /// PC of the access.
        pc: u32,
        /// The bus error.
        error: BusError,
    },
    /// Byte access to the MMIO window (peripherals are word-addressed).
    MmioByteAccess {
        /// Faulting address.
        addr: u32,
        /// PC of the access.
        pc: u32,
    },
}

impl fmt::Display for CpuFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuFault::Unmapped { addr, pc } => {
                write!(f, "unmapped access to {addr:#010x} at pc {pc:#010x}")
            }
            CpuFault::Unaligned { addr, pc } => {
                write!(f, "unaligned access to {addr:#010x} at pc {pc:#010x}")
            }
            CpuFault::AssertFailed { pc } => write!(f, "assertion failed at pc {pc:#010x}"),
            CpuFault::FailHit { pc } => write!(f, "fail marker hit at pc {pc:#010x}"),
            CpuFault::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#010x}")
            }
            CpuFault::Bus { pc, error } => write!(f, "bus fault at pc {pc:#010x}: {error}"),
            CpuFault::MmioByteAccess { addr, pc } => {
                write!(f, "byte access to mmio {addr:#010x} at pc {pc:#010x}")
            }
        }
    }
}

impl std::error::Error for CpuFault {}

/// The hardware side of MMIO forwarding (implemented by the HardSnap
/// targets; a trivial implementation suffices for pure-software tests).
pub trait MmioBus {
    /// 32-bit read at `addr`.
    ///
    /// # Errors
    ///
    /// Forwards the hardware target's [`BusError`].
    fn mmio_read(&mut self, addr: u32) -> Result<u32, BusError>;

    /// 32-bit write at `addr`.
    ///
    /// # Errors
    ///
    /// Forwards the hardware target's [`BusError`].
    fn mmio_write(&mut self, addr: u32, data: u32) -> Result<(), BusError>;
}

/// A no-hardware bus: every MMIO access faults. Useful for pure software
/// tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMmio;

impl MmioBus for NoMmio {
    fn mmio_read(&mut self, addr: u32) -> Result<u32, BusError> {
        Err(BusError::SlaveError { addr })
    }
    fn mmio_write(&mut self, addr: u32, _data: u32) -> Result<(), BusError> {
        Err(BusError::SlaveError { addr })
    }
}

/// Observable per-step events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Nothing notable.
    None,
    /// CPU executed `halt`.
    Halted,
    /// Debug console output.
    Putc(u8),
    /// Checkpoint hint with its id.
    Checkpoint(u16),
    /// An interrupt was taken on the given line.
    IrqEntered(u32),
}

/// RAM bytes per page of [`Cpu`]'s written-page set (1 KiB).
const PAGE_SHIFT: u32 = 10;

/// The complete software state of the CPU — the `S_sw` of the paper's
/// state representation (PC, registers/stack, global memory).
#[derive(Clone, Debug)]
pub struct Cpu {
    /// General registers (`r0` reads as zero).
    pub regs: [u32; NUM_REGS],
    /// Program counter.
    pub pc: u32,
    /// Saved PC for `iret`.
    pub epc: u32,
    /// Global interrupt enable.
    pub irq_enabled: bool,
    /// Currently servicing an interrupt (interrupts are atomic).
    pub in_isr: bool,
    /// CPU has executed `halt`.
    pub halted: bool,
    /// Retired instruction count.
    pub instret: u64,
    /// RAM contents; written only by `stw`/`stb`, so that `written`
    /// covers every change (read it with [`Cpu::ram`]).
    ram: Vec<u8>,
    /// Input tape consumed by `sym` in concrete execution.
    pub input_tape: Vec<u32>,
    /// Next input-tape position.
    pub tape_pos: usize,
    /// Memory map (RAM/MMIO routing).
    pub map: MemoryMap,
    /// Bitset of the RAM pages stored to since this CPU was created or
    /// last rewound ([`Cpu::reset_to`]). Bookkeeping, not architectural
    /// state: equality ignores it.
    written: Vec<u64>,
}

impl PartialEq for Cpu {
    fn eq(&self, other: &Self) -> bool {
        let Cpu {
            regs,
            pc,
            epc,
            irq_enabled,
            in_isr,
            halted,
            instret,
            ram,
            input_tape,
            tape_pos,
            map,
            written: _,
        } = self;
        *regs == other.regs
            && *pc == other.pc
            && *epc == other.epc
            && *irq_enabled == other.irq_enabled
            && *in_isr == other.in_isr
            && *halted == other.halted
            && *instret == other.instret
            && *ram == other.ram
            && *input_tape == other.input_tape
            && *tape_pos == other.tape_pos
            && *map == other.map
    }
}

impl Eq for Cpu {}

impl Cpu {
    /// Creates a CPU with the default SoC memory map and a zeroed RAM,
    /// loads `program`, and sets the PC to its entry point.
    pub fn new(program: &Program) -> Self {
        let map = MemoryMap::default_soc();
        let ram_size = map
            .iter()
            .find(|r| r.kind == RegionKind::Ram)
            .map(|r| r.size as usize)
            .unwrap_or(0x1_0000);
        let mut ram = vec![0u8; ram_size];
        let n = program.image.len().min(ram.len());
        ram[..n].copy_from_slice(&program.image[..n]);
        let pages = ram_size.div_ceil(1 << PAGE_SHIFT);
        Cpu {
            regs: [0; NUM_REGS],
            pc: program.entry,
            epc: 0,
            irq_enabled: false,
            in_isr: false,
            halted: false,
            instret: 0,
            ram,
            input_tape: Vec::new(),
            tape_pos: 0,
            map,
            written: vec![0; pages.div_ceil(64)],
        }
    }

    /// Rewinds this CPU to `base`: registers, flags, `instret`, the
    /// input tape and the memory map are copied, and RAM only in the
    /// pages this CPU has stored to since it was cloned from `base` or
    /// last rewound to it. Under that precondition the result equals
    /// `base.clone()`, at a cost proportional to the pages written
    /// rather than to the RAM size.
    ///
    /// # Panics
    ///
    /// Panics if the two RAMs differ in size.
    pub fn reset_to(&mut self, base: &Cpu) {
        assert_eq!(self.ram.len(), base.ram.len(), "RAM sizes differ");
        for (wi, word) in self.written.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let lo = (wi * 64 + bits.trailing_zeros() as usize) << PAGE_SHIFT;
                let hi = (lo + (1 << PAGE_SHIFT)).min(self.ram.len());
                self.ram[lo..hi].copy_from_slice(&base.ram[lo..hi]);
                bits &= bits - 1;
            }
        }
        self.regs = base.regs;
        self.pc = base.pc;
        self.epc = base.epc;
        self.irq_enabled = base.irq_enabled;
        self.in_isr = base.in_isr;
        self.halted = base.halted;
        self.instret = base.instret;
        self.input_tape.clone_from(&base.input_tape);
        self.tape_pos = base.tape_pos;
        if self.map != base.map {
            self.map = base.map.clone();
        }
        debug_assert!(
            self.ram == base.ram,
            "reset_to: this CPU did not start from `base`"
        );
    }

    /// RAM contents (the image at address 0 of the RAM region).
    pub fn ram(&self) -> &[u8] {
        &self.ram
    }

    /// Records a store to RAM byte `addr` in the written-page set.
    #[inline]
    fn mark_written(&mut self, addr: usize) {
        let page = addr >> PAGE_SHIFT;
        self.written[page / 64] |= 1 << (page % 64);
    }

    /// Replaces the input tape consumed by `sym` (fuzzing input).
    pub fn set_input_tape(&mut self, tape: Vec<u32>) {
        self.input_tape = tape;
        self.tape_pos = 0;
    }

    /// Reads a register (`r0` is zero).
    #[inline]
    pub fn reg(&self, r: u8) -> u32 {
        if r == 0 {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Writes a register (`r0` writes are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: u8, v: u32) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// Reads a RAM word without routing (helper for tests/loaders).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside RAM.
    pub fn ram_word(&self, addr: u32) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.ram[a..a + 4].try_into().unwrap())
    }

    /// Offers interrupt lines to the CPU; takes the lowest asserted line
    /// if interrupts are enabled and none is in service. Returns the
    /// taken line.
    pub fn take_irq(&mut self, lines: u32) -> Option<u32> {
        if !self.irq_enabled || self.in_isr || self.halted || lines == 0 {
            return None;
        }
        let line = lines.trailing_zeros();
        if line >= NUM_IRQ_LINES {
            return None;
        }
        let vec_addr = VECTOR_BASE + 4 * line;
        let handler = self.ram_word(vec_addr);
        if handler == 0 {
            return None; // unpopulated vector: leave the line pending
        }
        self.epc = self.pc;
        self.pc = handler;
        self.in_isr = true;
        Some(line)
    }

    fn load32(&mut self, bus: &mut dyn MmioBus, addr: u32) -> Result<u32, CpuFault> {
        let pc = self.pc;
        if addr % 4 != 0 {
            return Err(CpuFault::Unaligned { addr, pc });
        }
        match self.map.kind_of(addr) {
            Some(RegionKind::Ram) | Some(RegionKind::Rom) => {
                let a = addr as usize;
                Ok(u32::from_le_bytes(self.ram[a..a + 4].try_into().unwrap()))
            }
            Some(RegionKind::Mmio) => bus
                .mmio_read(addr)
                .map_err(|error| CpuFault::Bus { pc, error }),
            None => Err(CpuFault::Unmapped { addr, pc }),
        }
    }

    fn store32(&mut self, bus: &mut dyn MmioBus, addr: u32, v: u32) -> Result<(), CpuFault> {
        let pc = self.pc;
        if addr % 4 != 0 {
            return Err(CpuFault::Unaligned { addr, pc });
        }
        match self.map.kind_of(addr) {
            Some(RegionKind::Ram) => {
                let a = addr as usize;
                self.ram[a..a + 4].copy_from_slice(&v.to_le_bytes());
                self.mark_written(a);
                Ok(())
            }
            Some(RegionKind::Rom) => Err(CpuFault::Unmapped { addr, pc }),
            Some(RegionKind::Mmio) => bus
                .mmio_write(addr, v)
                .map_err(|error| CpuFault::Bus { pc, error }),
            None => Err(CpuFault::Unmapped { addr, pc }),
        }
    }

    fn load8(&mut self, addr: u32) -> Result<u8, CpuFault> {
        let pc = self.pc;
        match self.map.kind_of(addr) {
            Some(RegionKind::Ram) | Some(RegionKind::Rom) => Ok(self.ram[addr as usize]),
            Some(RegionKind::Mmio) => Err(CpuFault::MmioByteAccess { addr, pc }),
            None => Err(CpuFault::Unmapped { addr, pc }),
        }
    }

    fn store8(&mut self, addr: u32, v: u8) -> Result<(), CpuFault> {
        let pc = self.pc;
        match self.map.kind_of(addr) {
            Some(RegionKind::Ram) => {
                self.ram[addr as usize] = v;
                self.mark_written(addr as usize);
                Ok(())
            }
            Some(RegionKind::Rom) => Err(CpuFault::Unmapped { addr, pc }),
            Some(RegionKind::Mmio) => Err(CpuFault::MmioByteAccess { addr, pc }),
            None => Err(CpuFault::Unmapped { addr, pc }),
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns the detected [`CpuFault`], leaving the CPU state at the
    /// faulting instruction for diagnosis.
    pub fn step(&mut self, bus: &mut dyn MmioBus) -> Result<Event, CpuFault> {
        if self.halted {
            return Ok(Event::Halted);
        }
        let pc = self.pc;
        if pc % 4 != 0 {
            return Err(CpuFault::Unaligned { addr: pc, pc });
        }
        if self.map.kind_of(pc) != Some(RegionKind::Ram) {
            return Err(CpuFault::Unmapped { addr: pc, pc });
        }
        let word = self.ram_word(pc);
        let instr =
            Instr::decode(word).map_err(|e| CpuFault::IllegalInstruction { pc, word: e.word })?;
        let mut next_pc = pc.wrapping_add(4);
        let mut event = Event::None;
        match instr {
            Instr::Nop | Instr::Chkpt { .. } => {
                if let Instr::Chkpt { id } = instr {
                    event = Event::Checkpoint(id);
                }
            }
            Instr::Halt => {
                self.halted = true;
                event = Event::Halted;
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = alu(op, self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let v = alu(op, self.reg(rs1), imm);
                self.set_reg(rd, v);
            }
            Instr::Lui { rd, imm } => self.set_reg(rd, (imm as u32) << 16),
            Instr::Ldw { rd, rs1, off } => {
                let addr = self.reg(rs1).wrapping_add(off as i32 as u32);
                let v = self.load32(bus, addr)?;
                self.set_reg(rd, v);
            }
            Instr::Stw { rs2, rs1, off } => {
                let addr = self.reg(rs1).wrapping_add(off as i32 as u32);
                let v = self.reg(rs2);
                self.store32(bus, addr, v)?;
            }
            Instr::Ldb { rd, rs1, off } => {
                let addr = self.reg(rs1).wrapping_add(off as i32 as u32);
                let v = self.load8(addr)?;
                self.set_reg(rd, v as u32);
            }
            Instr::Stb { rs2, rs1, off } => {
                let addr = self.reg(rs1).wrapping_add(off as i32 as u32);
                let v = self.reg(rs2) as u8;
                self.store8(addr, v)?;
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                off,
            } => {
                if eval_cond(cond, self.reg(rs1), self.reg(rs2)) {
                    next_pc = pc.wrapping_add(4).wrapping_add(off as i32 as u32);
                }
            }
            Instr::Jal { rd, off } => {
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add(4).wrapping_add(off as u32);
            }
            Instr::Jalr { rd, rs1, off } => {
                let target = self.reg(rs1).wrapping_add(off as i32 as u32);
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
            }
            Instr::Iret => {
                next_pc = self.epc;
                self.in_isr = false;
            }
            Instr::Cli => self.irq_enabled = false,
            Instr::Sei => self.irq_enabled = true,
            Instr::Sym { rd, .. } => {
                let v = self.input_tape.get(self.tape_pos).copied().unwrap_or(0);
                self.tape_pos += 1;
                self.set_reg(rd, v);
            }
            Instr::Assert { rs1 } => {
                if self.reg(rs1) == 0 {
                    return Err(CpuFault::AssertFailed { pc });
                }
            }
            Instr::Fail => return Err(CpuFault::FailHit { pc }),
            Instr::Putc { rs1 } => {
                event = Event::Putc(self.reg(rs1) as u8);
            }
        }
        self.pc = next_pc;
        self.instret += 1;
        Ok(event)
    }

    /// Runs until halt, fault, or the instruction budget is exhausted;
    /// returns collected console output and whether the CPU halted.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuFault`].
    pub fn run(
        &mut self,
        bus: &mut dyn MmioBus,
        max_instrs: u64,
    ) -> Result<(Vec<u8>, bool), CpuFault> {
        let mut console = Vec::new();
        for _ in 0..max_instrs {
            match self.step(bus)? {
                Event::Halted => return Ok((console, true)),
                Event::Putc(c) => console.push(c),
                _ => {}
            }
        }
        Ok((console, false))
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b & 31),
        AluOp::Shr => a.wrapping_shr(b & 31),
        AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
        AluOp::Mul => a.wrapping_mul(b),
    }
}

fn eval_cond(c: Cond, a: u32, b: u32) -> bool {
    match c {
        Cond::Eq => a == b,
        Cond::Ne => a != b,
        Cond::Lt => (a as i32) < (b as i32),
        Cond::Ge => (a as i32) >= (b as i32),
        Cond::Ltu => a < b,
        Cond::Geu => a >= b,
    }
}

/// Shared ALU semantics (also used by the symbolic executor's tests).
pub fn alu_reference(op: AluOp, a: u32, b: u32) -> u32 {
    alu(op, a, b)
}

/// Shared branch-condition semantics.
pub fn cond_reference(c: Cond, a: u32, b: u32) -> bool {
    eval_cond(c, a, b)
}

/// Convenience: `ENTRY_PC` re-export for firmware builders.
pub const FIRMWARE_ENTRY: u32 = ENTRY_PC;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble;

    fn run_src(src: &str, max: u64) -> (Cpu, Result<(Vec<u8>, bool), CpuFault>) {
        let p = assemble(src).unwrap();
        let mut cpu = Cpu::new(&p);
        let r = cpu.run(&mut NoMmio, max);
        (cpu, r)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (cpu, r) = run_src(
            r#"
            .org 0x100
            entry:
                movi r1, #21
                movi r2, #2
                mul r3, r1, r2
                halt
            "#,
            100,
        );
        assert_eq!(r.unwrap().1, true);
        assert_eq!(cpu.reg(3), 42);
        assert_eq!(cpu.instret, 4);
    }

    #[test]
    fn loop_sums_to_n() {
        let (cpu, r) = run_src(
            r#"
            .org 0x100
            entry:
                movi r1, #0    ; sum
                movi r2, #1    ; i
                movi r3, #11   ; bound
            loop:
                add r1, r1, r2
                addi r2, r2, #1
                bne r2, r3, loop
                halt
            "#,
            1000,
        );
        assert!(r.unwrap().1);
        assert_eq!(cpu.reg(1), 55);
    }

    #[test]
    fn memory_load_store_and_bytes() {
        let (cpu, r) = run_src(
            r#"
            .org 0x100
            entry:
                li r1, 0x2000
                li r2, 0xdeadbeef
                stw r2, [r1]
                ldw r3, [r1]
                ldb r4, [r1, #3]
                movi r5, #0x7a
                stb r5, [r1, #1]
                ldw r6, [r1]
                halt
            "#,
            100,
        );
        assert!(r.unwrap().1);
        assert_eq!(cpu.reg(3), 0xdead_beef);
        assert_eq!(cpu.reg(4), 0xde);
        assert_eq!(cpu.reg(6), 0xdead_7aef);
    }

    #[test]
    fn call_and_return() {
        let (cpu, r) = run_src(
            r#"
            .org 0x100
            entry:
                movi r1, #5
                call double
                halt
            double:
                add r1, r1, r1
                ret
            "#,
            100,
        );
        assert!(r.unwrap().1);
        assert_eq!(cpu.reg(1), 10);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (cpu, r) = run_src(
            ".org 0x100\nentry:\n movi r0, #7\n add r1, r0, r0\n halt\n",
            10,
        );
        assert!(r.unwrap().1);
        assert_eq!(cpu.reg(0), 0);
        assert_eq!(cpu.reg(1), 0);
    }

    #[test]
    fn signed_vs_unsigned_branches() {
        let (cpu, r) = run_src(
            r#"
            .org 0x100
            entry:
                li r1, 0xffffffff   ; -1 signed, max unsigned
                movi r2, #1
                movi r5, #0
                blt r1, r2, signed_taken
                j after1
            signed_taken:
                ori r5, r5, #1
            after1:
                bltu r1, r2, unsigned_taken
                j done
            unsigned_taken:
                ori r5, r5, #2
            done:
                halt
            "#,
            100,
        );
        assert!(r.unwrap().1);
        assert_eq!(cpu.reg(5), 1, "signed taken, unsigned not");
    }

    #[test]
    fn faults_are_reported_with_pc() {
        let (_, r) = run_src(
            ".org 0x100\nentry:\n li r1, 0x30000000\n ldw r2, [r1]\n halt\n",
            10,
        );
        match r {
            Err(CpuFault::Unmapped { addr, .. }) => assert_eq!(addr, 0x3000_0000),
            other => panic!("{other:?}"),
        }
        let (_, r) = run_src(
            ".org 0x100\nentry:\n movi r1, #2\n ldw r2, [r1]\n halt\n",
            10,
        );
        assert!(matches!(r, Err(CpuFault::Unaligned { .. })));
        let (_, r) = run_src(".org 0x100\nentry:\n fail\n", 10);
        assert!(matches!(r, Err(CpuFault::FailHit { pc: 0x100 })));
        let (_, r) = run_src(".org 0x100\nentry:\n movi r1, #0\n assert r1\n halt\n", 10);
        assert!(matches!(r, Err(CpuFault::AssertFailed { .. })));
    }

    #[test]
    fn putc_collects_console_output() {
        let (_, r) = run_src(
            r#"
            .org 0x100
            entry:
                movi r1, #72
                putc r1
                movi r1, #105
                putc r1
                halt
            "#,
            100,
        );
        let (console, halted) = r.unwrap();
        assert!(halted);
        assert_eq!(console, b"Hi");
    }

    #[test]
    fn sym_reads_input_tape_concretely() {
        let p = assemble(".org 0x100\nentry:\n sym r1, #0\n sym r2, #1\n halt\n").unwrap();
        let mut cpu = Cpu::new(&p);
        cpu.set_input_tape(vec![11, 22]);
        cpu.run(&mut NoMmio, 10).unwrap();
        assert_eq!(cpu.reg(1), 11);
        assert_eq!(cpu.reg(2), 22);
    }

    #[test]
    fn interrupts_vector_and_iret() {
        let p = assemble(
            r#"
            .org 0x0
            .word isr0, 0, 0, 0, 0, 0, 0, 0
            .org 0x100
            entry:
                sei
                movi r1, #0
            spin:
                addi r1, r1, #1
                j spin
            isr0:
                movi r2, #99
                iret
            "#,
        )
        .unwrap();
        let mut cpu = Cpu::new(&p);
        let mut bus = NoMmio;
        for _ in 0..5 {
            cpu.step(&mut bus).unwrap();
        }
        assert!(cpu.irq_enabled);
        let taken = cpu.take_irq(0b1);
        assert_eq!(taken, Some(0));
        assert!(cpu.in_isr);
        // While in the ISR, further IRQs are not taken (atomicity).
        assert_eq!(cpu.take_irq(0b1), None);
        // Run the ISR to completion.
        cpu.step(&mut bus).unwrap(); // movi r2
        cpu.step(&mut bus).unwrap(); // iret
        assert!(!cpu.in_isr);
        assert_eq!(cpu.reg(2), 99);
        // Execution resumes in the spin loop.
        let pc = cpu.pc;
        assert!(pc >= 0x108, "resumed at {pc:#x}");
    }

    #[test]
    fn unpopulated_vector_leaves_irq_pending() {
        let p = assemble(".org 0x100\nentry:\n sei\n halt\n").unwrap();
        let mut cpu = Cpu::new(&p);
        cpu.step(&mut NoMmio).unwrap();
        assert_eq!(cpu.take_irq(0b10), None);
        assert!(!cpu.in_isr);
    }

    #[test]
    fn state_clone_is_a_software_snapshot() {
        let (mut cpu, _) = run_src(
            ".org 0x100\nentry:\n movi r1, #1\nloop:\n addi r1, r1, #1\n j loop\n",
            50,
        );
        let snap = cpu.clone();
        cpu.run(&mut NoMmio, 100).unwrap();
        assert_ne!(cpu.reg(1), snap.reg(1));
        let mut restored = snap.clone();
        assert_eq!(restored.reg(1), snap.reg(1));
        restored.run(&mut NoMmio, 100).unwrap();
        assert_eq!(
            restored.reg(1),
            cpu.reg(1),
            "deterministic replay from snapshot"
        );
    }
}
