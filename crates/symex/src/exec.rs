//! The symbolic executor for HS32 (the KLEE/Inception analogue).
//!
//! Single-state stepping with forking: the scheduling loop (Algorithm 1
//! of the paper, including the hardware context switch) lives in the
//! `hardsnap` core crate; this module provides the per-instruction
//! symbolic semantics, the fork points (symbolic branches, symbolic MMIO
//! concretization, assertion checks) and test-case extraction.
//!
//! ## Solver questions
//!
//! The executor asks the solver two kinds of question:
//!
//! - **Feasibility** ([`Executor::feasible`]): can this branch go this
//!   way, can this `assert` fail, can it hold? Answered on the
//!   independent slice of the path constraint, from a per-executor
//!   cache (see [`crate::solver`]).
//! - **Models**: the bug test case ([`Executor::testcase`]) and the
//!   values a symbolic term takes at the VM boundary (`Minimal`
//!   concretization, `Exhaustive` enumeration through
//!   [`BvSolver::solutions`]). These always see the whole path
//!   constraint, because their models feed the canonical digest.
//!
//! Slicing is exact because a live state's constraints are satisfiable
//! by construction. Every constraint a state gains is added here, and
//! each one keeps the conjunction satisfiable:
//!
//! - a branch direction or an assertion outcome is assumed only after a
//!   feasibility check of it answered SAT, or after the check of its
//!   negation answered UNSAT (then every model of the constraints
//!   satisfies it);
//! - a `term == v` pin (`fork_on_values` after `concretize` at a load,
//!   store or `jalr` address, and an MMIO store's address and data pins)
//!   uses a value `v` read from a model of the constraints before it.
//!
//! `putc` concretizes its byte from a model but adds no constraint.
//! States imported from a [`crate::PortableState`] or a checkpoint carry
//! constraints built the same way.

use crate::expr::{BinOp, TermId, TermPool, UnOp};
use crate::solver::{BvSolver, Feasibility, Model, QueryResult};
use crate::state::{StateId, SymState};
use hardsnap_bus::{BusError, RegionKind};
use hardsnap_isa::encoding::{AluOp, Cond, Instr, NUM_IRQ_LINES, VECTOR_BASE};

/// How symbolic values crossing the VM boundary are concretized
/// (paper §III-B "concretization policy": completeness vs performance).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Concretization {
    /// One satisfying value; the path is constrained to it (performance).
    Minimal,
    /// Fork one successor per satisfying value, up to the bound
    /// (completeness).
    Exhaustive(usize),
}

/// The hardware side of forwarded MMIO, as seen by one symbolic state.
/// The HardSnap engine implements this with hardware-context switching;
/// tests may use simple stubs.
pub trait SymMmio {
    /// Forwarded 32-bit read.
    ///
    /// # Errors
    ///
    /// Propagates the hardware [`BusError`].
    fn mmio_read(&mut self, state: &SymState, addr: u32) -> Result<u32, BusError>;

    /// Forwarded 32-bit write.
    ///
    /// # Errors
    ///
    /// Propagates the hardware [`BusError`].
    fn mmio_write(&mut self, state: &SymState, addr: u32, data: u32) -> Result<(), BusError>;
}

/// MMIO stub that faults every access (software-only analyses).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoSymMmio;

impl SymMmio for NoSymMmio {
    fn mmio_read(&mut self, _state: &SymState, addr: u32) -> Result<u32, BusError> {
        Err(BusError::SlaveError { addr })
    }
    fn mmio_write(&mut self, _state: &SymState, addr: u32, _data: u32) -> Result<(), BusError> {
        Err(BusError::SlaveError { addr })
    }
}

/// Classification of a detected bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BugKind {
    /// `assert` can fail on this path.
    AssertFailed,
    /// `fail` marker reached.
    FailHit,
    /// Unmapped memory access.
    Unmapped,
    /// Misaligned access.
    Unaligned,
    /// Undecodable (or symbolic) instruction.
    IllegalInstruction,
    /// Hardware bus error surfaced to firmware.
    Bus,
    /// Byte access into the MMIO window.
    MmioByteAccess,
}

/// A reported bug with its reproducing test case.
#[derive(Clone, Debug)]
pub struct BugReport {
    /// Classification.
    pub kind: BugKind,
    /// PC of the faulting instruction.
    pub pc: u32,
    /// State that hit the bug.
    pub state_id: StateId,
    /// Concrete input assignment reproducing the bug, if solvable.
    pub testcase: Option<Model>,
    /// Human-readable description.
    pub description: String,
}

/// Result of symbolically executing one instruction.
#[derive(Debug)]
pub enum StepOutcome {
    /// Execution continues in this successor state.
    ContinueWith(SymState),
    /// The state forked; successors replace it (first keeps the id).
    Fork(Vec<SymState>),
    /// The state halted; carries the final state for inspection
    /// (console output, final memory, constraints).
    Halted(SymState),
    /// A bug was found; execution of the state may continue on the
    /// non-buggy path if one exists.
    Bug {
        /// The report.
        report: BugReport,
        /// The surviving non-buggy continuation, if feasible.
        continuation: Option<SymState>,
    },
}

/// Executor statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions symbolically executed.
    pub instructions: u64,
    /// Fork events.
    pub forks: u64,
    /// Concretizations at the VM boundary.
    pub concretizations: u64,
}

/// The symbolic executor: owns the term pool and the solver.
pub struct Executor {
    /// Term arena shared by all states of this executor. Never replace
    /// it on a live executor: the feasibility cache keys its terms.
    pub pool: TermPool,
    /// Decision procedure.
    pub solver: BvSolver,
    /// Feasibility answers, keyed by terms of `pool`.
    feasibility: Feasibility,
    /// Concretization policy at the VM boundary.
    pub policy: Concretization,
    /// Statistics.
    pub stats: ExecStats,
}

impl Executor {
    /// Creates an executor with the given concretization policy.
    pub fn new(policy: Concretization) -> Self {
        Executor {
            pool: TermPool::new(),
            solver: BvSolver::new(),
            feasibility: Feasibility::default(),
            policy,
            stats: ExecStats::default(),
        }
    }

    /// Creates the initial state for a program image.
    pub fn initial_state(&mut self, image: Vec<u8>, entry: u32) -> SymState {
        SymState::initial(&mut self.pool, std::sync::Arc::new(image), entry)
    }

    /// Is `constraints ∧ cond` satisfiable? `constraints` must be a live
    /// state's path constraint (satisfiable on its own). Answered on the
    /// independent slice of `constraints` from this executor's cache;
    /// counted in `solver.stats` (`cached` for a cache hit).
    pub fn feasible(&mut self, constraints: &[TermId], cond: TermId) -> bool {
        self.feasibility
            .feasible(&self.pool, &mut self.solver, constraints, cond)
    }

    /// Extracts a concrete input assignment satisfying the state's path.
    pub fn testcase(&mut self, state: &SymState) -> Option<Model> {
        match self.solver.check(&self.pool, &state.constraints) {
            QueryResult::Sat(m) => Some(m),
            QueryResult::Unsat => None,
        }
    }

    /// Delivers an interrupt: vectors through the table if the state
    /// accepts interrupts. Returns the line taken.
    pub fn enter_irq(&mut self, state: &mut SymState, lines: u32) -> Option<u32> {
        if !state.irq_enabled || state.in_isr || state.halted || lines == 0 {
            return None;
        }
        let line = lines.trailing_zeros();
        if line >= NUM_IRQ_LINES {
            return None;
        }
        let vec_term = state.mem.load32(&mut self.pool, VECTOR_BASE + 4 * line);
        let handler = self.pool.as_const(vec_term)? as u32;
        if handler == 0 {
            return None;
        }
        state.epc = state.pc;
        state.pc = handler;
        state.in_isr = true;
        Some(line)
    }

    fn bug(&mut self, state: &SymState, kind: BugKind, pc: u32, description: String) -> BugReport {
        let testcase = self.testcase(state);
        BugReport {
            kind,
            pc,
            state_id: state.id,
            testcase,
            description,
        }
    }

    /// Concretizes `term` under the state's constraints according to the
    /// policy; returns the chosen values (1 for Minimal, up to N for
    /// Exhaustive). Empty means the path is infeasible.
    fn concretize(&mut self, state: &SymState, term: TermId) -> Vec<u64> {
        self.stats.concretizations += 1;
        if let Some(v) = self.pool.as_const(term) {
            return vec![v];
        }
        match self.policy {
            Concretization::Minimal => match self.solver.check(&self.pool, &state.constraints) {
                QueryResult::Sat(m) => vec![m.eval(&self.pool, term)],
                QueryResult::Unsat => vec![],
            },
            Concretization::Exhaustive(n) => {
                self.solver
                    .solutions(&mut self.pool, &state.constraints, term, n)
            }
        }
    }

    /// Symbolically executes one instruction of `state`, forwarding MMIO
    /// to `hw`.
    pub fn step(&mut self, mut state: SymState, hw: &mut dyn SymMmio) -> StepOutcome {
        if state.halted {
            return StepOutcome::Halted(state);
        }
        self.stats.instructions += 1;
        let pc = state.pc;
        if pc % 4 != 0 || state.map.kind_of(pc) != Some(RegionKind::Ram) {
            let report = self.bug(
                &state,
                BugKind::Unmapped,
                pc,
                format!("control flow reached invalid pc {pc:#010x}"),
            );
            return StepOutcome::Bug {
                report,
                continuation: None,
            };
        }
        let word_t = state.mem.load32(&mut self.pool, pc);
        let Some(word) = self.pool.as_const(word_t) else {
            let report = self.bug(
                &state,
                BugKind::IllegalInstruction,
                pc,
                "symbolic instruction word (self-modifying code?)".to_string(),
            );
            return StepOutcome::Bug {
                report,
                continuation: None,
            };
        };
        let instr = match Instr::decode(word as u32) {
            Ok(i) => i,
            Err(e) => {
                let report = self.bug(
                    &state,
                    BugKind::IllegalInstruction,
                    pc,
                    format!("illegal instruction: {e}"),
                );
                return StepOutcome::Bug {
                    report,
                    continuation: None,
                };
            }
        };

        let mut next_pc = pc.wrapping_add(4);
        match instr {
            Instr::Nop => {}
            Instr::Chkpt { id } => state.last_checkpoint = Some(id),
            Instr::Halt => {
                state.halted = true;
                state.instret += 1;
                return StepOutcome::Halted(state);
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let a = state.reg(rs1);
                let b = state.reg(rs2);
                let v = self.alu_term(op, a, b);
                state.set_reg(rd, v);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let a = state.reg(rs1);
                let b = self.pool.constant(imm as u64, 32);
                let v = self.alu_term(op, a, b);
                state.set_reg(rd, v);
            }
            Instr::Lui { rd, imm } => {
                let v = self.pool.constant((imm as u64) << 16, 32);
                state.set_reg(rd, v);
            }
            Instr::Ldw { rd, rs1, off } | Instr::Ldb { rd, rs1, off } => {
                let byte = matches!(instr, Instr::Ldb { .. });
                return self.exec_load(state, hw, rd, rs1, off, byte, next_pc);
            }
            Instr::Stw { rs2, rs1, off } | Instr::Stb { rs2, rs1, off } => {
                let byte = matches!(instr, Instr::Stb { .. });
                return self.exec_store(state, hw, rs2, rs1, off, byte, next_pc);
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                off,
            } => {
                let a = state.reg(rs1);
                let b = state.reg(rs2);
                let c = self.cond_term(cond, a, b);
                let taken_pc = pc.wrapping_add(4).wrapping_add(off as i32 as u32);
                if let Some(v) = self.pool.as_const(c) {
                    next_pc = if v == 1 { taken_pc } else { next_pc };
                } else {
                    let not_c = self.pool.not_cond(c);
                    let sat_t = self.feasible(&state.constraints, c);
                    let sat_f = self.feasible(&state.constraints, not_c);
                    state.instret += 1;
                    match (sat_t, sat_f) {
                        (true, true) => {
                            self.stats.forks += 1;
                            let fall_id = state.next_fork_id();
                            let mut taken = state.clone();
                            taken.assume(c);
                            taken.pc = taken_pc;
                            let mut fall = state;
                            fall.assume(not_c);
                            fall.pc = pc.wrapping_add(4);
                            fall.id = fall_id;
                            return StepOutcome::Fork(vec![taken, fall]);
                        }
                        (true, false) => {
                            state.assume(c);
                            state.pc = taken_pc;
                            return StepOutcome::ContinueWith(state);
                        }
                        (false, true) => {
                            state.assume(not_c);
                            state.pc = pc.wrapping_add(4);
                            return StepOutcome::ContinueWith(state);
                        }
                        (false, false) => {
                            // Path constraints already unsatisfiable.
                            state.halted = true;
                            return StepOutcome::Halted(state);
                        }
                    }
                }
            }
            Instr::Jal { rd, off } => {
                let link = self.pool.constant(pc.wrapping_add(4) as u64, 32);
                state.set_reg(rd, link);
                next_pc = pc.wrapping_add(4).wrapping_add(off as u32);
            }
            Instr::Jalr { rd, rs1, off } => {
                let target_t = state.reg(rs1);
                let offc = self.pool.constant(off as i32 as u32 as u64, 32);
                let target_t = self.pool.binary(BinOp::Add, target_t, offc);
                let link = self.pool.constant(pc.wrapping_add(4) as u64, 32);
                state.set_reg(rd, link);
                let targets = self.concretize(&state, target_t);
                state.instret += 1;
                return self.fork_on_values(state, target_t, targets, |s, v| {
                    s.pc = v as u32;
                });
            }
            Instr::Iret => {
                next_pc = state.epc;
                state.in_isr = false;
            }
            Instr::Cli => state.irq_enabled = false,
            Instr::Sei => state.irq_enabled = true,
            Instr::Sym { rd, id } => {
                let n = state.sym_count;
                state.sym_count += 1;
                let v = self.pool.var(&format!("sym{id}_{n}"), 32);
                state.set_reg(rd, v);
            }
            Instr::Assert { rs1 } => {
                let v = state.reg(rs1);
                let zero = self.pool.constant(0, 32);
                let is_zero = self.pool.binary(BinOp::Eq, v, zero);
                state.pc = next_pc;
                state.instret += 1;
                match self.pool.as_const(is_zero) {
                    Some(1) => {
                        let report = self.bug(
                            &state,
                            BugKind::AssertFailed,
                            pc,
                            "assertion failed (concretely)".to_string(),
                        );
                        return StepOutcome::Bug {
                            report,
                            continuation: None,
                        };
                    }
                    Some(_) => return StepOutcome::ContinueWith(state),
                    None => {
                        let can_fail = self.feasible(&state.constraints, is_zero);
                        if can_fail {
                            let mut failing = state.clone();
                            failing.assume(is_zero);
                            let report = self.bug(
                                &failing,
                                BugKind::AssertFailed,
                                pc,
                                "assertion can fail on this path".to_string(),
                            );
                            let not_zero = self.pool.not_cond(is_zero);
                            let survives = self.feasible(&state.constraints, not_zero);
                            let continuation = if survives {
                                state.assume(not_zero);
                                Some(state)
                            } else {
                                None
                            };
                            return StepOutcome::Bug {
                                report,
                                continuation,
                            };
                        }
                        let not_zero = self.pool.not_cond(is_zero);
                        state.assume(not_zero);
                        return StepOutcome::ContinueWith(state);
                    }
                }
            }
            Instr::Fail => {
                let report = self.bug(
                    &state,
                    BugKind::FailHit,
                    pc,
                    "fail marker reached".to_string(),
                );
                return StepOutcome::Bug {
                    report,
                    continuation: None,
                };
            }
            Instr::Putc { rs1 } => {
                let v = state.reg(rs1);
                let byte = self.pool.extract(v, 7, 0);
                let vals = self.concretize(&state, byte);
                if let Some(&v) = vals.first() {
                    state.console.push(v as u8);
                }
            }
        }
        state.pc = next_pc;
        state.instret += 1;
        StepOutcome::ContinueWith(state)
    }

    fn exec_load(
        &mut self,
        mut state: SymState,
        hw: &mut dyn SymMmio,
        rd: u8,
        rs1: u8,
        off: i16,
        byte: bool,
        next_pc: u32,
    ) -> StepOutcome {
        let pc = state.pc;
        let base = state.reg(rs1);
        let offc = self.pool.constant(off as i32 as u32 as u64, 32);
        let addr_t = self.pool.binary(BinOp::Add, base, offc);
        let addrs = self.concretize(&state, addr_t);
        if addrs.is_empty() {
            state.halted = true;
            return StepOutcome::Halted(state);
        }
        state.pc = next_pc;
        state.instret += 1;
        self.fork_on_values_with(state, addr_t, addrs, |this, s, av| {
            let addr = av as u32;
            if !byte && addr % 4 != 0 {
                let report = this.bug(
                    s,
                    BugKind::Unaligned,
                    pc,
                    format!("unaligned load at {addr:#010x}"),
                );
                return Err(report);
            }
            match s.map.kind_of(addr) {
                Some(RegionKind::Ram) | Some(RegionKind::Rom) => {
                    let v = if byte {
                        let b = s.mem.load8(&mut this.pool, addr);
                        this.pool.zext(b, 32)
                    } else {
                        s.mem.load32(&mut this.pool, addr)
                    };
                    s.set_reg(rd, v);
                    Ok(())
                }
                Some(RegionKind::Mmio) => {
                    if byte {
                        return Err(this.bug(
                            s,
                            BugKind::MmioByteAccess,
                            pc,
                            format!("byte load from mmio {addr:#010x}"),
                        ));
                    }
                    match hw.mmio_read(s, addr) {
                        Ok(v) => {
                            let t = this.pool.constant(v as u64, 32);
                            s.set_reg(rd, t);
                            Ok(())
                        }
                        Err(e) => {
                            Err(this.bug(s, BugKind::Bus, pc, format!("bus error on load: {e}")))
                        }
                    }
                }
                None => Err(this.bug(
                    s,
                    BugKind::Unmapped,
                    pc,
                    format!("load from unmapped {addr:#010x}"),
                )),
            }
        })
    }

    fn exec_store(
        &mut self,
        mut state: SymState,
        hw: &mut dyn SymMmio,
        rs2: u8,
        rs1: u8,
        off: i16,
        byte: bool,
        next_pc: u32,
    ) -> StepOutcome {
        let pc = state.pc;
        let base = state.reg(rs1);
        let offc = self.pool.constant(off as i32 as u32 as u64, 32);
        let addr_t = self.pool.binary(BinOp::Add, base, offc);
        let addrs = self.concretize(&state, addr_t);
        if addrs.is_empty() {
            state.halted = true;
            return StepOutcome::Halted(state);
        }
        // Exhaustive concretization of the *data* crossing the VM
        // boundary: when the (single) target address is MMIO and the
        // stored value is symbolic, fork one successor per feasible
        // value. Only the first successor performs the write now (it
        // owns the live hardware); the others rewind to re-execute the
        // store under their pinned value once the scheduler gives them
        // their own hardware context.
        if addrs.len() == 1 && !byte {
            let addr = addrs[0] as u32;
            if addr % 4 == 0 && state.map.kind_of(addr) == Some(RegionKind::Mmio) {
                let value = state.reg(rs2);
                if self.pool.as_const(value).is_none() {
                    if let Some(c) = self.pool.as_const(addr_t).is_none().then(|| {
                        let w = self.pool.width(addr_t);
                        let ca = self.pool.constant(addr as u64, w);
                        self.pool.binary(BinOp::Eq, addr_t, ca)
                    }) {
                        state.assume(c);
                    }
                    let vals = self.concretize(&state, value);
                    if vals.is_empty() {
                        state.halted = true;
                        return StepOutcome::Halted(state);
                    }
                    if vals.len() > 1 {
                        self.stats.forks += vals.len() as u64 - 1;
                        let extra_ids: Vec<StateId> =
                            (1..vals.len()).map(|_| state.next_fork_id()).collect();
                        let mut successors = Vec::with_capacity(vals.len());
                        for (i, &v) in vals.iter().enumerate() {
                            let mut s2 = state.clone();
                            let w = self.pool.width(value);
                            let cv = self.pool.constant(v, w);
                            let eq = self.pool.binary(BinOp::Eq, value, cv);
                            s2.assume(eq);
                            if i == 0 {
                                s2.pc = next_pc;
                                s2.instret += 1;
                                match hw.mmio_write(&s2, addr, v as u32) {
                                    Ok(()) => {}
                                    Err(e) => {
                                        let report = self.bug(
                                            &s2,
                                            BugKind::Bus,
                                            pc,
                                            format!("bus error on store: {e}"),
                                        );
                                        return StepOutcome::Bug {
                                            report,
                                            continuation: None,
                                        };
                                    }
                                }
                            } else {
                                // Re-execute the store when scheduled.
                                s2.pc = pc;
                                s2.id = extra_ids[i - 1];
                            }
                            successors.push(s2);
                        }
                        return StepOutcome::Fork(successors);
                    }
                }
            }
        }
        state.pc = next_pc;
        state.instret += 1;
        self.fork_on_values_with(state, addr_t, addrs, |this, s, av| {
            let addr = av as u32;
            if !byte && addr % 4 != 0 {
                return Err(this.bug(
                    s,
                    BugKind::Unaligned,
                    pc,
                    format!("unaligned store at {addr:#010x}"),
                ));
            }
            let value = s.reg(rs2);
            match s.map.kind_of(addr) {
                Some(RegionKind::Ram) => {
                    if byte {
                        let b = this.pool.extract(value, 7, 0);
                        s.mem.store8(addr, b);
                    } else {
                        s.mem.store32(&mut this.pool, addr, value);
                    }
                    Ok(())
                }
                Some(RegionKind::Rom) => Err(this.bug(
                    s,
                    BugKind::Unmapped,
                    pc,
                    format!("write to rom {addr:#010x}"),
                )),
                Some(RegionKind::Mmio) => {
                    if byte {
                        return Err(this.bug(
                            s,
                            BugKind::MmioByteAccess,
                            pc,
                            format!("byte store to mmio {addr:#010x}"),
                        ));
                    }
                    // Concretize the *data* crossing the VM boundary.
                    let vals = this.concretize(s, value);
                    let Some(&v0) = vals.first() else {
                        s.halted = true;
                        return Ok(());
                    };
                    // Note: exhaustive data forking at stores is folded
                    // to the first value here; the address fork already
                    // multiplied paths. Constrain the path to the value
                    // actually sent to hardware (KLEE-style).
                    if this.pool.as_const(value).is_none() {
                        let w = this.pool.width(value);
                        let cv = this.pool.constant(v0, w);
                        let eq = this.pool.binary(BinOp::Eq, value, cv);
                        s.assume(eq);
                    }
                    match hw.mmio_write(s, addr, v0 as u32) {
                        Ok(()) => Ok(()),
                        Err(e) => {
                            Err(this.bug(s, BugKind::Bus, pc, format!("bus error on store: {e}")))
                        }
                    }
                }
                None => Err(this.bug(
                    s,
                    BugKind::Unmapped,
                    pc,
                    format!("store to unmapped {addr:#010x}"),
                )),
            }
        })
    }

    /// Forks `state` over concrete `values` of `term` and applies `f` to
    /// each successor.
    fn fork_on_values(
        &mut self,
        state: SymState,
        term: TermId,
        values: Vec<u64>,
        f: impl Fn(&mut SymState, u64),
    ) -> StepOutcome {
        self.fork_on_values_with(state, term, values, |_, s, v| {
            f(s, v);
            Ok(())
        })
    }

    /// Fork helper with executor access and per-branch bug reporting.
    fn fork_on_values_with(
        &mut self,
        mut state: SymState,
        term: TermId,
        values: Vec<u64>,
        mut f: impl FnMut(&mut Self, &mut SymState, u64) -> Result<(), BugReport>,
    ) -> StepOutcome {
        if values.is_empty() {
            let mut s = state;
            s.halted = true;
            return StepOutcome::Halted(s);
        }
        let symbolic = self.pool.as_const(term).is_none();
        if values.len() == 1 {
            let mut s = state;
            if symbolic {
                let w = self.pool.width(term);
                let cv = self.pool.constant(values[0], w);
                let eq = self.pool.binary(BinOp::Eq, term, cv);
                s.assume(eq);
            }
            return match f(self, &mut s, values[0]) {
                Ok(()) => StepOutcome::ContinueWith(s),
                Err(report) => StepOutcome::Bug {
                    report,
                    continuation: None,
                },
            };
        }
        self.stats.forks += values.len() as u64 - 1;
        let extra_ids: Vec<StateId> = (1..values.len()).map(|_| state.next_fork_id()).collect();
        let mut successors = Vec::new();
        let mut first_bug = None;
        for (i, &v) in values.iter().enumerate() {
            let mut s = state.clone();
            if i > 0 {
                s.id = extra_ids[i - 1];
            }
            let w = self.pool.width(term);
            let cv = self.pool.constant(v, w);
            let eq = self.pool.binary(BinOp::Eq, term, cv);
            s.assume(eq);
            match f(self, &mut s, v) {
                Ok(()) => successors.push(s),
                Err(report) => {
                    if first_bug.is_none() {
                        first_bug = Some(report);
                    }
                }
            }
        }
        match first_bug {
            Some(report) => StepOutcome::Bug {
                report,
                continuation: if successors.len() == 1 {
                    successors.pop()
                } else if successors.is_empty() {
                    None
                } else {
                    // Multiple survivors alongside a bug: fold into a
                    // fork by reporting the bug and keeping the first
                    // survivor; remaining survivors are rare (exhaustive
                    // policy) and acceptable to drop with a note.
                    successors.truncate(1);
                    successors.pop()
                },
            },
            None => {
                if successors.len() == 1 {
                    StepOutcome::ContinueWith(successors.pop().unwrap())
                } else {
                    StepOutcome::Fork(successors)
                }
            }
        }
    }

    fn alu_term(&mut self, op: AluOp, a: TermId, b: TermId) -> TermId {
        let p = &mut self.pool;
        match op {
            AluOp::Add => p.binary(BinOp::Add, a, b),
            AluOp::Sub => p.binary(BinOp::Sub, a, b),
            AluOp::And => p.binary(BinOp::And, a, b),
            AluOp::Or => p.binary(BinOp::Or, a, b),
            AluOp::Xor => p.binary(BinOp::Xor, a, b),
            AluOp::Mul => p.binary(BinOp::Mul, a, b),
            AluOp::Shl | AluOp::Shr | AluOp::Sra => {
                let m31 = p.constant(31, 32);
                let sh = p.binary(BinOp::And, b, m31);
                let bop = match op {
                    AluOp::Shl => BinOp::Shl,
                    AluOp::Shr => BinOp::Lshr,
                    _ => BinOp::Ashr,
                };
                p.binary(bop, a, sh)
            }
        }
    }

    fn cond_term(&mut self, c: Cond, a: TermId, b: TermId) -> TermId {
        let p = &mut self.pool;
        match c {
            Cond::Eq => p.binary(BinOp::Eq, a, b),
            Cond::Ne => {
                let e = p.binary(BinOp::Eq, a, b);
                p.unary(UnOp::Not, e)
            }
            Cond::Lt => p.binary(BinOp::Slt, a, b),
            Cond::Ge => {
                let l = p.binary(BinOp::Slt, a, b);
                p.unary(UnOp::Not, l)
            }
            Cond::Ltu => p.binary(BinOp::Ult, a, b),
            Cond::Geu => {
                let l = p.binary(BinOp::Ult, a, b);
                p.unary(UnOp::Not, l)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortableState;
    use hardsnap_isa::assemble;

    fn exec_program(src: &str, policy: Concretization, max_steps: usize) -> ExecRunResult {
        let prog = assemble(src).unwrap();
        let mut ex = Executor::new(policy);
        let init = ex.initial_state(prog.image.clone(), prog.entry);
        let mut worklist = vec![init];
        let mut halted = Vec::new();
        let mut bugs = Vec::new();
        let mut steps = 0;
        let mut hw = NoSymMmio;
        while let Some(state) = worklist.pop() {
            if steps >= max_steps {
                break;
            }
            steps += 1;
            match ex.step(state, &mut hw) {
                StepOutcome::ContinueWith(s) => worklist.push(s),
                StepOutcome::Fork(ss) => worklist.extend(ss),
                StepOutcome::Halted(s) => halted.push(s),
                StepOutcome::Bug {
                    report,
                    continuation,
                } => {
                    bugs.push(report);
                    if let Some(c) = continuation {
                        worklist.push(c);
                    }
                }
            }
        }
        ExecRunResult {
            halted: halted.len(),
            bugs,
            executor: ex,
        }
    }

    struct ExecRunResult {
        halted: usize,
        bugs: Vec<BugReport>,
        executor: Executor,
    }

    #[test]
    fn concrete_program_runs_without_solver() {
        let r = exec_program(
            r#"
            .org 0x100
            entry:
                movi r1, #21
                movi r2, #2
                mul r3, r1, r2
                halt
            "#,
            Concretization::Minimal,
            100,
        );
        assert_eq!(r.halted, 1);
        assert!(r.bugs.is_empty());
        assert_eq!(
            r.executor.solver.stats.queries, 0,
            "no solver use on concrete path"
        );
    }

    #[test]
    fn symbolic_branch_forks_two_paths() {
        let r = exec_program(
            r#"
            .org 0x100
            entry:
                sym r1, #0
                movi r2, #10
                blt r1, r2, small
                halt
            small:
                halt
            "#,
            Concretization::Minimal,
            100,
        );
        assert_eq!(r.halted, 2, "both sides feasible");
        assert_eq!(r.executor.stats.forks, 1);
    }

    #[test]
    fn nested_branches_explore_all_paths() {
        // 3 symbolic branches => 8 paths.
        let r = exec_program(
            r#"
            .org 0x100
            entry:
                sym r1, #0
                sym r2, #1
                sym r3, #2
                movi r4, #0
                beq r1, r4, a
            a:
                beq r2, r4, b
            b:
                beq r3, r4, c
            c:
                halt
            "#,
            Concretization::Minimal,
            1000,
        );
        assert_eq!(r.halted, 8);
    }

    #[test]
    fn assert_reports_bug_with_testcase() {
        let r = exec_program(
            r#"
            .org 0x100
            entry:
                sym r1, #0
                movi r2, #42
                sub r3, r1, r2
                assert r3        ; fails iff r1 == 42
                halt
            "#,
            Concretization::Minimal,
            100,
        );
        assert_eq!(r.bugs.len(), 1);
        let bug = &r.bugs[0];
        assert_eq!(bug.kind, BugKind::AssertFailed);
        let tc = bug.testcase.as_ref().expect("testcase");
        let (name, v) = tc.iter().next().expect("one symbolic input");
        assert!(name.starts_with("sym0"));
        assert_eq!(v, 42, "the reproducing input is exactly 42");
        // And the non-failing continuation survived to halt.
        assert_eq!(r.halted, 1);
    }

    #[test]
    fn fail_marker_is_reported_when_reachable() {
        let r = exec_program(
            r#"
            .org 0x100
            entry:
                sym r1, #0
                movi r2, #7
                bne r1, r2, ok
                fail
            ok:
                halt
            "#,
            Concretization::Minimal,
            100,
        );
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::FailHit);
        let tc = r.bugs[0].testcase.as_ref().unwrap();
        let (_, v) = tc.iter().next().unwrap();
        assert_eq!(v, 7);
        assert_eq!(r.halted, 1);
    }

    #[test]
    fn unmapped_access_is_detected() {
        let r = exec_program(
            r#"
            .org 0x100
            entry:
                li r1, 0x30000000
                ldw r2, [r1]
                halt
            "#,
            Concretization::Minimal,
            100,
        );
        assert_eq!(r.bugs.len(), 1);
        assert_eq!(r.bugs[0].kind, BugKind::Unmapped);
    }

    #[test]
    fn symbolic_address_concretizes_minimal() {
        // Store through a symbolic (but constrained) pointer.
        let r = exec_program(
            r#"
            .org 0x100
            entry:
                sym r1, #0
                andi r1, r1, #0xFC    ; 4-aligned, < 256: stays in RAM
                movi r2, #99
                stw r2, [r1, #0x1000]
                halt
            "#,
            Concretization::Minimal,
            100,
        );
        assert!(r.bugs.is_empty(), "{:?}", r.bugs);
        assert_eq!(r.halted, 1);
        assert!(r.executor.stats.concretizations >= 1);
    }

    #[test]
    fn exhaustive_policy_forks_over_addresses() {
        // r1 in {0,4} via masking; exhaustive policy must fork 2 ways.
        let r = exec_program(
            r#"
            .org 0x100
            entry:
                sym r1, #0
                andi r1, r1, #4      ; r1 in {0, 4}
                movi r2, #1
                stw r2, [r1, #0x1000]
                halt
            "#,
            Concretization::Exhaustive(8),
            100,
        );
        assert!(r.bugs.is_empty());
        assert_eq!(r.halted, 2, "one path per concrete address");
    }

    #[test]
    fn interrupt_entry_and_iret() {
        let prog = assemble(
            r#"
            .org 0x0
            .word isr, 0, 0, 0, 0, 0, 0, 0
            .org 0x100
            entry:
                sei
                nop
                halt
            isr:
                movi r5, #1
                iret
            "#,
        )
        .unwrap();
        let mut ex = Executor::new(Concretization::Minimal);
        let mut s = ex.initial_state(prog.image.clone(), prog.entry);
        let mut hw = NoSymMmio;
        // Execute `sei`.
        s = match ex.step(s, &mut hw) {
            StepOutcome::ContinueWith(s) => s,
            other => panic!("{other:?}"),
        };
        assert!(s.irq_enabled);
        let line = ex.enter_irq(&mut s, 0b1);
        assert_eq!(line, Some(0));
        assert!(s.in_isr);
        // movi r5.
        s = match ex.step(s, &mut hw) {
            StepOutcome::ContinueWith(s) => s,
            other => panic!("{other:?}"),
        };
        // iret.
        s = match ex.step(s, &mut hw) {
            StepOutcome::ContinueWith(s) => s,
            other => panic!("{other:?}"),
        };
        assert!(!s.in_isr);
        assert_eq!(ex.pool.as_const(s.reg(5)), Some(1));
    }

    /// `x < 10`, then three questions about `x`, built in `pool`.
    fn questions(pool: &mut TermPool) -> (TermId, [TermId; 3]) {
        let x = pool.var("x", 32);
        let [three, ten, eleven] = [3, 10, 11].map(|v| pool.constant(v, 32));
        let lt = pool.binary(BinOp::Ult, x, ten);
        let is3 = pool.binary(BinOp::Eq, x, three);
        let not3 = pool.not_cond(is3);
        let is11 = pool.binary(BinOp::Eq, x, eleven);
        (lt, [is3, not3, is11])
    }

    #[test]
    fn feasibility_answers_survive_a_portable_round_trip() {
        let mut ex = Executor::new(Concretization::Minimal);
        let mut s = ex.initial_state(vec![0; 16], 0);
        let (lt, qs) = questions(&mut ex.pool);
        s.assume(lt);
        let answers = qs.map(|q| ex.feasible(&s.constraints, q));
        assert_eq!(answers, [true, true, false]);
        let before = ex.solver.stats;
        assert_eq!((before.queries, before.cached), (3, 0));

        // Into the same pool: the same terms, so the same cache entry.
        let port = PortableState::export(&ex.pool, &s);
        let back = port.import(&mut ex.pool);
        assert!(ex.feasible(&back.constraints, qs[0]));
        let after = ex.solver.stats;
        assert_eq!(after.cached, before.cached + 1);
        assert_eq!(after.queries - after.cached, before.queries - before.cached);

        // A fresh executor has its own pool and cache, and the same answers.
        let mut fresh = Executor::new(Concretization::Minimal);
        let moved = port.import(&mut fresh.pool);
        let (_, qs) = questions(&mut fresh.pool);
        assert_eq!(qs.map(|q| fresh.feasible(&moved.constraints, q)), answers);
        assert_eq!(fresh.solver.stats.cached, 0);
    }

    #[test]
    fn console_output_is_captured() {
        let prog = assemble(".org 0x100\nentry:\n movi r1, #65\n putc r1\n halt\n").unwrap();
        let mut ex = Executor::new(Concretization::Minimal);
        let mut s = ex.initial_state(prog.image.clone(), prog.entry);
        let mut hw = NoSymMmio;
        for _ in 0..2 {
            s = match ex.step(s, &mut hw) {
                StepOutcome::ContinueWith(s) => s,
                other => panic!("{other:?}"),
            };
        }
        assert_eq!(s.console, b"A");
    }
}
