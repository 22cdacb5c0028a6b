//! Compilation of a flat [`Module`] into a levelized bytecode program.
//!
//! The tree-walking evaluator in `hardsnap-sim` re-dispatches on the
//! expression AST for every combinational node on every cycle. This
//! module lowers an elaborated, checked module into the form Verilator
//! compiles to: a flat array of stack-machine [`Op`]s over pre-widthed
//! `u64` slots (one slot per net, one word array per memory), with
//! `if`/`case` lowered to jumps and every width/mask decision made at
//! compile time. Combinational units are emitted in the levelized
//! topological order that [`comb_schedule`] produces (the same order the
//! interpreter uses), clocked processes into a separate edge-triggered
//! segment whose `Nba*` ops preserve two-phase non-blocking semantics
//! bit-exactly.
//!
//! The program also carries the dependency maps an *activity-driven*
//! evaluator needs: for every net (and memory), which combinational
//! blocks read it, which drive it, and which clocked blocks read or
//! write it. An engine can then re-execute only the fan-out cone of
//! nets that actually changed, and on a clock edge only the clocked
//! blocks whose inputs or targets changed — see `hardsnap-sim`'s
//! compiled backend.
//!
//! Bit-exactness relies on two invariants of the interpreter it
//! replaces:
//!
//! * [`Value`]s are always normalized (bits above the width are zero),
//!   so zero-extension is the identity on the raw `u64` and operand
//!   `resize`s cost nothing at run time; truncation is a compile-time
//!   constant mask.
//! * Every expression's result width is statically determined by
//!   [`Expr::width`] rules, so the masks baked into each op equal the
//!   widths the interpreter computes dynamically.

use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::module::{LValue, MemId, Module, NetId, ProcessKind, Stmt};
use crate::value::mask;

/// One combinational evaluation unit: a continuous assign or an
/// `always @(*)` process. Indices refer to `module.assigns` /
/// `module.processes`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CombUnit {
    /// `module.assigns[i]`.
    Assign(usize),
    /// `module.processes[i]` (must be [`ProcessKind::Comb`]).
    Process(usize),
}

/// Errors from [`comb_schedule`] / [`compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The combinational fabric has a cycle; the payload names the nets
    /// driven by the unschedulable units.
    CombLoop(Vec<String>),
    /// A construct the bytecode compiler cannot lower (should not occur
    /// for modules that pass [`crate::check_module`]).
    Unsupported(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::CombLoop(nets) => {
                write!(f, "combinational loop through nets: {}", nets.join(", "))
            }
            CompileError::Unsupported(what) => write!(f, "cannot compile: {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// One stack-machine instruction. All operands are pre-masked `u64`s
/// ("normalized": bits above the static width are zero); every op that
/// can produce out-of-width bits carries the compile-time mask needed
/// to re-normalize.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Push a constant (already normalized).
    Const(u64),
    /// Push `nets[slot]`.
    Load(u32),
    /// Push `(nets[slot] >> lo) & mask` (static slice).
    LoadSlice {
        /// Net slot of the sliced base.
        slot: u32,
        /// Low bit of the slice.
        lo: u32,
        /// Mask of the slice width.
        mask: u64,
    },
    /// Pop a bit index; push that bit of `nets[slot]` (0 if the index
    /// is out of range — matches `Value::get_bit`).
    LoadBit {
        /// Net slot of the indexed base.
        slot: u32,
        /// Declared width of the base net.
        width: u32,
    },
    /// Pop an address; push `mems[mem][addr]` (0 if out of range).
    LoadMem {
        /// Memory index.
        mem: u32,
    },
    /// Pop one operand, push the unary result. `mask` is the operand
    /// width's mask (used by `Not`, `Neg`, `RedAnd`).
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Mask of the operand width.
        mask: u64,
    },
    /// Pop rhs then lhs, push the binary result. `mask` is the result
    /// width's mask; `lw` is the lhs width (shift saturation bound).
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Mask of the result width.
        mask: u64,
        /// Width of the left operand.
        lw: u32,
    },
    /// Pop `low` then `high`; push `(high << shift) | low` where
    /// `shift` is the width of `low`.
    Concat {
        /// Width of the low (most recently pushed) part.
        shift: u32,
    },
    /// Pop a value of width `width`; push it replicated `count` times
    /// (`{count{v}}`).
    Repeat {
        /// Replication count (>= 2; count 1 is elided).
        count: u32,
        /// Width of the replicated value.
        width: u32,
    },
    /// Unconditional jump to an absolute op index.
    Jump(u32),
    /// Pop a value; jump if it is zero (false).
    JumpIfZero(u32),
    /// Pop a value into scratch slot `tmps[i]` (case selectors).
    SetTmp(u32),
    /// Jump to `target` when `tmps[tmp] == label` (case dispatch; the
    /// comparison is over raw bits, exactly like the interpreter's
    /// `select_case_arm`).
    JumpTmpEq {
        /// Scratch slot holding the selector.
        tmp: u32,
        /// Label bits to compare against.
        label: u64,
        /// Jump target on match.
        target: u32,
    },
    /// Pop a value; `nets[slot] = v & mask` (blocking/continuous full
    /// write).
    Store {
        /// Target net slot.
        slot: u32,
        /// Mask of the net width.
        mask: u64,
    },
    /// Pop a value; read-modify-write the static slice
    /// `[lo +: popcount(mask)]` of `nets[slot]`.
    StoreSlice {
        /// Target net slot.
        slot: u32,
        /// Low bit of the slice.
        lo: u32,
        /// Mask of the slice width (unshifted).
        mask: u64,
    },
    /// Pop an index, then a value; set that bit of `nets[slot]` to
    /// `v & 1` (no-op when the index is out of range).
    StoreBit {
        /// Target net slot.
        slot: u32,
        /// Declared width of the target net.
        width: u32,
    },
    /// Pop an address, then a value; `mems[mem][addr] = v & mask`
    /// (no-op when the address is out of range).
    StoreMem {
        /// Target memory index.
        mem: u32,
        /// Mask of the memory word width.
        mask: u64,
    },
    /// Pop a value; append a pending non-blocking full-net write
    /// `(slot, mask, v & mask)`.
    NbaStore {
        /// Target net slot.
        slot: u32,
        /// Mask of the net width.
        mask: u64,
    },
    /// Pop a value; append a pending non-blocking slice write
    /// `(slot, mask << lo, (v & mask) << lo)`.
    NbaStoreSlice {
        /// Target net slot.
        slot: u32,
        /// Low bit of the slice.
        lo: u32,
        /// Mask of the slice width (unshifted).
        mask: u64,
    },
    /// Pop an index, then a value; append a pending non-blocking
    /// single-bit write (dropped when the index is out of range,
    /// matching the interpreter's `schedule_nba`).
    NbaStoreBit {
        /// Target net slot.
        slot: u32,
        /// Declared width of the target net.
        width: u32,
    },
    /// Pop an address, then a value; append a pending non-blocking
    /// memory write `(mem, addr, v)` (masked at commit).
    NbaStoreMem {
        /// Target memory index.
        mem: u32,
    },
}

/// A contiguous span of ops: one combinational unit or one clocked
/// process body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// First op index (inclusive).
    pub start: u32,
    /// Last op index (exclusive).
    pub end: u32,
}

impl Block {
    /// Number of ops in the block.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// True when the block emits no ops (e.g. an empty process body).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A compiled module: flat op array, block tables, and the dependency
/// maps an activity-driven evaluator needs.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// All instructions; blocks index into this.
    pub ops: Vec<Op>,
    /// Combinational blocks in levelized (topological) order — the
    /// exact order [`comb_schedule`] returns.
    pub comb_blocks: Vec<Block>,
    /// Clocked process blocks in process-declaration order.
    pub clocked_blocks: Vec<Block>,
    /// Declared width per net (index = `NetId`).
    pub net_widths: Vec<u32>,
    /// Word mask per memory (index = `MemId`).
    pub mem_masks: Vec<u64>,
    /// Per net: indices into `comb_blocks` of blocks that *read* it.
    pub net_readers: Vec<Vec<u32>>,
    /// Per memory: indices into `comb_blocks` of blocks that read it.
    pub mem_readers: Vec<Vec<u32>>,
    /// Per net: indices into `comb_blocks` of blocks that *drive* it
    /// (needed to re-derive a combinational net after an external
    /// poke smashes it).
    pub net_drivers: Vec<Vec<u32>>,
    /// Combinational blocks that read a net they partially drive
    /// (slice/bit RMW feedback). These are not pure functions of their
    /// inputs, so an activity-driven engine must re-run them exactly
    /// when the interpreter's global dirty flag would — empty for all
    /// sane synthesizable designs.
    pub self_rmw: Vec<u32>,
    /// Per net: indices into `clocked_blocks` of blocks that read it or
    /// write it (ascending, unique). A clocked block is a pure function
    /// of these values, so an edge may skip it while none has changed.
    pub net_clocked: Vec<Vec<u32>>,
    /// Per memory: indices into `clocked_blocks` of blocks that read it
    /// or write it (ascending, unique).
    pub mem_clocked: Vec<Vec<u32>>,
    /// Number of scratch slots needed (max case-nesting depth).
    pub tmp_slots: usize,
    /// Total op count across all combinational blocks (activity
    /// accounting).
    pub total_comb_ops: u64,
}

/// Builds the levelized combinational evaluation order (Kahn's
/// algorithm over net dependencies). Shared by the interpreter and the
/// bytecode compiler so both evaluate in the identical order.
///
/// # Errors
///
/// [`CompileError::CombLoop`] when the fabric has a genuine cycle
/// (partial-lvalue read-modify-write is permitted).
pub fn comb_schedule(module: &Module) -> Result<Vec<CombUnit>, CompileError> {
    // Collect nodes.
    let mut nodes: Vec<CombUnit> = Vec::new();
    for (i, _) in module.assigns.iter().enumerate() {
        nodes.push(CombUnit::Assign(i));
    }
    for (i, p) in module.processes.iter().enumerate() {
        if matches!(p.kind, ProcessKind::Comb) {
            nodes.push(CombUnit::Process(i));
        }
    }

    // net -> list of comb nodes driving it.
    let mut drivers: Vec<Vec<usize>> = vec![Vec::new(); module.nets.len()];
    for (ni, node) in nodes.iter().enumerate() {
        for target in node_targets(module, node) {
            drivers[target.0 as usize].push(ni);
        }
    }

    // Edges: node A -> node B when B reads a net driven by A.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (ni, node) in nodes.iter().enumerate() {
        let mut reads = Vec::new();
        node_reads(module, node, &mut reads);
        for r in reads {
            for &d in &drivers[r.0 as usize] {
                preds[ni].push(d);
            }
        }
        preds[ni].sort_unstable();
        preds[ni].dedup();
        // A node driving a net it also reads is a combinational loop,
        // except the benign read-modify-write of partial lvalues, which
        // we permit by not counting a node as its own predecessor when
        // the only overlap comes from a partial write to the same net.
        preds[ni].retain(|&p| p != ni || node_reads_own_full_target(module, node));
    }

    // Kahn: repeatedly emit nodes with no unresolved predecessors.
    let mut unresolved: Vec<usize> = preds.iter().map(|p| p.len()).collect();
    let mut ready: Vec<usize> = (0..nodes.len()).filter(|&i| unresolved[i] == 0).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (ni, ps) in preds.iter().enumerate() {
        for &p in ps {
            succs[p].push(ni);
        }
    }
    let mut order = Vec::with_capacity(nodes.len());
    while let Some(n) = ready.pop() {
        order.push(n);
        for &s in &succs[n] {
            unresolved[s] -= 1;
            if unresolved[s] == 0 {
                ready.push(s);
            }
        }
    }
    if order.len() != nodes.len() {
        let stuck: Vec<String> = (0..nodes.len())
            .filter(|&i| unresolved[i] > 0)
            .flat_map(|i| {
                node_targets(module, &nodes[i])
                    .into_iter()
                    .map(|n| module.net(n).name.clone())
            })
            .collect();
        return Err(CompileError::CombLoop(stuck));
    }
    Ok(order.into_iter().map(|i| nodes[i]).collect())
}

/// Lowers a flat, checked module into a [`CompiledProgram`].
///
/// The module must already pass [`crate::check_module`]; the width
/// invariants that pass establishes are what make the compile-time
/// masks here correct.
///
/// # Errors
///
/// [`CompileError::CombLoop`] for combinational cycles, and
/// [`CompileError::Unsupported`] for constructs the checker would have
/// rejected anyway (defensive).
pub fn compile(module: &Module) -> Result<CompiledProgram, CompileError> {
    let order = comb_schedule(module)?;
    let mut e = Emitter {
        m: module,
        ops: Vec::new(),
        tmp_depth: 0,
        max_tmp: 0,
    };

    let mut comb_blocks = Vec::with_capacity(order.len());
    for unit in &order {
        let start = e.ops.len() as u32;
        match *unit {
            CombUnit::Assign(ai) => {
                let a = &module.assigns[ai];
                e.emit_assign(&a.lv, &a.rhs, false)?;
            }
            CombUnit::Process(pi) => {
                for s in &module.processes[pi].body {
                    e.emit_stmt(s, false)?;
                }
            }
        }
        comb_blocks.push(Block {
            start,
            end: e.ops.len() as u32,
        });
    }

    let mut clocked_blocks = Vec::new();
    for p in &module.processes {
        if matches!(p.kind, ProcessKind::Clocked { .. }) {
            let start = e.ops.len() as u32;
            for s in &p.body {
                e.emit_stmt(s, true)?;
            }
            clocked_blocks.push(Block {
                start,
                end: e.ops.len() as u32,
            });
        }
    }

    // Dependency maps for activity-driven evaluation. `node_reads` /
    // `node_targets` dedup per node, so each per-net list holds unique
    // block indices in ascending order.
    let mut net_readers: Vec<Vec<u32>> = vec![Vec::new(); module.nets.len()];
    let mut mem_readers: Vec<Vec<u32>> = vec![Vec::new(); module.memories.len()];
    let mut net_drivers: Vec<Vec<u32>> = vec![Vec::new(); module.nets.len()];
    let mut self_rmw: Vec<u32> = Vec::new();
    for (bi, unit) in order.iter().enumerate() {
        let mut reads = Vec::new();
        node_reads(module, unit, &mut reads);
        for &n in &reads {
            net_readers[n.0 as usize].push(bi as u32);
        }
        let mut mreads = Vec::new();
        node_mem_reads(module, unit, &mut mreads);
        for m in mreads {
            mem_readers[m.0 as usize].push(bi as u32);
        }
        let targets = node_targets(module, unit);
        for &t in &targets {
            net_drivers[t.0 as usize].push(bi as u32);
        }
        if targets.iter().any(|t| reads.contains(t)) {
            self_rmw.push(bi as u32);
        }
    }

    let (net_clocked, mem_clocked) = clocked_deps(module);
    let total_comb_ops = comb_blocks.iter().map(|b| b.len() as u64).sum();
    Ok(CompiledProgram {
        ops: e.ops,
        comb_blocks,
        clocked_blocks,
        net_widths: module.nets.iter().map(|n| n.width).collect(),
        mem_masks: module.memories.iter().map(|m| mask(m.width)).collect(),
        net_readers,
        mem_readers,
        net_drivers,
        self_rmw,
        net_clocked,
        mem_clocked,
        tmp_slots: e.max_tmp as usize,
        total_comb_ops,
    })
}

struct Emitter<'m> {
    m: &'m Module,
    ops: Vec<Op>,
    tmp_depth: u32,
    max_tmp: u32,
}

impl Emitter<'_> {
    fn emit_stmt(&mut self, s: &Stmt, clocked: bool) -> Result<(), CompileError> {
        match s {
            Stmt::Assign { lv, rhs, blocking } => {
                // In a comb process all assignments behave as blocking.
                self.emit_assign(lv, rhs, clocked && !*blocking)
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
            } => {
                self.emit_expr(cond)?;
                let jz = self.emit_patchable(Op::JumpIfZero(0));
                for s in then_s {
                    self.emit_stmt(s, clocked)?;
                }
                if else_s.is_empty() {
                    self.patch(jz);
                } else {
                    let jend = self.emit_patchable(Op::Jump(0));
                    self.patch(jz);
                    for s in else_s {
                        self.emit_stmt(s, clocked)?;
                    }
                    self.patch(jend);
                }
                Ok(())
            }
            Stmt::Case { sel, arms, default } => {
                self.emit_expr(sel)?;
                let t = self.tmp_depth;
                self.tmp_depth += 1;
                self.max_tmp = self.max_tmp.max(self.tmp_depth);
                self.ops.push(Op::SetTmp(t));
                // Dispatch table: first arm whose any label matches
                // wins, exactly like `select_case_arm`.
                let mut arm_jumps: Vec<Vec<usize>> = Vec::with_capacity(arms.len());
                for arm in arms {
                    let mut js = Vec::with_capacity(arm.labels.len());
                    for l in &arm.labels {
                        js.push(self.emit_patchable(Op::JumpTmpEq {
                            tmp: t,
                            label: l.bits(),
                            target: 0,
                        }));
                    }
                    arm_jumps.push(js);
                }
                let jdefault = self.emit_patchable(Op::Jump(0));
                let mut end_jumps = Vec::with_capacity(arms.len());
                for (arm, js) in arms.iter().zip(arm_jumps) {
                    for j in js {
                        self.patch(j);
                    }
                    for s in &arm.body {
                        self.emit_stmt(s, clocked)?;
                    }
                    end_jumps.push(self.emit_patchable(Op::Jump(0)));
                }
                self.patch(jdefault);
                for s in default {
                    self.emit_stmt(s, clocked)?;
                }
                for j in end_jumps {
                    self.patch(j);
                }
                self.tmp_depth -= 1;
                Ok(())
            }
        }
    }

    /// Emits RHS evaluation followed by the store op. `nba` selects the
    /// non-blocking variants (clocked `<=`).
    fn emit_assign(&mut self, lv: &LValue, rhs: &Expr, nba: bool) -> Result<(), CompileError> {
        self.emit_expr(rhs)?;
        match lv {
            LValue::Net(n) => {
                let m = mask(self.m.net(*n).width);
                self.ops.push(if nba {
                    Op::NbaStore { slot: n.0, mask: m }
                } else {
                    Op::Store { slot: n.0, mask: m }
                });
            }
            LValue::Slice { base, hi, lo } => {
                let m = mask(hi - lo + 1);
                self.ops.push(if nba {
                    Op::NbaStoreSlice {
                        slot: base.0,
                        lo: *lo,
                        mask: m,
                    }
                } else {
                    Op::StoreSlice {
                        slot: base.0,
                        lo: *lo,
                        mask: m,
                    }
                });
            }
            LValue::Index { base, index } => {
                self.emit_expr(index)?;
                let w = self.m.net(*base).width;
                self.ops.push(if nba {
                    Op::NbaStoreBit {
                        slot: base.0,
                        width: w,
                    }
                } else {
                    Op::StoreBit {
                        slot: base.0,
                        width: w,
                    }
                });
            }
            LValue::Mem { mem, addr } => {
                self.emit_expr(addr)?;
                self.ops.push(if nba {
                    Op::NbaStoreMem { mem: mem.0 }
                } else {
                    Op::StoreMem {
                        mem: mem.0,
                        mask: mask(self.m.memory(*mem).width),
                    }
                });
            }
        }
        Ok(())
    }

    /// Emits ops leaving the (normalized) expression value on the
    /// stack; returns its static width. Width rules mirror
    /// [`Expr::width`] exactly.
    fn emit_expr(&mut self, e: &Expr) -> Result<u32, CompileError> {
        Ok(match e {
            Expr::Const(v) => {
                self.ops.push(Op::Const(v.bits()));
                v.width()
            }
            Expr::Net(n) => {
                self.ops.push(Op::Load(n.0));
                self.m.net(*n).width
            }
            Expr::Slice { base, hi, lo } => {
                let w = hi - lo + 1;
                self.ops.push(Op::LoadSlice {
                    slot: base.0,
                    lo: *lo,
                    mask: mask(w),
                });
                w
            }
            Expr::Index { base, index } => {
                self.emit_expr(index)?;
                self.ops.push(Op::LoadBit {
                    slot: base.0,
                    width: self.m.net(*base).width,
                });
                1
            }
            Expr::Unary { op, arg } => {
                let w = self.emit_expr(arg)?;
                self.ops.push(Op::Unary {
                    op: *op,
                    mask: mask(w),
                });
                match op {
                    UnaryOp::Not | UnaryOp::Neg => w,
                    _ => 1,
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let wl = self.emit_expr(lhs)?;
                let wr = self.emit_expr(rhs)?;
                let w = if op.is_boolean() {
                    1
                } else if matches!(op, BinaryOp::Shl | BinaryOp::Shr) {
                    wl
                } else {
                    wl.max(wr)
                };
                self.ops.push(Op::Binary {
                    op: *op,
                    mask: mask(w),
                    lw: wl,
                });
                w
            }
            Expr::Cond {
                cond,
                then_e,
                else_e,
            } => {
                // The interpreter evaluates both arms then picks; both
                // are pure, so branching to evaluate only the taken arm
                // yields the same value. Arms are normalized at their
                // own widths and the unification width is the max, so
                // zero-extension needs no runtime op.
                self.emit_expr(cond)?;
                let jz = self.emit_patchable(Op::JumpIfZero(0));
                let wt = self.emit_expr(then_e)?;
                let jend = self.emit_patchable(Op::Jump(0));
                self.patch(jz);
                let wf = self.emit_expr(else_e)?;
                self.patch(jend);
                wt.max(wf)
            }
            Expr::Concat(parts) => {
                let mut it = parts.iter();
                let first = it
                    .next()
                    .ok_or_else(|| CompileError::Unsupported("empty concatenation".into()))?;
                let mut acc = self.emit_expr(first)?;
                for p in it {
                    let wp = self.emit_expr(p)?;
                    self.ops.push(Op::Concat { shift: wp });
                    acc += wp;
                }
                acc
            }
            Expr::Repeat { count, arg } => {
                if *count == 0 {
                    return Err(CompileError::Unsupported("zero replication count".into()));
                }
                let w = self.emit_expr(arg)?;
                if *count > 1 {
                    self.ops.push(Op::Repeat {
                        count: *count,
                        width: w,
                    });
                }
                count * w
            }
            Expr::MemRead { mem, addr } => {
                self.emit_expr(addr)?;
                self.ops.push(Op::LoadMem { mem: mem.0 });
                self.m.memory(*mem).width
            }
        })
    }

    fn emit_patchable(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn patch(&mut self, at: usize) {
        let target = self.ops.len() as u32;
        match &mut self.ops[at] {
            Op::Jump(t) | Op::JumpIfZero(t) => *t = target,
            Op::JumpTmpEq { target: t, .. } => *t = target,
            other => unreachable!("patch on non-jump op {other:?}"),
        }
    }
}

/// Per net and per memory, the clocked blocks (indices in process
/// declaration order, as `clocked_blocks`) that read or write it: reads
/// as [`stmt_reads`]/[`stmt_mem_reads`] collect them, plus every lvalue
/// target. Blocks are visited in ascending order, so a list whose last
/// entry is the current block has already seen it.
fn clocked_deps(module: &Module) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    fn mark(list: &mut Vec<u32>, bi: u32) {
        if list.last() != Some(&bi) {
            list.push(bi);
        }
    }
    let mut nets: Vec<Vec<u32>> = vec![Vec::new(); module.nets.len()];
    let mut mems: Vec<Vec<u32>> = vec![Vec::new(); module.memories.len()];
    let clocked = module
        .processes
        .iter()
        .filter(|p| matches!(p.kind, ProcessKind::Clocked { .. }));
    for (bi, p) in clocked.enumerate() {
        let bi = bi as u32;
        for s in &p.body {
            stmt_reads(s, &mut |n| mark(&mut nets[n.0 as usize], bi));
            stmt_mem_reads(s, &mut |m| mark(&mut mems[m.0 as usize], bi));
            s.for_each(&mut |s| {
                if let Stmt::Assign { lv, .. } = s {
                    if let Some(n) = lv.target_net() {
                        mark(&mut nets[n.0 as usize], bi);
                    }
                    if let Some(m) = lv.target_mem() {
                        mark(&mut mems[m.0 as usize], bi);
                    }
                }
            });
        }
    }
    (nets, mems)
}

/// True when a comb node reads the *same whole net* it fully drives —
/// a genuine feedback loop (as opposed to partial-lvalue RMW).
fn node_reads_own_full_target(module: &Module, node: &CombUnit) -> bool {
    let targets = node_targets(module, node);
    let full_targets: Vec<NetId> = match node {
        CombUnit::Assign(ai) => match &module.assigns[*ai].lv {
            LValue::Net(n) => vec![*n],
            _ => vec![],
        },
        CombUnit::Process(_) => targets, // comb processes: any self-read is a loop
    };
    let mut reads = Vec::new();
    node_reads(module, node, &mut reads);
    full_targets.iter().any(|t| reads.contains(t))
}

/// Nets written by a comb node.
fn node_targets(module: &Module, node: &CombUnit) -> Vec<NetId> {
    match node {
        CombUnit::Assign(ai) => module.assigns[*ai].lv.target_net().into_iter().collect(),
        CombUnit::Process(pi) => {
            let mut out = Vec::new();
            for s in &module.processes[*pi].body {
                s.for_each(&mut |s| {
                    if let Stmt::Assign { lv, .. } = s {
                        if let Some(n) = lv.target_net() {
                            if !out.contains(&n) {
                                out.push(n);
                            }
                        }
                    }
                });
            }
            out
        }
    }
}

/// Nets read by a comb node (RHS, conditions, selectors, indices).
fn node_reads(module: &Module, node: &CombUnit, out: &mut Vec<NetId>) {
    let mut push = |n: NetId| {
        if !out.contains(&n) {
            out.push(n);
        }
    };
    match node {
        CombUnit::Assign(ai) => {
            let a = &module.assigns[*ai];
            a.rhs.for_each_net(&mut push);
            if let LValue::Index { index, .. } = &a.lv {
                index.for_each_net(&mut push);
            }
            if let LValue::Mem { addr, .. } = &a.lv {
                addr.for_each_net(&mut push);
            }
        }
        CombUnit::Process(pi) => {
            for s in &module.processes[*pi].body {
                stmt_reads(s, &mut push);
            }
        }
    }
}

/// Memories read by a comb node.
fn node_mem_reads(module: &Module, node: &CombUnit, out: &mut Vec<MemId>) {
    let mut push = |m: MemId| {
        if !out.contains(&m) {
            out.push(m);
        }
    };
    match node {
        CombUnit::Assign(ai) => {
            let a = &module.assigns[*ai];
            a.rhs.for_each_mem(&mut push);
            if let LValue::Index { index, .. } = &a.lv {
                index.for_each_mem(&mut push);
            }
            if let LValue::Mem { addr, .. } = &a.lv {
                addr.for_each_mem(&mut push);
            }
        }
        CombUnit::Process(pi) => {
            for s in &module.processes[*pi].body {
                stmt_mem_reads(s, &mut push);
            }
        }
    }
}

fn stmt_reads(s: &Stmt, push: &mut impl FnMut(NetId)) {
    match s {
        Stmt::Assign { lv, rhs, .. } => {
            rhs.for_each_net(push);
            if let LValue::Index { index, .. } = lv {
                index.for_each_net(push);
            }
            if let LValue::Mem { addr, .. } = lv {
                addr.for_each_net(push);
            }
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
        } => {
            cond.for_each_net(push);
            for s in then_s.iter().chain(else_s) {
                stmt_reads(s, push);
            }
        }
        Stmt::Case { sel, arms, default } => {
            sel.for_each_net(push);
            for arm in arms {
                for s in &arm.body {
                    stmt_reads(s, push);
                }
            }
            for s in default {
                stmt_reads(s, push);
            }
        }
    }
}

fn stmt_mem_reads(s: &Stmt, push: &mut impl FnMut(MemId)) {
    match s {
        Stmt::Assign { lv, rhs, .. } => {
            rhs.for_each_mem(push);
            if let LValue::Index { index, .. } = lv {
                index.for_each_mem(push);
            }
            if let LValue::Mem { addr, .. } = lv {
                addr.for_each_mem(push);
            }
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
        } => {
            cond.for_each_mem(push);
            for s in then_s.iter().chain(else_s) {
                stmt_mem_reads(s, push);
            }
        }
        Stmt::Case { sel, arms, default } => {
            sel.for_each_mem(push);
            for arm in arms {
                for s in &arm.body {
                    stmt_mem_reads(s, push);
                }
            }
            for s in default {
                stmt_mem_reads(s, push);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{ContAssign, NetKind, PortDir};
    use crate::value::Value;

    fn net(n: NetId) -> Expr {
        Expr::Net(n)
    }

    fn add(a: Expr, b: Expr) -> Expr {
        Expr::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(a),
            rhs: Box::new(b),
        }
    }

    #[test]
    fn chain_is_levelized_and_compiled_in_dependency_order() {
        // z = b + 1; b = a + 1; a = x + 1 — declared in reverse order.
        let mut m = Module::new("chain");
        let x = m
            .add_net("x", 4, NetKind::Wire, Some(PortDir::Input))
            .unwrap();
        let z = m
            .add_net("z", 4, NetKind::Wire, Some(PortDir::Output))
            .unwrap();
        let a = m.add_net("a", 4, NetKind::Wire, None).unwrap();
        let b = m.add_net("b", 4, NetKind::Wire, None).unwrap();
        let one = Expr::Const(Value::new(1, 4));
        m.assigns.push(ContAssign {
            lv: LValue::Net(z),
            rhs: add(net(b), one.clone()),
        });
        m.assigns.push(ContAssign {
            lv: LValue::Net(b),
            rhs: add(net(a), one.clone()),
        });
        m.assigns.push(ContAssign {
            lv: LValue::Net(a),
            rhs: add(net(x), one),
        });

        let order = comb_schedule(&m).unwrap();
        assert_eq!(
            order,
            vec![
                CombUnit::Assign(2),
                CombUnit::Assign(1),
                CombUnit::Assign(0)
            ]
        );

        let prog = compile(&m).unwrap();
        assert_eq!(prog.comb_blocks.len(), 3);
        assert_eq!(prog.clocked_blocks.len(), 0);
        // Each block: Load, Const, Binary, Store.
        for b in &prog.comb_blocks {
            assert_eq!(b.len(), 4);
        }
        // First block drives `a` and reads `x`.
        assert_eq!(prog.net_drivers[a.0 as usize], vec![0]);
        assert_eq!(prog.net_readers[x.0 as usize], vec![0]);
        // Readers always come after drivers in levelized order.
        assert_eq!(prog.net_drivers[b.0 as usize], vec![1]);
        assert_eq!(prog.net_readers[b.0 as usize], vec![2]);
        assert!(prog.self_rmw.is_empty());
        assert_eq!(prog.total_comb_ops, 12);
    }

    #[test]
    fn comb_loop_is_rejected() {
        let mut m = Module::new("loop");
        let x = m
            .add_net("x", 1, NetKind::Wire, Some(PortDir::Input))
            .unwrap();
        let a = m.add_net("a", 1, NetKind::Wire, None).unwrap();
        let b = m.add_net("b", 1, NetKind::Wire, None).unwrap();
        m.assigns.push(ContAssign {
            lv: LValue::Net(a),
            rhs: Expr::Binary {
                op: BinaryOp::Xor,
                lhs: Box::new(net(b)),
                rhs: Box::new(net(x)),
            },
        });
        m.assigns.push(ContAssign {
            lv: LValue::Net(b),
            rhs: net(a),
        });
        match comb_schedule(&m) {
            Err(CompileError::CombLoop(nets)) => {
                assert!(nets.iter().any(|n| n == "a" || n == "b"));
            }
            other => panic!("expected comb loop, got {other:?}"),
        }
    }

    #[test]
    fn partial_rmw_self_read_is_flagged_not_rejected() {
        // assign w[0] = w[3] — reads the net it partially drives.
        let mut m = Module::new("rmw");
        let w = m.add_net("w", 4, NetKind::Wire, None).unwrap();
        m.assigns.push(ContAssign {
            lv: LValue::Index {
                base: w,
                index: Expr::constant(0, 2),
            },
            rhs: Expr::Index {
                base: w,
                index: Box::new(Expr::constant(3, 2)),
            },
        });
        let prog = compile(&m).unwrap();
        assert_eq!(prog.self_rmw, vec![0]);
    }

    #[test]
    fn case_lowering_dispatches_and_falls_through_to_default() {
        use crate::module::CaseArm;
        let mut m = Module::new("dec");
        let s = m
            .add_net("s", 2, NetKind::Wire, Some(PortDir::Input))
            .unwrap();
        let y = m
            .add_net("y", 4, NetKind::Reg, Some(PortDir::Output))
            .unwrap();
        let arm = |label: u64, out: u64| CaseArm {
            labels: vec![Value::new(label, 2)],
            body: vec![Stmt::Assign {
                lv: LValue::Net(y),
                rhs: Expr::constant(out, 4),
                blocking: true,
            }],
        };
        m.processes.push(crate::module::Process {
            kind: ProcessKind::Comb,
            body: vec![Stmt::Case {
                sel: net(s),
                arms: vec![arm(0, 1), arm(1, 2), arm(2, 4)],
                default: vec![Stmt::Assign {
                    lv: LValue::Net(y),
                    rhs: Expr::constant(8, 4),
                    blocking: true,
                }],
            }],
        });
        let prog = compile(&m).unwrap();
        assert_eq!(prog.tmp_slots, 1);
        // Dispatch: Load sel, SetTmp, 3 JumpTmpEq, Jump(default).
        let b = prog.comb_blocks[0];
        let ops = &prog.ops[b.start as usize..b.end as usize];
        assert!(matches!(ops[0], Op::Load(_)));
        assert!(matches!(ops[1], Op::SetTmp(0)));
        assert_eq!(
            ops[2..5]
                .iter()
                .filter(|o| matches!(o, Op::JumpTmpEq { .. }))
                .count(),
            3
        );
        assert!(matches!(ops[5], Op::Jump(_)));
        // All jump targets stay within the block.
        for op in ops {
            let t = match *op {
                Op::Jump(t) | Op::JumpIfZero(t) => t,
                Op::JumpTmpEq { target, .. } => target,
                _ => continue,
            };
            assert!(t >= b.start && t <= b.end, "jump target {t} escapes block");
        }
    }
}
