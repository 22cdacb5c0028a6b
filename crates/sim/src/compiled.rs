//! Bytecode execution backend: runs a [`CompiledProgram`] with
//! activity-driven (dirty-cone) scheduling.
//!
//! State is raw normalized `u64` slots (one per net) plus memory word
//! arrays — no [`hardsnap_rtl::Value`] construction anywhere on the hot
//! path. A per-comb-block dirty flag plus the program's net→readers /
//! mem→readers maps let `settle()` re-execute only blocks in the
//! fan-out cone of nets that actually changed, and a per-clocked-block
//! flag lets a clock edge run only the processes whose inputs or
//! targets changed; a quiescent design costs a few flag tests per
//! cycle.
//!
//! ## Why dirty-cone settling is bit-exact
//!
//! The interpreter's `settle()` runs *every* comb unit once, in
//! levelized order, whenever anything is dirty. Skipping a block whose
//! inputs did not change is exact because (a) full-target self-reads
//! are rejected as comb loops, so every ordinary block is a pure
//! function of its read set and re-running it with unchanged inputs
//! rewrites unchanged outputs; and (b) Kahn order places every reader
//! of a net after all of its drivers, so one forward pass propagates a
//! change through the whole cone. Two non-pure cases are handled
//! specially:
//!
//! * Blocks reading a net they *partially* drive (`self_rmw`) shift
//!   state on every executed settle; they are re-marked exactly when
//!   the interpreter's global dirty flag would be set (`global_dirty`).
//! * An external poke smashes a comb-driven net, so the poked net's
//!   *drivers* are marked too — re-running them rewrites the derived
//!   value exactly as a full interpreter settle would.
//!
//! ## Why skipping idle clocked blocks is bit-exact
//!
//! The interpreter runs every clocked process on every edge. Here each
//! clocked block has a dirty flag, set by every value change to a net
//! or memory the block reads *or writes* (`prog.net_clocked` /
//! `prog.mem_clocked`): an NBA commit, the block's own included; a
//! blocking store; a comb settle; a poke, and so every restore. Power-on,
//! `fork` and `clear_state` set every flag. A clock edge clears a flag
//! just before its block runs and skips blocks whose flag is clear.
//!
//! A clocked block is a pure function of the values it reads and of
//! its targets' current values (a slice or bit store keeps the other
//! bits). A flag that is still clear at an edge therefore means two
//! things: the block's last run changed nothing (any store or commit
//! that changed a target would have set it again), and nothing it
//! reads or writes has changed since. Re-running it would write the
//! values its targets already hold. One more fact makes that hold
//! across blocks: `check_module` lets only one process write a given
//! reg or memory, so no other block's write to the same target can be
//! ordered after the skipped block's and lose to it. Full-evaluation
//! mode (`activity` off) runs every clocked block, as the interpreter
//! does.

use hardsnap_rtl::{mask, BinaryOp, Block, CompiledProgram, Module, Op, UnaryOp};
use std::sync::Arc;

/// Change journal for VCD tracing: per-net "changed since last drain"
/// bit plus the list of changed slots.
#[derive(Debug)]
struct Journal {
    changed: Vec<bool>,
    list: Vec<u32>,
}

/// Dirty journal for activity-proportional snapshots: which nets and
/// which individual memory words changed since the last drain.
/// Independent of the VCD [`Journal`] — tracing and snapshot capture
/// drain at their own cadences, and enabling one must not perturb the
/// other.
#[derive(Debug)]
struct SnapJournal {
    net_changed: Vec<bool>,
    nets: Vec<u32>,
    /// Per-memory per-word "changed" bit (indices match `st.mems`).
    mem_changed: Vec<Vec<bool>>,
    /// Changed words as (mem index, word index).
    mem_words: Vec<(u32, u32)>,
}

/// Bytecode simulator state for one replica.
#[derive(Debug)]
pub(crate) struct CompiledSim {
    prog: Arc<CompiledProgram>,
    st: ExecState,
}

#[derive(Debug)]
struct ExecState {
    nets: Vec<u64>,
    mems: Vec<Vec<u64>>,
    stack: Vec<u64>,
    tmps: Vec<u64>,
    /// Pending non-blocking net writes: (slot, mask, bits).
    nba_nets: Vec<(u32, u64, u64)>,
    /// Pending non-blocking memory writes: (mem, addr, value).
    nba_mems: Vec<(u32, u64, u64)>,
    /// Per-comb-block dirty flag (indices match `prog.comb_blocks`).
    dirty: Vec<bool>,
    /// Per-clocked-block dirty flag (indices match
    /// `prog.clocked_blocks`): set by every change to a net or memory
    /// the block reads or writes, cleared just before the block runs.
    clk_dirty: Vec<bool>,
    any_dirty: bool,
    /// Mirrors the interpreter's global `comb_dirty` cadence; consumed
    /// by `settle()` to re-mark `self_rmw` blocks.
    global_dirty: bool,
    /// Comb block currently executing in the settle pass (u32::MAX
    /// outside it); a block never re-marks itself mid-settle, matching
    /// the interpreter's run-each-node-once-per-settle rule.
    cur_block: u32,
    /// Whether activity scheduling is on (off = every comb block per
    /// dirty settle and every clocked block per edge, for benchmarking
    /// the win).
    activity: bool,
    /// Whether settle() currently charges the activity counters (only
    /// during `step`, so driver peeks don't skew the hit rate).
    account: bool,
    ops_executed: u64,
    ops_skipped: u64,
    clocked_runs: u64,
    clocked_skipped: u64,
    journal: Option<Journal>,
    snap_journal: Option<SnapJournal>,
}

impl CompiledSim {
    pub(crate) fn new(prog: Arc<CompiledProgram>, module: &Module) -> Self {
        let st = ExecState {
            nets: vec![0; prog.net_widths.len()],
            mems: module
                .memories
                .iter()
                .map(|m| vec![0u64; m.depth as usize])
                .collect(),
            stack: Vec::with_capacity(32),
            tmps: vec![0; prog.tmp_slots],
            nba_nets: Vec::new(),
            nba_mems: Vec::new(),
            dirty: vec![true; prog.comb_blocks.len()],
            clk_dirty: vec![true; prog.clocked_blocks.len()],
            any_dirty: true,
            global_dirty: true,
            cur_block: u32::MAX,
            activity: true,
            account: false,
            ops_executed: 0,
            ops_skipped: 0,
            clocked_runs: 0,
            clocked_skipped: 0,
            journal: None,
            snap_journal: None,
        };
        CompiledSim { prog, st }
    }

    /// Fresh power-on replica sharing the compiled program (keeps the
    /// activity setting; drops journal and counters).
    pub(crate) fn fork(&self, module: &Module) -> Self {
        let mut f = CompiledSim::new(Arc::clone(&self.prog), module);
        f.st.activity = self.st.activity;
        f
    }

    pub(crate) fn set_activity(&mut self, on: bool) {
        self.st.activity = on;
    }

    pub(crate) fn activity(&self) -> bool {
        self.st.activity
    }

    pub(crate) fn ops_executed(&self) -> u64 {
        self.st.ops_executed
    }

    pub(crate) fn ops_skipped(&self) -> u64 {
        self.st.ops_skipped
    }

    pub(crate) fn clocked_runs(&self) -> u64 {
        self.st.clocked_runs
    }

    pub(crate) fn clocked_skipped(&self) -> u64 {
        self.st.clocked_skipped
    }

    pub(crate) fn peek_raw(&self, slot: usize) -> u64 {
        self.st.nets[slot]
    }

    pub(crate) fn mem_words(&self, mem: usize) -> &[u64] {
        &self.st.mems[mem]
    }

    pub(crate) fn settle(&mut self) {
        self.st.settle(&self.prog);
    }

    /// One posedge: settle, clock edge with NBA commit, re-settle.
    /// Mirrors the interpreter's `step()` body exactly.
    pub(crate) fn step_one(&mut self) {
        self.st.account = true;
        self.st.settle(&self.prog);
        self.st.clock_edge(&self.prog);
        self.st.global_dirty = true;
        self.st.settle(&self.prog);
        self.st.account = false;
    }

    pub(crate) fn poke(&mut self, slot: u32, value: u64) {
        self.st.poke(&self.prog, slot, value);
    }

    /// Writes one memory word; returns false when out of range.
    pub(crate) fn poke_mem(&mut self, mem: usize, addr: usize, value: u64) -> bool {
        self.st.poke_mem(&self.prog, mem, addr, value)
    }

    pub(crate) fn clear_state(&mut self) {
        self.st.clear_state(&self.prog);
    }

    pub(crate) fn enable_journal(&mut self) {
        if self.st.journal.is_none() {
            self.st.journal = Some(Journal {
                changed: vec![false; self.st.nets.len()],
                list: Vec::new(),
            });
        }
    }

    /// Enables the snapshot dirty journal (idempotent). The journal
    /// starts empty: the caller is expected to take a full base capture
    /// at the same moment, so "changed since enable" equals "changed
    /// since the base".
    pub(crate) fn enable_snap_journal(&mut self) {
        if self.st.snap_journal.is_none() {
            self.st.snap_journal = Some(SnapJournal {
                net_changed: vec![false; self.st.nets.len()],
                nets: Vec::new(),
                mem_changed: self.st.mems.iter().map(|m| vec![false; m.len()]).collect(),
                mem_words: Vec::new(),
            });
        }
    }

    /// Drains the snapshot journal: nets whose value changed since the
    /// last drain into `nets_out` (ascending), changed memory words
    /// into `mems_out` (ascending (mem, word)). Returns false when the
    /// journal is not enabled (caller must fall back to a full scan).
    pub(crate) fn drain_snap_changes(
        &mut self,
        nets_out: &mut Vec<u32>,
        mems_out: &mut Vec<(u32, u32)>,
    ) -> bool {
        match &mut self.st.snap_journal {
            None => false,
            Some(j) => {
                nets_out.clear();
                nets_out.extend_from_slice(&j.nets);
                nets_out.sort_unstable();
                for &s in nets_out.iter() {
                    j.net_changed[s as usize] = false;
                }
                j.nets.clear();
                mems_out.clear();
                mems_out.extend_from_slice(&j.mem_words);
                mems_out.sort_unstable();
                for &(m, w) in mems_out.iter() {
                    j.mem_changed[m as usize][w as usize] = false;
                }
                j.mem_words.clear();
                true
            }
        }
    }

    /// Drains the set of nets whose value changed since the last drain
    /// into `out` (ascending slot order). Returns false when no journal
    /// is enabled (caller must fall back to a full scan).
    pub(crate) fn drain_changes(&mut self, out: &mut Vec<u32>) -> bool {
        match &mut self.st.journal {
            None => false,
            Some(j) => {
                out.clear();
                out.extend_from_slice(&j.list);
                out.sort_unstable();
                for &s in out.iter() {
                    j.changed[s as usize] = false;
                }
                j.list.clear();
                true
            }
        }
    }
}

impl ExecState {
    /// Marks the readers of a changed net dirty and journals the
    /// change. `self.cur_block` is skipped: a block never re-queues
    /// itself within one settle (see module docs on `self_rmw`).
    #[inline]
    fn on_net_change(&mut self, prog: &CompiledProgram, slot: u32) {
        if let Some(j) = &mut self.journal {
            if !j.changed[slot as usize] {
                j.changed[slot as usize] = true;
                j.list.push(slot);
            }
        }
        if let Some(j) = &mut self.snap_journal {
            if !j.net_changed[slot as usize] {
                j.net_changed[slot as usize] = true;
                j.nets.push(slot);
            }
        }
        for &bi in &prog.net_readers[slot as usize] {
            if bi != self.cur_block && !self.dirty[bi as usize] {
                self.dirty[bi as usize] = true;
                self.any_dirty = true;
            }
        }
        for &bi in &prog.net_clocked[slot as usize] {
            self.clk_dirty[bi as usize] = true;
        }
    }

    #[inline]
    fn on_mem_change(&mut self, prog: &CompiledProgram, mem: u32, addr: u64) {
        if let Some(j) = &mut self.snap_journal {
            if !j.mem_changed[mem as usize][addr as usize] {
                j.mem_changed[mem as usize][addr as usize] = true;
                j.mem_words.push((mem, addr as u32));
            }
        }
        for &bi in &prog.mem_readers[mem as usize] {
            if bi != self.cur_block && !self.dirty[bi as usize] {
                self.dirty[bi as usize] = true;
                self.any_dirty = true;
            }
        }
        for &bi in &prog.mem_clocked[mem as usize] {
            self.clk_dirty[bi as usize] = true;
        }
    }

    fn settle(&mut self, prog: &CompiledProgram) {
        if self.global_dirty {
            self.global_dirty = false;
            for &bi in &prog.self_rmw {
                if !self.dirty[bi as usize] {
                    self.dirty[bi as usize] = true;
                    self.any_dirty = true;
                }
            }
            if !self.activity {
                // Full-evaluation mode: a dirty settle runs everything,
                // exactly like the interpreter's global flag.
                for d in self.dirty.iter_mut() {
                    *d = true;
                }
                self.any_dirty = !self.dirty.is_empty();
            }
        }
        if !self.any_dirty {
            if self.account {
                self.ops_skipped += prog.total_comb_ops;
            }
            return;
        }
        for bi in 0..prog.comb_blocks.len() {
            if self.dirty[bi] {
                self.dirty[bi] = false;
                self.cur_block = bi as u32;
                let b = prog.comb_blocks[bi];
                self.exec_block(prog, b);
                if self.account {
                    self.ops_executed += b.len() as u64;
                }
            } else if self.account {
                self.ops_skipped += prog.comb_blocks[bi].len() as u64;
            }
        }
        self.cur_block = u32::MAX;
        self.any_dirty = false;
    }

    /// Runs the clocked blocks whose flag is set (every block in
    /// full-evaluation mode), then commits their NBA writes. A flag is
    /// cleared *before* its block runs, so a change the run itself
    /// makes (a blocking store, its NBA commit) re-arms it for the next
    /// edge.
    fn clock_edge(&mut self, prog: &CompiledProgram) {
        debug_assert!(self.nba_nets.is_empty() && self.nba_mems.is_empty());
        for bi in 0..prog.clocked_blocks.len() {
            if self.activity && !self.clk_dirty[bi] {
                self.clocked_skipped += 1;
                continue;
            }
            self.clk_dirty[bi] = false;
            self.clocked_runs += 1;
            self.exec_block(prog, prog.clocked_blocks[bi]);
        }
        // Commit NBA writes in program order. The scratch Vecs are
        // drained in place so their capacity survives across cycles.
        for k in 0..self.nba_nets.len() {
            let (slot, m, bits) = self.nba_nets[k];
            let s = slot as usize;
            let nv = (self.nets[s] & !m) | (bits & m);
            if self.nets[s] != nv {
                self.nets[s] = nv;
                self.on_net_change(prog, slot);
            }
        }
        self.nba_nets.clear();
        for k in 0..self.nba_mems.len() {
            let (mem, addr, value) = self.nba_mems[k];
            let nv = value & prog.mem_masks[mem as usize];
            if let Some(slot) = self.mems[mem as usize].get_mut(addr as usize) {
                if *slot != nv {
                    *slot = nv;
                    self.on_mem_change(prog, mem, addr);
                }
            }
        }
        self.nba_mems.clear();
    }

    fn poke(&mut self, prog: &CompiledProgram, slot: u32, value: u64) {
        let s = slot as usize;
        let v = value & mask(prog.net_widths[s]);
        self.global_dirty = true;
        if self.nets[s] != v {
            self.nets[s] = v;
            self.on_net_change(prog, slot);
            // Re-derive a poked combinational net at the next settle,
            // exactly as the interpreter's full re-evaluation would.
            for &bi in &prog.net_drivers[s] {
                if !self.dirty[bi as usize] {
                    self.dirty[bi as usize] = true;
                    self.any_dirty = true;
                }
            }
        }
    }

    fn poke_mem(&mut self, prog: &CompiledProgram, mem: usize, addr: usize, value: u64) -> bool {
        let nv = value & prog.mem_masks[mem];
        self.global_dirty = true;
        match self.mems[mem].get_mut(addr) {
            None => false,
            Some(slot) => {
                if *slot != nv {
                    *slot = nv;
                    self.on_mem_change(prog, mem as u32, addr as u64);
                }
                true
            }
        }
    }

    fn clear_state(&mut self, prog: &CompiledProgram) {
        for slot in 0..self.nets.len() {
            if self.nets[slot] != 0 {
                self.nets[slot] = 0;
                if let Some(j) = &mut self.journal {
                    if !j.changed[slot] {
                        j.changed[slot] = true;
                        j.list.push(slot as u32);
                    }
                }
                if let Some(j) = &mut self.snap_journal {
                    if !j.net_changed[slot] {
                        j.net_changed[slot] = true;
                        j.nets.push(slot as u32);
                    }
                }
            }
        }
        for (mi, mem) in self.mems.iter_mut().enumerate() {
            for (wi, w) in mem.iter_mut().enumerate() {
                if *w != 0 {
                    *w = 0;
                    if let Some(j) = &mut self.snap_journal {
                        if !j.mem_changed[mi][wi] {
                            j.mem_changed[mi][wi] = true;
                            j.mem_words.push((mi as u32, wi as u32));
                        }
                    }
                }
            }
        }
        self.dirty.fill(true);
        self.clk_dirty.fill(true);
        self.any_dirty = !prog.comb_blocks.is_empty();
        self.global_dirty = true;
    }

    fn exec_block(&mut self, prog: &CompiledProgram, b: Block) {
        let ops = &prog.ops;
        let mut pc = b.start as usize;
        let end = b.end as usize;
        while pc < end {
            match ops[pc] {
                Op::Const(k) => self.stack.push(k),
                Op::Load(slot) => self.stack.push(self.nets[slot as usize]),
                Op::LoadSlice { slot, lo, mask } => {
                    self.stack.push((self.nets[slot as usize] >> lo) & mask);
                }
                Op::LoadBit { slot, width } => {
                    let i = self.stack.pop().expect("stack underflow");
                    let v = if i < width as u64 {
                        (self.nets[slot as usize] >> i) & 1
                    } else {
                        0
                    };
                    self.stack.push(v);
                }
                Op::LoadMem { mem } => {
                    let a = self.stack.pop().expect("stack underflow");
                    let v = self.mems[mem as usize]
                        .get(a as usize)
                        .copied()
                        .unwrap_or(0);
                    self.stack.push(v);
                }
                Op::Unary { op, mask } => {
                    let a = self.stack.pop().expect("stack underflow");
                    let r = match op {
                        UnaryOp::Not => !a & mask,
                        UnaryOp::Neg => a.wrapping_neg() & mask,
                        UnaryOp::LogicNot => (a == 0) as u64,
                        UnaryOp::RedAnd => (a == mask) as u64,
                        UnaryOp::RedOr => (a != 0) as u64,
                        UnaryOp::RedXor => (a.count_ones() & 1) as u64,
                    };
                    self.stack.push(r);
                }
                Op::Binary { op, mask, lw } => {
                    let b = self.stack.pop().expect("stack underflow");
                    let a = self.stack.pop().expect("stack underflow");
                    let r = match op {
                        BinaryOp::Add => a.wrapping_add(b) & mask,
                        BinaryOp::Sub => a.wrapping_sub(b) & mask,
                        BinaryOp::Mul => a.wrapping_mul(b) & mask,
                        BinaryOp::And => a & b,
                        BinaryOp::Or => a | b,
                        BinaryOp::Xor => a ^ b,
                        BinaryOp::Shl => {
                            if b >= lw as u64 {
                                0
                            } else {
                                (a << b) & mask
                            }
                        }
                        BinaryOp::Shr => {
                            if b >= lw as u64 {
                                0
                            } else {
                                a >> b
                            }
                        }
                        BinaryOp::Eq => (a == b) as u64,
                        BinaryOp::Ne => (a != b) as u64,
                        BinaryOp::Lt => (a < b) as u64,
                        BinaryOp::Le => (a <= b) as u64,
                        BinaryOp::Gt => (a > b) as u64,
                        BinaryOp::Ge => (a >= b) as u64,
                        BinaryOp::LogicAnd => (a != 0 && b != 0) as u64,
                        BinaryOp::LogicOr => (a != 0 || b != 0) as u64,
                    };
                    self.stack.push(r);
                }
                Op::Concat { shift } => {
                    let low = self.stack.pop().expect("stack underflow");
                    let high = self.stack.pop().expect("stack underflow");
                    self.stack.push((high << shift) | low);
                }
                Op::Repeat { count, width } => {
                    let v = self.stack.pop().expect("stack underflow");
                    let mut acc = v;
                    for _ in 1..count {
                        acc = (acc << width) | v;
                    }
                    self.stack.push(acc);
                }
                Op::Jump(t) => {
                    pc = t as usize;
                    continue;
                }
                Op::JumpIfZero(t) => {
                    if self.stack.pop().expect("stack underflow") == 0 {
                        pc = t as usize;
                        continue;
                    }
                }
                Op::SetTmp(i) => {
                    self.tmps[i as usize] = self.stack.pop().expect("stack underflow");
                }
                Op::JumpTmpEq { tmp, label, target } => {
                    if self.tmps[tmp as usize] == label {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::Store { slot, mask } => {
                    let v = self.stack.pop().expect("stack underflow") & mask;
                    let s = slot as usize;
                    if self.nets[s] != v {
                        self.nets[s] = v;
                        self.on_net_change(prog, slot);
                    }
                }
                Op::StoreSlice { slot, lo, mask } => {
                    let v = self.stack.pop().expect("stack underflow");
                    let s = slot as usize;
                    let m = mask << lo;
                    let nv = (self.nets[s] & !m) | ((v & mask) << lo);
                    if self.nets[s] != nv {
                        self.nets[s] = nv;
                        self.on_net_change(prog, slot);
                    }
                }
                Op::StoreBit { slot, width } => {
                    let i = self.stack.pop().expect("stack underflow");
                    let v = self.stack.pop().expect("stack underflow");
                    if i < width as u64 {
                        let s = slot as usize;
                        let m = 1u64 << i;
                        let nv = (self.nets[s] & !m) | ((v & 1) << i);
                        if self.nets[s] != nv {
                            self.nets[s] = nv;
                            self.on_net_change(prog, slot);
                        }
                    }
                }
                Op::StoreMem { mem, mask } => {
                    let a = self.stack.pop().expect("stack underflow");
                    let v = self.stack.pop().expect("stack underflow");
                    let nv = v & mask;
                    if let Some(slot) = self.mems[mem as usize].get_mut(a as usize) {
                        if *slot != nv {
                            *slot = nv;
                            self.on_mem_change(prog, mem, a);
                        }
                    }
                }
                Op::NbaStore { slot, mask } => {
                    let v = self.stack.pop().expect("stack underflow");
                    self.nba_nets.push((slot, mask, v & mask));
                }
                Op::NbaStoreSlice { slot, lo, mask } => {
                    let v = self.stack.pop().expect("stack underflow");
                    self.nba_nets.push((slot, mask << lo, (v & mask) << lo));
                }
                Op::NbaStoreBit { slot, width } => {
                    let i = self.stack.pop().expect("stack underflow");
                    let v = self.stack.pop().expect("stack underflow");
                    if i < width as u64 {
                        self.nba_nets.push((slot, 1u64 << i, (v & 1) << i));
                    }
                }
                Op::NbaStoreMem { mem } => {
                    let a = self.stack.pop().expect("stack underflow");
                    let v = self.stack.pop().expect("stack underflow");
                    self.nba_mems.push((mem, a, v));
                }
            }
            pc += 1;
        }
        debug_assert!(self.stack.is_empty(), "unbalanced stack after block");
    }
}
