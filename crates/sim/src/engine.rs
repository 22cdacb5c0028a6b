//! Cycle-accurate simulator for flat RTL modules.
//!
//! Semantics match the synthesizable-Verilog expectations the corpus is
//! written against:
//!
//! * Combinational logic (continuous assigns and `always @(*)` bodies) is
//!   **levelized**: nodes are topologically sorted by net dependencies
//!   once at build time and re-evaluated in that order whenever state
//!   changes. Combinational cycles are rejected at construction.
//! * A clock [`Simulator::step`] evaluates all `posedge` processes
//!   against pre-edge state with correct **non-blocking** semantics (all
//!   RHS sampled before any commit), then commits, then re-settles the
//!   combinational fabric.
//! * Full visibility: any net or memory word can be peeked or poked by
//!   hierarchical name at any time — the property (paper §III-A) that
//!   makes simulator-side hardware snapshots trivial and exact.
//!
//! Two execution backends share these semantics bit-exactly:
//!
//! * **Bytecode** (the default, [`SimEngine::Bytecode`]): the module is
//!   lowered once by [`hardsnap_rtl::compile()`] into a levelized op
//!   array over raw `u64` slots and executed by the activity-driven
//!   engine in the crate's `compiled` module — only comb blocks in the
//!   fan-out cone of changed nets re-run each cycle (Verilator-style),
//!   and only clocked processes whose inputs or targets changed run on
//!   an edge.
//! * **Interpreter** ([`SimEngine::Interpreter`]): the original
//!   tree-walking evaluator, retained as the semantic reference for
//!   differential testing.

use crate::compiled::CompiledSim;
use crate::SimError;
use hardsnap_rtl::{
    check_module, eval_binary, eval_unary, CaseArm, CombUnit, CompileError, Expr, LValue, MemId,
    Module, NetId, ProcessKind, Stmt, Value,
};
use hardsnap_telemetry::{Counter, Metric, Recorder};
use std::sync::Arc;

/// Which execution backend a [`Simulator`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimEngine {
    /// Compiled bytecode with activity-driven scheduling (dirty-cone
    /// comb settles, idle clocked processes skipped) — the default.
    Bytecode,
    /// Compiled bytecode, but every dirty settle re-runs all comb
    /// blocks and every edge runs all clocked processes (isolates the
    /// compilation win from the scheduling win in benchmarks).
    BytecodeFullEval,
    /// The tree-walking reference interpreter.
    Interpreter,
}

impl SimEngine {
    /// Parses an engine name as used by CLI flags.
    pub fn from_name(name: &str) -> Option<SimEngine> {
        match name {
            "bytecode" => Some(SimEngine::Bytecode),
            "bytecode-full" => Some(SimEngine::BytecodeFullEval),
            "interp" | "interpreter" => Some(SimEngine::Interpreter),
            _ => None,
        }
    }

    /// Stable lowercase name (inverse of [`SimEngine::from_name`]).
    pub fn name(&self) -> &'static str {
        match self {
            SimEngine::Bytecode => "bytecode",
            SimEngine::BytecodeFullEval => "bytecode-full",
            SimEngine::Interpreter => "interp",
        }
    }
}

enum Backend {
    Compiled(CompiledSim),
    Interp(InterpSim),
}

/// A cycle-accurate simulator for one flat module.
///
/// # Examples
///
/// ```
/// use hardsnap_sim::Simulator;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = hardsnap_verilog::parse_design(r#"
///     module counter (input wire clk, input wire rst, output reg [7:0] q);
///         always @(posedge clk) begin
///             if (rst) q <= 8'd0; else q <= q + 8'd1;
///         end
///     endmodule
/// "#)?;
/// let flat = hardsnap_rtl::elaborate(&design, "counter")?;
/// let mut sim = Simulator::new(flat)?;
/// sim.poke("rst", 1)?;
/// sim.step(1);
/// sim.poke("rst", 0)?;
/// sim.step(5);
/// assert_eq!(sim.peek("q")?.bits(), 5);
/// # Ok(())
/// # }
/// ```
pub struct Simulator {
    module: Arc<Module>,
    // (Debug is implemented manually below: dumping every net value
    // would be unusable for large designs.)
    backend: Backend,
    cycle: u64,
    rec: Recorder,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("module", &self.module.name)
            .field("engine", &self.engine().name())
            .field("cycle", &self.cycle)
            .field("nets", &self.module.nets.len())
            .field("memories", &self.module.memories.len())
            .finish()
    }
}

impl Simulator {
    /// Builds a simulator for `module`, which must be flat (no
    /// instances). Runs on the bytecode engine; see
    /// [`Simulator::with_engine`] for the interpreter.
    ///
    /// # Errors
    ///
    /// * [`SimError::Rtl`] — the module fails [`check_module`] or still
    ///   contains instances.
    /// * [`SimError::CombLoop`] — the combinational fabric has a cycle.
    /// * [`SimError::Unsupported`] — `negedge` processes (the corpus is
    ///   single-edge) or other out-of-scope constructs.
    pub fn new(module: Module) -> Result<Self, SimError> {
        Simulator::with_engine(module, SimEngine::Bytecode)
    }

    /// Builds a simulator on a specific execution backend. All backends
    /// are bit-exact against each other; the interpreter exists as the
    /// differential-testing reference and the full-eval bytecode mode
    /// for benchmarking the activity-scheduling win in isolation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::new`].
    pub fn with_engine(module: Module, engine: SimEngine) -> Result<Self, SimError> {
        validate(&module)?;
        let backend = match engine {
            SimEngine::Bytecode | SimEngine::BytecodeFullEval => {
                let prog = hardsnap_rtl::compile(&module).map_err(compile_err)?;
                let mut c = CompiledSim::new(Arc::new(prog), &module);
                c.set_activity(engine == SimEngine::Bytecode);
                Backend::Compiled(c)
            }
            SimEngine::Interpreter => {
                Backend::Interp(InterpSim::new(&module).map_err(compile_err)?)
            }
        };
        let mut sim = Simulator {
            module: Arc::new(module),
            backend,
            cycle: 0,
            rec: Recorder::disabled(),
        };
        sim.settle();
        Ok(sim)
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The backend this simulator executes on.
    pub fn engine(&self) -> SimEngine {
        match &self.backend {
            Backend::Compiled(c) if c.activity() => SimEngine::Bytecode,
            Backend::Compiled(_) => SimEngine::BytecodeFullEval,
            Backend::Interp(_) => SimEngine::Interpreter,
        }
    }

    /// Attaches a telemetry recorder; each subsequent [`Simulator::step`]
    /// on a bytecode backend reports the `sim.ops_executed` /
    /// `sim.ops_skipped` and `sim.clocked_runs` / `sim.clocked_skipped`
    /// counters and the per-step comb-activity histogram through it.
    pub fn attach_recorder(&mut self, rec: &Recorder) {
        self.rec = rec.clone();
    }

    /// Lifetime totals of combinational ops `(executed, skipped)` by the
    /// activity scheduler during `step`s. Both zero on the interpreter.
    pub fn comb_activity(&self) -> (u64, u64) {
        match &self.backend {
            Backend::Compiled(c) => (c.ops_executed(), c.ops_skipped()),
            Backend::Interp(_) => (0, 0),
        }
    }

    /// Lifetime totals of clocked-block runs `(run, skipped)` on clock
    /// edges: a block is skipped when nothing it reads or writes changed
    /// since its last run. Full evaluation skips none; both zero on the
    /// interpreter.
    pub fn clocked_activity(&self) -> (u64, u64) {
        match &self.backend {
            Backend::Compiled(c) => (c.clocked_runs(), c.clocked_skipped()),
            Backend::Interp(_) => (0, 0),
        }
    }

    /// Creates an independent simulator over the same elaborated module
    /// in its power-on state. The `Arc<Module>` and the compiled program
    /// (or levelized order) are shared, so replication skips elaboration
    /// checks, re-levelization and re-compilation entirely — this is
    /// what makes per-worker target replicas cheap. The engine choice is
    /// inherited; the recorder is not.
    pub fn fork_clean(&self) -> Self {
        let backend = match &self.backend {
            Backend::Compiled(c) => Backend::Compiled(c.fork(&self.module)),
            Backend::Interp(i) => Backend::Interp(i.fork(&self.module)),
        };
        let mut sim = Simulator {
            module: self.module.clone(),
            backend,
            cycle: 0,
            rec: Recorder::disabled(),
        };
        sim.settle();
        sim
    }

    /// Elapsed clock cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Reads a net's current value by name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNet`] if no net has that name.
    pub fn peek(&mut self, name: &str) -> Result<Value, SimError> {
        let id = self.net_id(name)?;
        self.settle();
        Ok(self.net_value_at(id.0 as usize))
    }

    /// Reads a net by id (no settle; internal fast path for drivers that
    /// just stepped).
    pub fn peek_id(&self, id: NetId) -> Value {
        self.net_value_at(id.0 as usize)
    }

    /// Forces a net to a value. Intended for input ports (stimulus) and
    /// for snapshot restore of registers; poking a derived combinational
    /// net is allowed but will be overwritten at the next settle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNet`] for unknown names.
    pub fn poke(&mut self, name: &str, value: u64) -> Result<(), SimError> {
        let id = self.net_id(name)?;
        self.poke_id(id, value);
        Ok(())
    }

    /// Forces a net to a value by id (infallible fast path for bus
    /// drivers that resolved the port id once at bind time).
    pub fn poke_id(&mut self, id: NetId, value: u64) {
        match &mut self.backend {
            Backend::Compiled(c) => c.poke(id.0, value),
            Backend::Interp(i) => {
                let w = self.module.net(id).width;
                i.nets[id.0 as usize] = Value::new(value, w);
                i.comb_dirty = true;
            }
        }
    }

    /// Reads one memory word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNet`] for unknown memories and
    /// [`SimError::OutOfRange`] for bad addresses.
    pub fn peek_mem(&self, name: &str, addr: u32) -> Result<u64, SimError> {
        let id = self
            .module
            .find_mem(name)
            .ok_or_else(|| SimError::UnknownNet(name.to_string()))?;
        self.mem_words(id)
            .get(addr as usize)
            .copied()
            .ok_or_else(|| SimError::OutOfRange {
                name: name.to_string(),
                index: addr,
            })
    }

    /// Writes one memory word.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::peek_mem`].
    pub fn poke_mem(&mut self, name: &str, addr: u32, value: u64) -> Result<(), SimError> {
        let id = self
            .module
            .find_mem(name)
            .ok_or_else(|| SimError::UnknownNet(name.to_string()))?;
        let in_range = match &mut self.backend {
            Backend::Compiled(c) => c.poke_mem(id.0 as usize, addr as usize, value),
            Backend::Interp(i) => {
                let width = self.module.memory(id).width;
                match i.mems[id.0 as usize].get_mut(addr as usize) {
                    None => false,
                    Some(slot) => {
                        *slot = value & hardsnap_rtl::mask(width);
                        i.comb_dirty = true;
                        true
                    }
                }
            }
        };
        if in_range {
            Ok(())
        } else {
            Err(SimError::OutOfRange {
                name: name.to_string(),
                index: addr,
            })
        }
    }

    /// Returns all net values and memory contents to the power-on state
    /// (all zeros). Note this is *stronger* than asserting the reset net:
    /// synchronous reset logic only initializes registers, while a power
    /// cycle also clears SRAM contents.
    pub fn clear_state(&mut self) {
        match &mut self.backend {
            Backend::Compiled(c) => c.clear_state(),
            Backend::Interp(i) => i.clear_state(&self.module),
        }
    }

    /// Advances the clock by `cycles` posedges.
    pub fn step(&mut self, cycles: u64) {
        for _ in 0..cycles {
            match &mut self.backend {
                Backend::Compiled(c) => {
                    let (e0, s0) = (c.ops_executed(), c.ops_skipped());
                    let (r0, k0) = (c.clocked_runs(), c.clocked_skipped());
                    c.step_one();
                    if self.rec.is_enabled() {
                        let de = c.ops_executed() - e0;
                        self.rec.add(Counter::SimOpsExecuted, de);
                        self.rec.add(Counter::SimOpsSkipped, c.ops_skipped() - s0);
                        self.rec.add(Counter::SimClockedRuns, c.clocked_runs() - r0);
                        self.rec
                            .add(Counter::SimClockedSkipped, c.clocked_skipped() - k0);
                        self.rec.observe(Metric::SimCombOpsPerStep, de);
                    }
                }
                Backend::Interp(i) => i.step_one(&self.module),
            }
            self.cycle += 1;
        }
    }

    /// Direct access to one memory's words by id.
    pub fn mem_words(&self, id: MemId) -> &[u64] {
        match &self.backend {
            Backend::Compiled(c) => c.mem_words(id.0 as usize),
            Backend::Interp(i) => &i.mems[id.0 as usize],
        }
    }

    fn net_id(&self, name: &str) -> Result<NetId, SimError> {
        self.module
            .find_net(name)
            .ok_or_else(|| SimError::UnknownNet(name.to_string()))
    }

    // ------------------------------------------------------------- internals

    /// One net's current value by index, no settle (callers settle
    /// first when they need post-combinational values).
    pub(crate) fn net_value_at(&self, i: usize) -> Value {
        match &self.backend {
            Backend::Compiled(c) => Value::new(c.peek_raw(i), self.module.nets[i].width),
            Backend::Interp(it) => it.nets[i],
        }
    }

    /// Settles the combinational fabric (used by the VCD writer before
    /// sampling).
    pub(crate) fn settle_for_trace(&mut self) {
        self.settle();
    }

    /// Turns on the net-change journal (bytecode backends only) so
    /// [`Simulator::drain_changed_nets`] can report exactly which nets
    /// changed since the last drain.
    pub(crate) fn enable_change_journal(&mut self) {
        if let Backend::Compiled(c) = &mut self.backend {
            c.enable_journal();
        }
    }

    /// Drains changed-net ids (ascending) into `out`; false when no
    /// journal is available (interpreter) and the caller must scan all
    /// nets.
    pub(crate) fn drain_changed_nets(&mut self, out: &mut Vec<u32>) -> bool {
        match &mut self.backend {
            Backend::Compiled(c) => c.drain_changes(out),
            Backend::Interp(_) => false,
        }
    }

    /// Turns on the snapshot dirty journal (bytecode backends only) so
    /// delta captures can report exactly which nets and memory words
    /// changed since the last capture. Independent of the VCD change
    /// journal — the two drain at their own cadences.
    pub(crate) fn enable_snapshot_journal(&mut self) {
        if let Backend::Compiled(c) = &mut self.backend {
            c.enable_snap_journal();
        }
    }

    /// Drains the snapshot journal: changed net ids (ascending) into
    /// `nets_out` and changed `(mem, word)` pairs (ascending) into
    /// `mems_out`. Returns false when no journal is available
    /// (interpreter) — the caller must fall back to a full diff.
    pub(crate) fn drain_snapshot_changes(
        &mut self,
        nets_out: &mut Vec<u32>,
        mems_out: &mut Vec<(u32, u32)>,
    ) -> bool {
        match &mut self.backend {
            Backend::Compiled(c) => c.drain_snap_changes(nets_out, mems_out),
            Backend::Interp(_) => false,
        }
    }

    /// Writes one memory word by resolved id (infallible fast path for
    /// bulk snapshot restores that resolved the memory ids once at
    /// construction). Out-of-range addresses are ignored — callers are
    /// expected to have validated the shape up front.
    pub fn poke_mem_id(&mut self, id: MemId, addr: u32, value: u64) {
        match &mut self.backend {
            Backend::Compiled(c) => {
                c.poke_mem(id.0 as usize, addr as usize, value);
            }
            Backend::Interp(i) => {
                let width = self.module.memory(id).width;
                if let Some(slot) = i.mems[id.0 as usize].get_mut(addr as usize) {
                    *slot = value & hardsnap_rtl::mask(width);
                    i.comb_dirty = true;
                }
            }
        }
    }

    fn settle(&mut self) {
        match &mut self.backend {
            Backend::Compiled(c) => c.settle(),
            Backend::Interp(i) => i.settle(&self.module),
        }
    }
}

/// Shared construction-time validation (both backends).
fn validate(module: &Module) -> Result<(), SimError> {
    if !module.instances.is_empty() {
        return Err(SimError::Rtl(hardsnap_rtl::RtlError::Elab(format!(
            "module '{}' still has instances; run elaborate() first",
            module.name
        ))));
    }
    check_module(module).map_err(SimError::Rtl)?;
    for p in &module.processes {
        if let ProcessKind::Clocked {
            edge: hardsnap_rtl::EdgeKind::Neg,
            ..
        } = p.kind
        {
            return Err(SimError::Unsupported(
                "negedge processes are not supported (single-edge corpus)".into(),
            ));
        }
    }
    Ok(())
}

fn compile_err(e: CompileError) -> SimError {
    match e {
        CompileError::CombLoop(nets) => SimError::CombLoop(nets),
        CompileError::Unsupported(m) => SimError::Unsupported(m),
    }
}

// ===================================================================
// Tree-walking reference interpreter
// ===================================================================

/// The original AST-walking backend. Kept as the semantic reference the
/// bytecode engine is differentially tested against.
struct InterpSim {
    /// Current value of every net (index = NetId).
    nets: Vec<Value>,
    /// Current contents of every memory (index = MemId).
    mems: Vec<Vec<u64>>,
    /// Combinational nodes in evaluation order (shared across forks).
    comb_order: Arc<Vec<CombUnit>>,
    /// Indices of clocked processes.
    clocked: Vec<usize>,
    /// Pending non-blocking register writes: (net, mask, bits). Reused
    /// across cycles — drained in place, never reallocated.
    nba_nets: Vec<(NetId, u64, u64)>,
    /// Pending non-blocking memory writes: (mem, addr, value).
    nba_mems: Vec<(MemId, u64, u64)>,
    comb_dirty: bool,
}

impl InterpSim {
    fn new(module: &Module) -> Result<Self, CompileError> {
        let comb_order = Arc::new(hardsnap_rtl::comb_schedule(module)?);
        let clocked = module
            .processes
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.kind, ProcessKind::Clocked { .. }))
            .map(|(i, _)| i)
            .collect();
        Ok(InterpSim {
            nets: module.nets.iter().map(|n| Value::zero(n.width)).collect(),
            mems: module
                .memories
                .iter()
                .map(|m| vec![0u64; m.depth as usize])
                .collect(),
            comb_order,
            clocked,
            nba_nets: Vec::new(),
            nba_mems: Vec::new(),
            comb_dirty: true,
        })
    }

    fn fork(&self, module: &Module) -> Self {
        InterpSim {
            nets: module.nets.iter().map(|n| Value::zero(n.width)).collect(),
            mems: module
                .memories
                .iter()
                .map(|m| vec![0u64; m.depth as usize])
                .collect(),
            comb_order: Arc::clone(&self.comb_order),
            clocked: self.clocked.clone(),
            nba_nets: Vec::new(),
            nba_mems: Vec::new(),
            comb_dirty: true,
        }
    }

    fn clear_state(&mut self, module: &Module) {
        for (i, net) in module.nets.iter().enumerate() {
            self.nets[i] = Value::zero(net.width);
        }
        for mem in &mut self.mems {
            mem.iter_mut().for_each(|w| *w = 0);
        }
        self.comb_dirty = true;
    }

    fn step_one(&mut self, module: &Module) {
        self.settle(module);
        self.clock_edge(module);
        self.comb_dirty = true;
        self.settle(module);
    }

    /// Re-evaluates the combinational fabric in levelized order.
    fn settle(&mut self, module: &Module) {
        if !self.comb_dirty {
            return;
        }
        self.comb_dirty = false;
        for node in self.comb_order.iter() {
            match *node {
                CombUnit::Assign(ai) => {
                    let a = &module.assigns[ai];
                    let v = eval_expr(module, &self.nets, &self.mems, &a.rhs);
                    write_net_lvalue(module, &mut self.nets, &mut self.mems, &a.lv, v);
                }
                CombUnit::Process(pi) => {
                    for s in &module.processes[pi].body {
                        exec_comb_stmt(module, &mut self.nets, &mut self.mems, s);
                    }
                }
            }
        }
    }

    /// Executes one clock edge with NBA semantics.
    fn clock_edge(&mut self, module: &Module) {
        debug_assert!(self.nba_nets.is_empty() && self.nba_mems.is_empty());
        for k in 0..self.clocked.len() {
            let pi = self.clocked[k];
            for s in &module.processes[pi].body {
                self.exec_clocked_stmt(module, s);
            }
        }
        // Commit NBA writes in program order. The scratch Vecs are
        // drained in place so their capacity survives across cycles.
        for k in 0..self.nba_nets.len() {
            let (net, mask, bits) = self.nba_nets[k];
            let cur = self.nets[net.0 as usize];
            self.nets[net.0 as usize] =
                Value::new((cur.bits() & !mask) | (bits & mask), cur.width());
        }
        self.nba_nets.clear();
        for k in 0..self.nba_mems.len() {
            let (mem, addr, value) = self.nba_mems[k];
            let width = module.memory(mem).width;
            if let Some(slot) = self.mems[mem.0 as usize].get_mut(addr as usize) {
                *slot = value & hardsnap_rtl::mask(width);
            }
        }
        self.nba_mems.clear();
    }

    fn exec_clocked_stmt(&mut self, module: &Module, s: &Stmt) {
        match s {
            Stmt::Assign { lv, rhs, blocking } => {
                let v = eval_expr(module, &self.nets, &self.mems, rhs);
                if *blocking {
                    write_net_lvalue(module, &mut self.nets, &mut self.mems, lv, v);
                } else {
                    self.schedule_nba(module, lv, v);
                }
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
            } => {
                let c = eval_expr(module, &self.nets, &self.mems, cond);
                let branch = if c.is_true() { then_s } else { else_s };
                for s in branch {
                    self.exec_clocked_stmt(module, s);
                }
            }
            Stmt::Case { sel, arms, default } => {
                let sv = eval_expr(module, &self.nets, &self.mems, sel);
                let body = select_case_arm(sv, arms, default);
                for s in body {
                    self.exec_clocked_stmt(module, s);
                }
            }
        }
    }

    /// Schedules a non-blocking write (sampled now, committed at edge
    /// end).
    fn schedule_nba(&mut self, module: &Module, lv: &LValue, v: Value) {
        match lv {
            LValue::Net(n) => {
                let w = module.net(*n).width;
                self.nba_nets
                    .push((*n, hardsnap_rtl::mask(w), v.resize(w).bits()));
            }
            LValue::Slice { base, hi, lo } => {
                let m = hardsnap_rtl::mask(hi - lo + 1) << lo;
                self.nba_nets
                    .push((*base, m, (v.resize(hi - lo + 1).bits()) << lo));
            }
            LValue::Index { base, index } => {
                let i = eval_expr(module, &self.nets, &self.mems, index).bits();
                let w = module.net(*base).width;
                if i < w as u64 {
                    self.nba_nets.push((*base, 1 << i, (v.bits() & 1) << i));
                }
            }
            LValue::Mem { mem, addr } => {
                let a = eval_expr(module, &self.nets, &self.mems, addr).bits();
                self.nba_mems.push((*mem, a, v.bits()));
            }
        }
    }
}

fn exec_comb_stmt(module: &Module, nets: &mut [Value], mems: &mut [Vec<u64>], s: &Stmt) {
    match s {
        Stmt::Assign { lv, rhs, .. } => {
            // In a comb process all assignments behave as blocking.
            let v = eval_expr(module, nets, mems, rhs);
            write_net_lvalue(module, nets, mems, lv, v);
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
        } => {
            let c = eval_expr(module, nets, mems, cond);
            let branch = if c.is_true() { then_s } else { else_s };
            for s in branch {
                exec_comb_stmt(module, nets, mems, s);
            }
        }
        Stmt::Case { sel, arms, default } => {
            let sv = eval_expr(module, nets, mems, sel);
            let body = select_case_arm(sv, arms, default);
            for s in body {
                exec_comb_stmt(module, nets, mems, s);
            }
        }
    }
}

/// Immediate (blocking / continuous) write.
fn write_net_lvalue(
    module: &Module,
    nets: &mut [Value],
    mems: &mut [Vec<u64>],
    lv: &LValue,
    v: Value,
) {
    match lv {
        LValue::Net(n) => {
            let w = module.net(*n).width;
            nets[n.0 as usize] = v.resize(w);
        }
        LValue::Slice { base, hi, lo } => {
            let cur = nets[base.0 as usize];
            nets[base.0 as usize] = cur.set_slice(*hi, *lo, v.resize(hi - lo + 1));
        }
        LValue::Index { base, index } => {
            let i = eval_expr(module, nets, mems, index).bits();
            let cur = nets[base.0 as usize];
            if i < cur.width() as u64 {
                nets[base.0 as usize] = cur.set_slice(i as u32, i as u32, v.resize(1));
            }
        }
        LValue::Mem { mem, addr } => {
            let a = eval_expr(module, nets, mems, addr).bits();
            let width = module.memory(*mem).width;
            if let Some(slot) = mems[mem.0 as usize].get_mut(a as usize) {
                *slot = v.bits() & hardsnap_rtl::mask(width);
            }
        }
    }
}

/// Selects the matching case arm (or the default) for a selector value.
fn select_case_arm<'a>(sel: Value, arms: &'a [CaseArm], default: &'a [Stmt]) -> &'a [Stmt] {
    for arm in arms {
        if arm.labels.iter().any(|l| l.bits() == sel.bits()) {
            return &arm.body;
        }
    }
    default
}

/// Pure expression evaluation against a net/memory state.
pub(crate) fn eval_expr(module: &Module, nets: &[Value], mems: &[Vec<u64>], e: &Expr) -> Value {
    match e {
        Expr::Const(v) => *v,
        Expr::Net(n) => nets[n.0 as usize],
        Expr::Slice { base, hi, lo } => nets[base.0 as usize].slice(*hi, *lo),
        Expr::Index { base, index } => {
            let i = eval_expr(module, nets, mems, index).bits();
            nets[base.0 as usize].get_bit(i)
        }
        Expr::Unary { op, arg } => eval_unary(*op, eval_expr(module, nets, mems, arg)),
        Expr::Binary { op, lhs, rhs } => eval_binary(
            *op,
            eval_expr(module, nets, mems, lhs),
            eval_expr(module, nets, mems, rhs),
        ),
        Expr::Cond {
            cond,
            then_e,
            else_e,
        } => {
            // Width unification mirrors Expr::width (max of arms).
            let t = eval_expr(module, nets, mems, then_e);
            let f = eval_expr(module, nets, mems, else_e);
            let w = t.width().max(f.width());
            if eval_expr(module, nets, mems, cond).is_true() {
                t.resize(w)
            } else {
                f.resize(w)
            }
        }
        Expr::Concat(parts) => {
            let mut acc: Option<Value> = None;
            for p in parts {
                let v = eval_expr(module, nets, mems, p);
                acc = Some(match acc {
                    None => v,
                    Some(a) => a.concat(v),
                });
            }
            acc.expect("empty concat rejected at check time")
        }
        Expr::Repeat { count, arg } => {
            let v = eval_expr(module, nets, mems, arg);
            let mut acc = v;
            for _ in 1..*count {
                acc = acc.concat(v);
            }
            acc
        }
        Expr::MemRead { mem, addr } => {
            let a = eval_expr(module, nets, mems, addr).bits();
            let width = module.memory(*mem).width;
            let word = mems[mem.0 as usize].get(a as usize).copied().unwrap_or(0);
            Value::new(word, width)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardsnap_verilog::parse_design;

    fn sim(src: &str, top: &str) -> Simulator {
        let d = parse_design(src).unwrap();
        let flat = hardsnap_rtl::elaborate(&d, top).unwrap();
        Simulator::new(flat).unwrap()
    }

    #[test]
    fn counter_counts() {
        let mut s = sim(
            r#"
            module counter (input wire clk, input wire rst, output reg [7:0] q);
                always @(posedge clk) begin
                    if (rst) q <= 8'd0; else q <= q + 8'd1;
                end
            endmodule
            "#,
            "counter",
        );
        s.poke("rst", 1).unwrap();
        s.step(2);
        assert_eq!(s.peek("q").unwrap().bits(), 0);
        s.poke("rst", 0).unwrap();
        s.step(300);
        assert_eq!(s.peek("q").unwrap().bits(), 300 % 256);
        assert_eq!(s.cycle(), 302);
    }

    #[test]
    fn nba_swap_is_simultaneous() {
        let mut s = sim(
            r#"
            module swap (input wire clk, input wire load,
                         input wire [7:0] va, input wire [7:0] vb,
                         output reg [7:0] a, output reg [7:0] b);
                always @(posedge clk) begin
                    if (load) begin a <= va; b <= vb; end
                    else begin a <= b; b <= a; end
                end
            endmodule
            "#,
            "swap",
        );
        s.poke("load", 1).unwrap();
        s.poke("va", 1).unwrap();
        s.poke("vb", 2).unwrap();
        s.step(1);
        s.poke("load", 0).unwrap();
        s.step(1);
        assert_eq!(s.peek("a").unwrap().bits(), 2);
        assert_eq!(s.peek("b").unwrap().bits(), 1);
        s.step(1);
        assert_eq!(s.peek("a").unwrap().bits(), 1);
        assert_eq!(s.peek("b").unwrap().bits(), 2);
    }

    #[test]
    fn comb_chain_settles_in_order() {
        let mut s = sim(
            r#"
            module chain (input wire [3:0] x, output wire [3:0] z);
                wire [3:0] a;
                wire [3:0] b;
                assign z = b + 4'd1;
                assign b = a + 4'd1;
                assign a = x + 4'd1;
            endmodule
            "#,
            "chain",
        );
        s.poke("x", 0).unwrap();
        assert_eq!(s.peek("z").unwrap().bits(), 3);
        s.poke("x", 5).unwrap();
        assert_eq!(s.peek("z").unwrap().bits(), 8);
    }

    #[test]
    fn comb_loop_is_rejected() {
        let d = parse_design(
            r#"
            module looper (input wire x, output wire y);
                wire a;
                wire b;
                assign a = b ^ x;
                assign b = a;
                assign y = b;
            endmodule
            "#,
        )
        .unwrap();
        let flat = hardsnap_rtl::elaborate(&d, "looper").unwrap();
        match Simulator::new(flat) {
            Err(SimError::CombLoop(nets)) => {
                assert!(nets.iter().any(|n| n == "a" || n == "b"));
            }
            other => panic!("expected comb loop, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn comb_process_with_case() {
        let mut s = sim(
            r#"
            module dec (input wire [1:0] s, output reg [3:0] y);
                always @(*) begin
                    case (s)
                        2'd0: y = 4'b0001;
                        2'd1: y = 4'b0010;
                        2'd2: y = 4'b0100;
                        default: y = 4'b1000;
                    endcase
                end
            endmodule
            "#,
            "dec",
        );
        for (i, exp) in [(0u64, 1u64), (1, 2), (2, 4), (3, 8)] {
            s.poke("s", i).unwrap();
            assert_eq!(s.peek("y").unwrap().bits(), exp, "sel {i}");
        }
    }

    #[test]
    fn memory_write_then_read() {
        let mut s = sim(
            r#"
            module m (input wire clk, input wire we, input wire [3:0] addr,
                      input wire [7:0] din, output wire [7:0] dout);
                reg [7:0] ram [0:15];
                assign dout = ram[addr];
                always @(posedge clk) if (we) ram[addr] <= din;
            endmodule
            "#,
            "m",
        );
        s.poke("we", 1).unwrap();
        s.poke("addr", 3).unwrap();
        s.poke("din", 0xab).unwrap();
        s.step(1);
        s.poke("we", 0).unwrap();
        assert_eq!(s.peek("dout").unwrap().bits(), 0xab);
        s.poke("addr", 4).unwrap();
        assert_eq!(s.peek("dout").unwrap().bits(), 0);
        assert_eq!(s.peek_mem("ram", 3).unwrap(), 0xab);
    }

    #[test]
    fn memory_read_sees_same_cycle_old_value() {
        // Classic NBA property: a read in the same clocked process sees
        // the pre-edge memory contents.
        let mut s = sim(
            r#"
            module m (input wire clk, output reg [7:0] snap);
                reg [7:0] ram [0:3];
                reg [1:0] i;
                always @(posedge clk) begin
                    ram[i] <= 8'd7;
                    snap <= ram[i];
                    i <= i + 2'd1;
                end
            endmodule
            "#,
            "m",
        );
        s.step(1); // writes ram[0]=7, snap <= old ram[0] (0)
        assert_eq!(s.peek("snap").unwrap().bits(), 0);
        s.step(4); // wraps; at i=0 again snap <= ram[0] which is 7 now
        assert_eq!(s.peek("snap").unwrap().bits(), 7);
    }

    #[test]
    fn poke_and_peek_mem_bounds_checked() {
        let mut s = sim(
            r#"
            module m (input wire clk, input wire [1:0] a, output wire [7:0] d);
                reg [7:0] ram [0:3];
                assign d = ram[a];
                always @(posedge clk) ram[a] <= 8'd1;
            endmodule
            "#,
            "m",
        );
        assert!(matches!(
            s.peek_mem("ram", 4),
            Err(SimError::OutOfRange { .. })
        ));
        assert!(s.poke_mem("ram", 2, 0x55).is_ok());
        assert!(matches!(
            s.poke_mem("ram", 4, 0x55),
            Err(SimError::OutOfRange { .. })
        ));
        assert_eq!(s.peek_mem("ram", 2).unwrap(), 0x55);
        assert!(matches!(s.peek("nope"), Err(SimError::UnknownNet(_))));
    }

    #[test]
    fn dynamic_index_read_and_write() {
        let mut s = sim(
            r#"
            module b (input wire clk, input wire [2:0] i, input wire v,
                      output reg [7:0] q, output wire o);
                assign o = q[i];
                always @(posedge clk) q[i] <= v;
            endmodule
            "#,
            "b",
        );
        s.poke("i", 5).unwrap();
        s.poke("v", 1).unwrap();
        s.step(1);
        assert_eq!(s.peek("q").unwrap().bits(), 1 << 5);
        assert_eq!(s.peek("o").unwrap().bits(), 1);
        s.poke("i", 4).unwrap();
        assert_eq!(s.peek("o").unwrap().bits(), 0);
    }

    #[test]
    fn blocking_assign_in_clocked_process_is_sequential() {
        let mut s = sim(
            r#"
            module blk (input wire clk, output reg [7:0] y);
                reg [7:0] t;
                always @(posedge clk) begin
                    t = 8'd5;
                    y <= t + 8'd1;
                end
            endmodule
            "#,
            "blk",
        );
        s.step(1);
        assert_eq!(s.peek("y").unwrap().bits(), 6);
    }

    #[test]
    fn hierarchical_design_simulates() {
        let mut s = sim(
            r#"
            module dff (input wire clk, input wire d, output reg q);
                always @(posedge clk) q <= d;
            endmodule
            module shift2 (input wire clk, input wire d, output wire q);
                wire mid;
                dff s0 (.clk(clk), .d(d), .q(mid));
                dff s1 (.clk(clk), .d(mid), .q(q));
            endmodule
            "#,
            "shift2",
        );
        s.poke("d", 1).unwrap();
        s.step(1);
        assert_eq!(s.peek("q").unwrap().bits(), 0);
        s.step(1);
        assert_eq!(s.peek("q").unwrap().bits(), 1);
        assert_eq!(s.peek("s0.q").unwrap().bits(), 1);
    }

    #[test]
    fn engines_agree_on_mixed_design() {
        let src = r#"
            module mix (input wire clk, input wire rst, input wire [7:0] x,
                        output reg [7:0] acc, output wire [7:0] y);
                wire [7:0] t;
                assign t = x ^ acc;
                assign y = t + 8'd3;
                always @(posedge clk) begin
                    if (rst) acc <= 8'd0;
                    else acc <= acc + y;
                end
            endmodule
        "#;
        let mk = |engine| {
            let d = parse_design(src).unwrap();
            let flat = hardsnap_rtl::elaborate(&d, "mix").unwrap();
            Simulator::with_engine(flat, engine).unwrap()
        };
        let mut a = mk(SimEngine::Bytecode);
        let mut b = mk(SimEngine::Interpreter);
        let mut c = mk(SimEngine::BytecodeFullEval);
        for i in 0..64u64 {
            for s in [&mut a, &mut b, &mut c] {
                s.poke("rst", (i == 0) as u64).unwrap();
                s.poke("x", i.wrapping_mul(37)).unwrap();
                s.step(1);
            }
            assert_eq!(a.peek("acc").unwrap(), b.peek("acc").unwrap(), "cycle {i}");
            assert_eq!(a.peek("y").unwrap(), b.peek("y").unwrap(), "cycle {i}");
            assert_eq!(c.peek("acc").unwrap(), b.peek("acc").unwrap(), "cycle {i}");
        }
        let (exec, skip) = a.comb_activity();
        assert!(exec > 0);
        let (fe_exec, fe_skip) = c.comb_activity();
        assert!(fe_exec >= exec, "full eval must execute at least as much");
        assert_eq!(fe_skip, 0, "full eval never skips on an active design");
        let _ = skip;
    }

    #[test]
    fn quiescent_design_skips_comb_work() {
        // No input changes after reset: the dirty-cone scheduler should
        // skip essentially all comb work once the design is quiescent.
        let mut s = sim(
            r#"
            module quiet (input wire clk, input wire [7:0] x, output wire [7:0] y);
                wire [7:0] a;
                wire [7:0] b;
                assign a = x + 8'd1;
                assign b = a ^ 8'h5a;
                assign y = b;
            endmodule
            "#,
            "quiet",
        );
        s.poke("x", 7).unwrap();
        s.step(1);
        let (_, skip0) = s.comb_activity();
        s.step(100);
        let (_, skip1) = s.comb_activity();
        assert!(skip1 > skip0, "quiescent cycles must skip comb blocks");
        assert_eq!(s.peek("y").unwrap().bits(), (7u64 + 1) ^ 0x5a);
    }

    /// One scripted edge: net pokes by name and `ram` word pokes, then
    /// the edge.
    type Edge<'a> = (&'a [(&'a str, u64)], &'a [(u32, u64)]);

    const IDLE: Edge<'static> = (&[], &[]);

    /// Runs `src` on all three engines through `script` and returns
    /// each engine's `q` after every edge.
    fn q_per_edge(src: &str, top: &str, script: &[Edge]) -> Vec<Vec<u64>> {
        let engines = [
            SimEngine::Bytecode,
            SimEngine::BytecodeFullEval,
            SimEngine::Interpreter,
        ];
        engines
            .iter()
            .map(|&engine| {
                let d = parse_design(src).unwrap();
                let flat = hardsnap_rtl::elaborate(&d, top).unwrap();
                let mut s = Simulator::with_engine(flat, engine).unwrap();
                script
                    .iter()
                    .map(|(nets, words)| {
                        for &(name, v) in nets.iter() {
                            s.poke(name, v).unwrap();
                        }
                        for &(addr, v) in words.iter() {
                            s.poke_mem("ram", addr, v).unwrap();
                        }
                        s.step(1);
                        s.peek("q").unwrap().bits()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn poked_register_is_reloaded_although_its_input_is_held() {
        // The block reads only `d`, which never changes after the first
        // edge; poking its target `q` must still make the next edge
        // re-run it and load `d` again.
        let src = r#"
            module dff (input wire clk, input wire [3:0] d, output reg [3:0] q);
                always @(posedge clk) q <= d;
            endmodule
        "#;
        let runs = q_per_edge(
            src,
            "dff",
            &[(&[("d", 5)], &[]), IDLE, (&[("q", 9)], &[]), IDLE],
        );
        for r in &runs {
            assert_eq!(r, &vec![5, 5, 5, 5]);
        }
    }

    #[test]
    fn register_follows_a_poked_memory_word() {
        // The block reads `ram[a]`; a poke of that word (as a restore
        // writes it) must re-run the block although `a` is held.
        let src = r#"
            module rd (input wire clk, input wire [1:0] a, output reg [7:0] q);
                reg [7:0] ram [0:3];
                always @(posedge clk) q <= ram[a];
            endmodule
        "#;
        let runs = q_per_edge(
            src,
            "rd",
            &[
                (&[("a", 2)], &[]),
                (&[], &[(2, 0x5a)]),
                IDLE,
                (&[], &[(1, 7)]),
                (&[], &[(2, 0xc3)]),
            ],
        );
        for r in &runs {
            assert_eq!(r, &vec![0, 0x5a, 0x5a, 0x5a, 0xc3]);
        }
    }

    #[test]
    fn blocking_self_update_keeps_its_block_running() {
        // A blocking store changes `q` while its own block runs; that
        // change must keep the block scheduled for the next edge.
        let src = r#"
            module cnt (input wire clk, output reg [7:0] q);
                always @(posedge clk) q = q + 8'd1;
            endmodule
        "#;
        let runs = q_per_edge(src, "cnt", &[IDLE; 5]);
        for r in &runs {
            assert_eq!(r, &vec![1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn idle_clocked_blocks_are_skipped_and_counted() {
        let src = r#"
            module two (input wire clk, input wire [7:0] x, output reg [7:0] q,
                        output reg [7:0] n);
                always @(posedge clk) q <= x;
                always @(posedge clk) n <= n + 8'd1;
            endmodule
        "#;
        let d = parse_design(src).unwrap();
        let flat = hardsnap_rtl::elaborate(&d, "two").unwrap();
        let mut s = Simulator::new(flat.clone()).unwrap();
        s.poke("x", 3).unwrap();
        s.step(10);
        // `q <= x` runs on the first edge and once more because its
        // commit changed `q`; the counter runs on every edge.
        assert_eq!(s.clocked_activity(), (12, 8));
        assert_eq!(s.peek("q").unwrap().bits(), 3);
        assert_eq!(s.peek("n").unwrap().bits(), 10);
        let mut full = Simulator::with_engine(flat.clone(), SimEngine::BytecodeFullEval).unwrap();
        full.step(10);
        assert_eq!(full.clocked_activity(), (20, 0));
        let interp = Simulator::with_engine(flat, SimEngine::Interpreter).unwrap();
        assert_eq!(interp.clocked_activity(), (0, 0));
    }
}
