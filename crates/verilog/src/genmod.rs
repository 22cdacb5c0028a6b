//! Random synthesizable-subset module generator ("fuzz modules").
//!
//! Produces flat [`Module`]s that pass [`hardsnap_rtl::check_module`]
//! by construction, covering the whole simulated subset: continuous
//! assigns over acyclic wire chains; one to three clocked processes
//! with non-blocking (and occasional blocking) assigns to full nets,
//! slices, dynamic bit indices and a memory, enable-gated loads
//! (`if (en) r <= x`) and blocking temporaries; plus an `always @(*)`
//! process with `if`/`case` control flow. Expressions draw from every
//! [`Expr`] variant and operator.
//!
//! The clocked processes talk to each other the way real blocks do:
//! each owns its registers (the checker allows one writing process per
//! reg and per memory), and every process reads the registers the
//! others own and the memory one of them writes. Some registers are
//! written but never read (only a poke or a restore can change them
//! behind their writer's back), and a process may open with a blocking
//! temporary that its later statements read.
//!
//! The generator exists for differential testing: two simulator
//! backends fed the same generated module and the same stimulus must
//! agree bit-for-bit on every net, memory word and snapshot image. It
//! is deterministic — the same [`Rng`] seed yields the same module.
//!
//! Acyclicity is by construction: each wire's continuous assign reads
//! only inputs, registers and *earlier-declared* wires, and the final
//! combinational process (which may read any wire) drives a register
//! nothing combinational reads.

use hardsnap_rtl::{
    BinaryOp, CaseArm, ContAssign, EdgeKind, Expr, LValue, MemId, Module, NetId, NetKind, PortDir,
    Process, ProcessKind, Stmt, UnaryOp, Value,
};
use hardsnap_util::Rng;

/// Generates a random flat module guaranteed to pass
/// [`hardsnap_rtl::check_module`] and simulator construction.
pub fn gen_module(rng: &mut Rng, name: &str) -> Module {
    let mut m = Module::new(name);
    let clk = m
        .add_net("clk", 1, NetKind::Wire, Some(PortDir::Input))
        .unwrap();
    let rst = m
        .add_net("rst", 1, NetKind::Wire, Some(PortDir::Input))
        .unwrap();

    // Inputs, then 1-bit enables (also readable like any input).
    let n_inputs = rng.gen_range(1u32..=4);
    let mut pool: Vec<(NetId, u32)> = vec![(rst, 1)];
    for i in 0..n_inputs {
        let w = rng.gen_range(1u32..=32);
        let id = m
            .add_net(format!("in{i}"), w, NetKind::Wire, Some(PortDir::Input))
            .unwrap();
        pool.push((id, w));
    }
    let mut enables = Vec::new();
    for i in 0..rng.gen_range(0u32..=2) {
        let id = m
            .add_net(format!("en{i}"), 1, NetKind::Wire, Some(PortDir::Input))
            .unwrap();
        enables.push(id);
        pool.push((id, 1));
    }

    // Registers: each owned (written) by one clocked process and
    // readable by all; every process owns at least one. A process may
    // also own a register nothing reads.
    let n_procs = rng.gen_range(1usize..=3);
    let mut owned: Vec<Vec<(NetId, u32)>> = vec![Vec::new(); n_procs];
    let mut n_regs = 0;
    for (p, regs) in owned.iter_mut().enumerate() {
        for _ in 0..rng.gen_range(1u32..=2) {
            let w = rng.gen_range(1u32..=32);
            let dir = if rng.gen_bool(0.5) {
                Some(PortDir::Output)
            } else {
                None
            };
            let id = m
                .add_net(format!("r{n_regs}"), w, NetKind::Reg, dir)
                .unwrap();
            n_regs += 1;
            regs.push((id, w));
            pool.push((id, w));
        }
        if rng.gen_bool(0.5) {
            let w = rng.gen_range(1u32..=32);
            let id = m.add_net(format!("wo{p}"), w, NetKind::Reg, None).unwrap();
            regs.push((id, w));
        }
    }

    // One memory, written by one clocked process, read by any.
    let mem = if rng.gen_bool(0.7) {
        let w = rng.gen_range(1u32..=32);
        let depth = rng.gen_range(2u32..=16);
        Some((m.add_memory("ram", w, depth).unwrap(), w))
    } else {
        None
    };
    let mem_owner = rng.gen_range(0..n_procs);

    // Wires: one continuous assign each, reading only earlier nets.
    let n_wires = rng.gen_range(0u32..=5);
    for i in 0..n_wires {
        let w = rng.gen_range(1u32..=32);
        let dir = if rng.gen_bool(0.3) {
            Some(PortDir::Output)
        } else {
            None
        };
        let id = m.add_net(format!("w{i}"), w, NetKind::Wire, dir).unwrap();
        let rhs = {
            let mut g = ExprGen {
                rng,
                pool: &pool,
                mem,
            };
            g.expr(3).0
        };
        m.assigns.push(ContAssign {
            lv: LValue::Net(id),
            rhs,
        });
        pool.push((id, w));
    }

    // The clocked processes, in declaration order.
    for (p, regs) in owned.iter().enumerate() {
        let mut local = pool.clone();
        let mut body = Vec::new();
        if rng.gen_bool(0.4) {
            // A blocking temporary the rest of the body reads.
            let w = rng.gen_range(1u32..=32);
            let t = m.add_net(format!("t{p}"), w, NetKind::Reg, None).unwrap();
            let (rhs, _) = ExprGen {
                rng,
                pool: &pool,
                mem,
            }
            .expr(2);
            body.push(Stmt::Assign {
                lv: LValue::Net(t),
                rhs,
                blocking: true,
            });
            local.push((t, w));
        }
        let mut g = StmtGen {
            rng,
            pool: &local,
            mem,
            writes_mem: p == mem_owner,
            regs,
            enables: &enables,
        };
        body.extend(g.block(2));
        m.processes.push(Process {
            kind: ProcessKind::Clocked {
                clock: clk,
                edge: EdgeKind::Pos,
            },
            body,
        });
    }

    // Optionally one comb process driving a dedicated register that no
    // combinational unit reads (keeps the fabric acyclic).
    if rng.gen_bool(0.6) {
        let w = rng.gen_range(1u32..=32);
        let cw = m.add_net("comb_out", w, NetKind::Reg, None).unwrap();
        let mut g = StmtGen {
            rng,
            pool: &pool,
            mem,
            writes_mem: false,
            regs: &[(cw, w)],
            enables: &[],
        };
        let body = g.comb_block(2);
        m.processes.push(Process {
            kind: ProcessKind::Comb,
            body,
        });
    }

    debug_assert!(hardsnap_rtl::check_module(&m).is_ok());
    m
}

/// Bottom-up expression generator; every returned expression
/// width-checks against the pool it was built from.
struct ExprGen<'a> {
    rng: &'a mut Rng,
    pool: &'a [(NetId, u32)],
    mem: Option<(MemId, u32)>,
}

impl ExprGen<'_> {
    /// Returns a random expression and its static width.
    fn expr(&mut self, depth: u32) -> (Expr, u32) {
        if depth == 0 || self.rng.gen_bool(0.3) {
            return self.leaf();
        }
        match self.rng.gen_range(0u32..8) {
            0 => {
                let (arg, w) = self.expr(depth - 1);
                let op = *self
                    .rng
                    .choose(&[
                        UnaryOp::Not,
                        UnaryOp::Neg,
                        UnaryOp::LogicNot,
                        UnaryOp::RedAnd,
                        UnaryOp::RedOr,
                        UnaryOp::RedXor,
                    ])
                    .unwrap();
                let w = match op {
                    UnaryOp::Not | UnaryOp::Neg => w,
                    _ => 1,
                };
                (
                    Expr::Unary {
                        op,
                        arg: Box::new(arg),
                    },
                    w,
                )
            }
            1 | 2 | 3 => {
                let (lhs, wl) = self.expr(depth - 1);
                let (rhs, wr) = self.expr(depth - 1);
                let op = *self
                    .rng
                    .choose(&[
                        BinaryOp::Add,
                        BinaryOp::Sub,
                        BinaryOp::Mul,
                        BinaryOp::And,
                        BinaryOp::Or,
                        BinaryOp::Xor,
                        BinaryOp::Shl,
                        BinaryOp::Shr,
                        BinaryOp::Eq,
                        BinaryOp::Ne,
                        BinaryOp::Lt,
                        BinaryOp::Le,
                        BinaryOp::Gt,
                        BinaryOp::Ge,
                        BinaryOp::LogicAnd,
                        BinaryOp::LogicOr,
                    ])
                    .unwrap();
                let w = if op.is_boolean() {
                    1
                } else if matches!(op, BinaryOp::Shl | BinaryOp::Shr) {
                    wl
                } else {
                    wl.max(wr)
                };
                (
                    Expr::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                    w,
                )
            }
            4 => {
                let (cond, _) = self.expr(depth - 1);
                let (t, wt) = self.expr(depth - 1);
                let (f, wf) = self.expr(depth - 1);
                (
                    Expr::Cond {
                        cond: Box::new(cond),
                        then_e: Box::new(t),
                        else_e: Box::new(f),
                    },
                    wt.max(wf),
                )
            }
            5 => {
                // Concatenation, keeping the total width within 64.
                let (a, wa) = self.expr(depth - 1);
                let (b, wb) = self.expr(depth - 1);
                if wa + wb <= 64 {
                    (Expr::Concat(vec![a, b]), wa + wb)
                } else {
                    (a, wa)
                }
            }
            6 => {
                let (arg, w) = self.expr(depth - 1);
                let max_count = 64 / w;
                if max_count >= 2 && self.rng.gen_bool(0.8) {
                    let count = self.rng.gen_range(2u32..=max_count.min(4));
                    (
                        Expr::Repeat {
                            count,
                            arg: Box::new(arg),
                        },
                        count * w,
                    )
                } else {
                    (arg, w)
                }
            }
            _ => {
                let &(base, w) = self.rng.choose(self.pool).unwrap();
                let index = self.index(w, depth - 1);
                (
                    Expr::Index {
                        base,
                        index: Box::new(index),
                    },
                    1,
                )
            }
        }
    }

    /// A bit index into a net of width `w`. A constant index is kept in
    /// range: Verilog reads `x[k]` with a constant `k` as a static bit
    /// select, which must name a bit of `x` to print and parse back.
    fn index(&mut self, w: u32, depth: u32) -> Expr {
        match self.expr(depth).0 {
            Expr::Const(v) => Expr::Const(Value::new(v.bits() % u64::from(w), v.width())),
            e => e,
        }
    }

    fn leaf(&mut self) -> (Expr, u32) {
        match self.rng.gen_range(0u32..5) {
            0 => {
                let w = self.rng.gen_range(1u32..=16);
                let v = Value::new(self.rng.next_u64(), w);
                (Expr::Const(v), w)
            }
            1 => {
                let &(base, w) = self.rng.choose(self.pool).unwrap();
                if w > 1 && self.rng.gen_bool(0.4) {
                    let lo = self.rng.gen_range(0u32..w);
                    let hi = self.rng.gen_range(lo..w);
                    (Expr::Slice { base, hi, lo }, hi - lo + 1)
                } else {
                    (Expr::Net(base), w)
                }
            }
            2 if self.mem.is_some() => {
                let (mem, w) = self.mem.unwrap();
                let &(a, _) = self.rng.choose(self.pool).unwrap();
                (
                    Expr::MemRead {
                        mem,
                        addr: Box::new(Expr::Net(a)),
                    },
                    w,
                )
            }
            _ => {
                let &(base, w) = self.rng.choose(self.pool).unwrap();
                (Expr::Net(base), w)
            }
        }
    }
}

/// Statement generator for process bodies. `regs` is the set of nets
/// this process owns (writes); reads come from `pool` and `mem`, and
/// the process writes `mem` only when `writes_mem`. `enables` are the
/// 1-bit inputs that may gate an assignment.
struct StmtGen<'a> {
    rng: &'a mut Rng,
    pool: &'a [(NetId, u32)],
    mem: Option<(MemId, u32)>,
    writes_mem: bool,
    regs: &'a [(NetId, u32)],
    enables: &'a [NetId],
}

impl StmtGen<'_> {
    /// A clocked-process block: NBA assigns (occasionally blocking, a
    /// lint the checker permits) with `if`/`case` structure and
    /// enable-gated loads.
    fn block(&mut self, depth: u32) -> Vec<Stmt> {
        let n = self.rng.gen_range(1u32..=3);
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.stmt(depth, true));
        }
        out
    }

    /// A combinational-process block: all assigns blocking.
    fn comb_block(&mut self, depth: u32) -> Vec<Stmt> {
        let n = self.rng.gen_range(1u32..=2);
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.stmt(depth, false));
        }
        out
    }

    fn stmt(&mut self, depth: u32, clocked: bool) -> Stmt {
        let choice = if depth == 0 {
            0
        } else {
            self.rng.gen_range(0u32..4)
        };
        match choice {
            1 => {
                let mut g = ExprGen {
                    rng: self.rng,
                    pool: self.pool,
                    mem: self.mem,
                };
                let (cond, _) = g.expr(2);
                let then_s = self.block_inner(depth - 1, clocked);
                let else_s = if self.rng.gen_bool(0.5) {
                    self.block_inner(depth - 1, clocked)
                } else {
                    Vec::new()
                };
                Stmt::If {
                    cond,
                    then_s,
                    else_s,
                }
            }
            2 => {
                let (sel, sw) = {
                    let mut g = ExprGen {
                        rng: self.rng,
                        pool: self.pool,
                        mem: self.mem,
                    };
                    g.expr(2)
                };
                let n_arms = self.rng.gen_range(1u32..=3);
                let mut arms = Vec::new();
                for _ in 0..n_arms {
                    let n_labels = self.rng.gen_range(1u32..=2);
                    let labels = (0..n_labels)
                        .map(|_| Value::new(self.rng.next_u64(), sw))
                        .collect();
                    arms.push(CaseArm {
                        labels,
                        body: self.block_inner(depth - 1, clocked),
                    });
                }
                let default = if self.rng.gen_bool(0.7) {
                    self.block_inner(depth - 1, clocked)
                } else {
                    Vec::new()
                };
                Stmt::Case { sel, arms, default }
            }
            3 if clocked && !self.enables.is_empty() => {
                let en = *self.rng.choose(self.enables).unwrap();
                Stmt::If {
                    cond: Expr::Net(en),
                    then_s: vec![self.assign(clocked)],
                    else_s: Vec::new(),
                }
            }
            _ => self.assign(clocked),
        }
    }

    fn block_inner(&mut self, depth: u32, clocked: bool) -> Vec<Stmt> {
        let n = self.rng.gen_range(1u32..=2);
        (0..n).map(|_| self.stmt(depth, clocked)).collect()
    }

    fn assign(&mut self, clocked: bool) -> Stmt {
        // Blocking in a clocked process is a permitted lint; generate it
        // sometimes to cover sequential-within-edge semantics.
        let blocking = if clocked {
            self.rng.gen_bool(0.15)
        } else {
            true
        };
        let mem_write = self.writes_mem && self.mem.is_some() && self.rng.gen_bool(0.25);
        let (lv, rhs) = if mem_write {
            let (mem, _) = self.mem.unwrap();
            let mut g = ExprGen {
                rng: self.rng,
                pool: self.pool,
                mem: self.mem,
            };
            let (addr, _) = g.expr(1);
            let (rhs, _) = g.expr(2);
            (LValue::Mem { mem, addr }, rhs)
        } else {
            let &(base, w) = self.rng.choose(self.regs).unwrap();
            let lv = match self.rng.gen_range(0u32..4) {
                0 if w > 1 => {
                    let lo = self.rng.gen_range(0u32..w);
                    let hi = self.rng.gen_range(lo..w);
                    LValue::Slice { base, hi, lo }
                }
                1 => {
                    let mut g = ExprGen {
                        rng: self.rng,
                        pool: self.pool,
                        mem: self.mem,
                    };
                    let index = g.index(w, 1);
                    LValue::Index { base, index }
                }
                _ => LValue::Net(base),
            };
            let mut g = ExprGen {
                rng: self.rng,
                pool: self.pool,
                mem: self.mem,
            };
            let (rhs, _) = g.expr(2);
            (lv, rhs)
        };
        Stmt::Assign { lv, rhs, blocking }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_modules_pass_check_and_are_deterministic() {
        for seed in 0..64u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let m = gen_module(&mut rng, "fuzz");
            hardsnap_rtl::check_module(&m).expect("generated module must check");
            let mut rng2 = Rng::seed_from_u64(seed);
            let m2 = gen_module(&mut rng2, "fuzz");
            assert_eq!(m.nets.len(), m2.nets.len());
            assert_eq!(m.assigns.len(), m2.assigns.len());
            assert_eq!(m.processes.len(), m2.processes.len());
        }
    }

    #[test]
    fn generated_modules_roundtrip_through_the_printer() {
        for seed in 0..16u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let m = gen_module(&mut rng, "fuzz");
            let src = crate::print_module(&m);
            let d = crate::parse_design(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: printed module must parse: {e}\n{src}"));
            assert!(d.module("fuzz").is_some());
        }
    }
}
