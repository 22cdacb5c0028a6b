//! Pool-independent symbolic states for cross-thread transfer.
//!
//! [`TermId`]s are indices into one executor's private [`TermPool`], so
//! a [`SymState`] cannot cross a thread boundary on its own. A
//! [`PortableState`] is the closure of a state's live terms (registers,
//! memory overlay, path constraints) flattened into a self-contained
//! vector with *local* child indices; importing it into another pool
//! rebuilds the terms through the pool's smart constructors.
//!
//! The round trip is structure-preserving: every term in a pool was
//! itself produced by the smart constructors, so it is a fixed point of
//! them, and rebuilding structurally identical children yields
//! structurally identical parents. Executor and solver behaviour depend
//! only on term *structure* (never on raw [`TermId`] values), so a state
//! behaves identically after transfer — the property the parallel
//! engine's determinism guarantee rests on.

use crate::expr::{BinOp, Term, TermId, TermPool, UnOp};
use crate::state::{StateId, SymMemory, SymState};
use hardsnap_bus::persist::{put_bytes, put_str, Cursor};
use hardsnap_bus::MemoryMap;
use hardsnap_bus::PersistError::{self, Malformed};
use std::collections::HashMap;
use std::sync::Arc;

/// One flattened term node; child references are indices into the
/// containing [`PortableState::terms`] vector (always smaller than the
/// node's own index, i.e. the vector is topologically ordered).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PortableTerm {
    /// Constant.
    Const {
        /// Value (normalized to the width).
        value: u64,
        /// Width in bits.
        width: u32,
    },
    /// Free variable.
    Var {
        /// Unique name.
        name: String,
        /// Width in bits.
        width: u32,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand index.
        a: u32,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand index.
        a: u32,
        /// Right operand index.
        b: u32,
    },
    /// If-then-else.
    Ite {
        /// Condition index.
        c: u32,
        /// Then index.
        t: u32,
        /// Else index.
        e: u32,
    },
    /// Bit extraction.
    Extract {
        /// Source index.
        a: u32,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
    },
    /// Concatenation.
    Concat {
        /// More-significant index.
        hi: u32,
        /// Less-significant index.
        lo: u32,
    },
    /// Zero extension.
    ZExt {
        /// Source index.
        a: u32,
        /// Result width.
        width: u32,
    },
}

/// A [`SymState`] detached from its [`TermPool`]: safe to move between
/// threads (the concrete memory base stays shared via `Arc`).
#[derive(Clone, Debug)]
pub struct PortableState {
    /// State id.
    pub id: StateId,
    /// Register terms as indices into [`PortableState::terms`].
    pub regs: [u32; 16],
    /// Program counter.
    pub pc: u32,
    /// Saved PC for `iret`.
    pub epc: u32,
    /// Global interrupt enable.
    pub irq_enabled: bool,
    /// Servicing an interrupt.
    pub in_isr: bool,
    /// Executed `halt`.
    pub halted: bool,
    /// Shared concrete memory base image.
    pub mem_base: Arc<Vec<u8>>,
    /// Memory overlay as `(addr, term index)`, sorted by address.
    pub overlay: Vec<(u32, u32)>,
    /// Path constraints as term indices (in original order).
    pub constraints: Vec<u32>,
    /// Flattened term closure, topologically ordered.
    pub terms: Vec<PortableTerm>,
    /// Owned hardware snapshot id.
    pub hw_snapshot: Option<u64>,
    /// Retired instructions.
    pub instret: u64,
    /// Console bytes.
    pub console: Vec<u8>,
    /// `sym` hypercall count.
    pub sym_count: u32,
    /// Last checkpoint hint.
    pub last_checkpoint: Option<u16>,
    /// Memory map, shared with the state it was exported from.
    pub map: Arc<MemoryMap>,
    /// Fork counter (see [`SymState::next_fork_id`]).
    pub fork_nonce: u64,
}

impl PortableState {
    /// Flattens `state` out of `pool` into a self-contained value.
    pub fn export(pool: &TermPool, state: &SymState) -> PortableState {
        let mut overlay: Vec<(u32, TermId)> = state.mem.overlay_entries().collect();
        overlay.sort_unstable_by_key(|&(a, _)| a);

        // Collect the reachable closure. TermIds are topologically
        // ordered (children are interned before parents), so sorting the
        // closure by TermId gives a valid emission order.
        let mut seen: Vec<TermId> = Vec::new();
        let mut on_stack: HashMap<TermId, ()> = HashMap::new();
        let mut work: Vec<TermId> = Vec::new();
        let roots = state
            .regs
            .iter()
            .copied()
            .chain(overlay.iter().map(|&(_, t)| t))
            .chain(state.constraints.iter().copied());
        for r in roots {
            work.push(r);
        }
        while let Some(t) = work.pop() {
            if on_stack.insert(t, ()).is_some() {
                continue;
            }
            seen.push(t);
            match *pool.term(t) {
                Term::Const { .. } | Term::Var { .. } => {}
                Term::Unary { a, .. } | Term::Extract { a, .. } | Term::ZExt { a, .. } => {
                    work.push(a);
                }
                Term::Binary { a, b, .. } => {
                    work.push(a);
                    work.push(b);
                }
                Term::Ite { c, t, e } => {
                    work.push(c);
                    work.push(t);
                    work.push(e);
                }
                Term::Concat { hi, lo } => {
                    work.push(hi);
                    work.push(lo);
                }
            }
        }
        seen.sort_unstable();

        let mut local: HashMap<TermId, u32> = HashMap::with_capacity(seen.len());
        for (i, &t) in seen.iter().enumerate() {
            local.insert(t, i as u32);
        }
        let ix = |local: &HashMap<TermId, u32>, t: TermId| local[&t];
        let terms: Vec<PortableTerm> = seen
            .iter()
            .map(|&t| match pool.term(t) {
                Term::Const { value, width } => PortableTerm::Const {
                    value: *value,
                    width: *width,
                },
                Term::Var { name, width } => PortableTerm::Var {
                    name: name.clone(),
                    width: *width,
                },
                Term::Unary { op, a } => PortableTerm::Unary {
                    op: *op,
                    a: ix(&local, *a),
                },
                Term::Binary { op, a, b } => PortableTerm::Binary {
                    op: *op,
                    a: ix(&local, *a),
                    b: ix(&local, *b),
                },
                Term::Ite { c, t, e } => PortableTerm::Ite {
                    c: ix(&local, *c),
                    t: ix(&local, *t),
                    e: ix(&local, *e),
                },
                Term::Extract { a, hi, lo } => PortableTerm::Extract {
                    a: ix(&local, *a),
                    hi: *hi,
                    lo: *lo,
                },
                Term::Concat { hi, lo } => PortableTerm::Concat {
                    hi: ix(&local, *hi),
                    lo: ix(&local, *lo),
                },
                Term::ZExt { a, width } => PortableTerm::ZExt {
                    a: ix(&local, *a),
                    width: *width,
                },
            })
            .collect();

        PortableState {
            id: state.id,
            regs: state.regs.map(|r| ix(&local, r)),
            pc: state.pc,
            epc: state.epc,
            irq_enabled: state.irq_enabled,
            in_isr: state.in_isr,
            halted: state.halted,
            mem_base: state.mem.base_image(),
            overlay: overlay
                .into_iter()
                .map(|(a, t)| (a, ix(&local, t)))
                .collect(),
            constraints: state.constraints.iter().map(|&t| ix(&local, t)).collect(),
            terms,
            hw_snapshot: state.hw_snapshot,
            instret: state.instret,
            console: state.console.clone(),
            sym_count: state.sym_count,
            last_checkpoint: state.last_checkpoint,
            map: state.map.clone(),
            fork_nonce: state.fork_nonce,
        }
    }

    /// Rebuilds the state inside `pool` (typically another executor's).
    pub fn import(&self, pool: &mut TermPool) -> SymState {
        let mut ids: Vec<TermId> = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            let id = match t {
                PortableTerm::Const { value, width } => pool.constant(*value, *width),
                PortableTerm::Var { name, width } => pool.var(name, *width),
                PortableTerm::Unary { op, a } => pool.unary(*op, ids[*a as usize]),
                PortableTerm::Binary { op, a, b } => {
                    pool.binary(*op, ids[*a as usize], ids[*b as usize])
                }
                PortableTerm::Ite { c, t, e } => {
                    pool.ite(ids[*c as usize], ids[*t as usize], ids[*e as usize])
                }
                PortableTerm::Extract { a, hi, lo } => pool.extract(ids[*a as usize], *hi, *lo),
                PortableTerm::Concat { hi, lo } => {
                    pool.concat(ids[*hi as usize], ids[*lo as usize])
                }
                PortableTerm::ZExt { a, width } => pool.zext(ids[*a as usize], *width),
            };
            ids.push(id);
        }
        let mut mem = SymMemory::new(self.mem_base.clone());
        for &(addr, t) in &self.overlay {
            mem.store8(addr, ids[t as usize]);
        }
        SymState {
            id: self.id,
            regs: self.regs.map(|r| ids[r as usize]),
            pc: self.pc,
            epc: self.epc,
            irq_enabled: self.irq_enabled,
            in_isr: self.in_isr,
            halted: self.halted,
            mem,
            constraints: self.constraints.iter().map(|&t| ids[t as usize]).collect(),
            hw_snapshot: self.hw_snapshot,
            instret: self.instret,
            console: self.console.clone(),
            sym_count: self.sym_count,
            last_checkpoint: self.last_checkpoint,
            map: self.map.clone(),
            fork_nonce: self.fork_nonce,
        }
    }
}

// ---------------------------------------------------------------------
// Wire format
//
// Campaign checkpoints persist frontier states across process exits, so
// PortableState needs a byte encoding whose discriminants are stable —
// independent of enum layout — and whose decoder is total (any byte
// sequence yields Ok or a typed error, never a panic).
// ---------------------------------------------------------------------

fn unop_code(op: UnOp) -> u8 {
    match op {
        UnOp::Not => 0,
        UnOp::Neg => 1,
    }
}

fn unop_from(code: u8) -> Result<UnOp, PersistError> {
    match code {
        0 => Ok(UnOp::Not),
        1 => Ok(UnOp::Neg),
        c => Err(Malformed(format!("unknown unary op code {c}"))),
    }
}

fn binop_code(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::And => 3,
        BinOp::Or => 4,
        BinOp::Xor => 5,
        BinOp::Shl => 6,
        BinOp::Lshr => 7,
        BinOp::Ashr => 8,
        BinOp::Eq => 9,
        BinOp::Ult => 10,
        BinOp::Slt => 11,
    }
}

fn binop_from(code: u8) -> Result<BinOp, PersistError> {
    Ok(match code {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::And,
        4 => BinOp::Or,
        5 => BinOp::Xor,
        6 => BinOp::Shl,
        7 => BinOp::Lshr,
        8 => BinOp::Ashr,
        9 => BinOp::Eq,
        10 => BinOp::Ult,
        11 => BinOp::Slt,
        c => return Err(Malformed(format!("unknown binary op code {c}"))),
    })
}

impl PortableState {
    /// Serializes to a self-contained little-endian byte image with
    /// stable discriminants (safe to persist across builds).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.mem_base.len() + self.terms.len() * 8);
        out.extend_from_slice(&self.id.0.to_le_bytes());
        for r in self.regs {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&self.pc.to_le_bytes());
        out.extend_from_slice(&self.epc.to_le_bytes());
        let flags = u8::from(self.irq_enabled)
            | (u8::from(self.in_isr) << 1)
            | (u8::from(self.halted) << 2);
        out.push(flags);
        put_bytes(&mut out, &self.mem_base);
        out.extend_from_slice(&(self.overlay.len() as u32).to_le_bytes());
        for &(a, t) in &self.overlay {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&t.to_le_bytes());
        }
        out.extend_from_slice(&(self.constraints.len() as u32).to_le_bytes());
        for &c in &self.constraints {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&(self.terms.len() as u32).to_le_bytes());
        for t in &self.terms {
            match t {
                PortableTerm::Const { value, width } => {
                    out.push(0);
                    out.extend_from_slice(&value.to_le_bytes());
                    out.extend_from_slice(&width.to_le_bytes());
                }
                PortableTerm::Var { name, width } => {
                    out.push(1);
                    put_str(&mut out, name);
                    out.extend_from_slice(&width.to_le_bytes());
                }
                PortableTerm::Unary { op, a } => {
                    out.push(2);
                    out.push(unop_code(*op));
                    out.extend_from_slice(&a.to_le_bytes());
                }
                PortableTerm::Binary { op, a, b } => {
                    out.push(3);
                    out.push(binop_code(*op));
                    out.extend_from_slice(&a.to_le_bytes());
                    out.extend_from_slice(&b.to_le_bytes());
                }
                PortableTerm::Ite { c, t, e } => {
                    out.push(4);
                    out.extend_from_slice(&c.to_le_bytes());
                    out.extend_from_slice(&t.to_le_bytes());
                    out.extend_from_slice(&e.to_le_bytes());
                }
                PortableTerm::Extract { a, hi, lo } => {
                    out.push(5);
                    out.extend_from_slice(&a.to_le_bytes());
                    out.extend_from_slice(&hi.to_le_bytes());
                    out.extend_from_slice(&lo.to_le_bytes());
                }
                PortableTerm::Concat { hi, lo } => {
                    out.push(6);
                    out.extend_from_slice(&hi.to_le_bytes());
                    out.extend_from_slice(&lo.to_le_bytes());
                }
                PortableTerm::ZExt { a, width } => {
                    out.push(7);
                    out.extend_from_slice(&a.to_le_bytes());
                    out.extend_from_slice(&width.to_le_bytes());
                }
            }
        }
        match self.hw_snapshot {
            Some(id) => {
                out.push(1);
                out.extend_from_slice(&id.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.instret.to_le_bytes());
        put_bytes(&mut out, &self.console);
        out.extend_from_slice(&self.sym_count.to_le_bytes());
        match self.last_checkpoint {
            Some(cp) => {
                out.push(1);
                out.extend_from_slice(&cp.to_le_bytes());
            }
            None => out.push(0),
        }
        let regions: Vec<_> = self.map.iter().collect();
        out.extend_from_slice(&(regions.len() as u32).to_le_bytes());
        for r in regions {
            put_str(&mut out, &r.name);
            out.extend_from_slice(&r.base.to_le_bytes());
            out.extend_from_slice(&r.size.to_le_bytes());
            out.push(match r.kind {
                hardsnap_bus::RegionKind::Ram => 0,
                hardsnap_bus::RegionKind::Rom => 1,
                hardsnap_bus::RegionKind::Mmio => 2,
            });
        }
        out.extend_from_slice(&self.fork_nonce.to_le_bytes());
        out
    }

    /// Deserializes an image produced by [`PortableState::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`PersistError::Malformed`] naming the first structural problem
    /// found (truncation, a count the bytes left cannot hold, a string
    /// over 64 KiB, unknown discriminant, dangling term index, a term no
    /// smart constructor builds, a register, memory byte or constraint
    /// of the wrong width, invalid memory map, trailing bytes).
    pub fn from_bytes(data: &[u8]) -> Result<PortableState, PersistError> {
        let mut r = Cursor::new(data, "state");
        let id = StateId(r.get_u64()?);
        let mut regs = [0u32; 16];
        for slot in &mut regs {
            *slot = r.get_u32()?;
        }
        let pc = r.get_u32()?;
        let epc = r.get_u32()?;
        let flags = r.get_u8()?;
        if flags & !0x7 != 0 {
            return Err(Malformed(format!("unknown state flags {flags:#x}")));
        }
        let mem_base = Arc::new(r.get_bytes()?.to_vec());
        let n_overlay = r.count(8)?;
        let mut overlay = Vec::with_capacity(n_overlay);
        for _ in 0..n_overlay {
            let a = r.get_u32()?;
            let t = r.get_u32()?;
            overlay.push((a, t));
        }
        let n_constraints = r.count(4)?;
        let mut constraints = Vec::with_capacity(n_constraints);
        for _ in 0..n_constraints {
            constraints.push(r.get_u32()?);
        }
        // The smallest term record is a unary one: tag, op, operand.
        let n_terms = r.count(6)?;
        let mut terms = Vec::with_capacity(n_terms);
        // Each term's width. A well-formed closure is topologically
        // ordered (children strictly precede parents) and well-typed:
        // every term is one the pool's smart constructors build, so
        // `import` never trips their width checks.
        let mut widths: Vec<u32> = Vec::with_capacity(n_terms);
        for i in 0..n_terms {
            let child = |t: u32| -> Result<(u32, u32), PersistError> {
                match widths.get(t as usize) {
                    Some(&w) => Ok((t, w)),
                    None => Err(Malformed(format!(
                        "term {i} references non-preceding term {t}"
                    ))),
                }
            };
            let ill = |what: String| Err(Malformed(format!("term {i}: {what}")));
            let (term, width) = match r.get_u8()? {
                0 => {
                    let value = r.get_u64()?;
                    let width = term_width(i, r.get_u32()?)?;
                    (PortableTerm::Const { value, width }, width)
                }
                1 => {
                    let name = r.get_str()?;
                    let width = term_width(i, r.get_u32()?)?;
                    (PortableTerm::Var { name, width }, width)
                }
                2 => {
                    let op = unop_from(r.get_u8()?)?;
                    let (a, w) = child(r.get_u32()?)?;
                    (PortableTerm::Unary { op, a }, w)
                }
                3 => {
                    let op = binop_from(r.get_u8()?)?;
                    let (a, wa) = child(r.get_u32()?)?;
                    let (b, wb) = child(r.get_u32()?)?;
                    if wa != wb {
                        return ill(format!("{op:?} of {wa}- and {wb}-bit operands"));
                    }
                    let w = match op {
                        BinOp::Eq | BinOp::Ult | BinOp::Slt => 1,
                        _ => wa,
                    };
                    (PortableTerm::Binary { op, a, b }, w)
                }
                4 => {
                    let (c, wc) = child(r.get_u32()?)?;
                    let (t, wt) = child(r.get_u32()?)?;
                    let (e, we) = child(r.get_u32()?)?;
                    if wc != 1 || wt != we {
                        return ill(format!(
                            "ite of a {wc}-bit condition, {wt}- and {we}-bit arms"
                        ));
                    }
                    (PortableTerm::Ite { c, t, e }, wt)
                }
                5 => {
                    let (a, wa) = child(r.get_u32()?)?;
                    let hi = r.get_u32()?;
                    let lo = r.get_u32()?;
                    if hi < lo || hi >= wa {
                        return ill(format!("extract [{hi}:{lo}] of a {wa}-bit term"));
                    }
                    (PortableTerm::Extract { a, hi, lo }, hi - lo + 1)
                }
                6 => {
                    let (hi, wh) = child(r.get_u32()?)?;
                    let (lo, wl) = child(r.get_u32()?)?;
                    if wh + wl > 64 {
                        return ill(format!("concat of {wh} and {wl} bits"));
                    }
                    (PortableTerm::Concat { hi, lo }, wh + wl)
                }
                7 => {
                    let (a, wa) = child(r.get_u32()?)?;
                    let width = term_width(i, r.get_u32()?)?;
                    if width < wa {
                        return ill(format!("zero extension of {wa} to {width} bits"));
                    }
                    (PortableTerm::ZExt { a, width }, width)
                }
                c => return Err(Malformed(format!("unknown term tag {c}"))),
            };
            terms.push(term);
            widths.push(width);
        }
        // Registers hold words, the overlay bytes, constraints conditions.
        let typed = |t: u32, want: u32, what: &str| match widths.get(t as usize) {
            Some(&w) if w == want => Ok(()),
            Some(&w) => Err(Malformed(format!(
                "{what} term {t} is {w} bits wide, not {want}"
            ))),
            None => Err(Malformed(format!("dangling term index {t}"))),
        };
        for &t in &regs {
            typed(t, 32, "register")?;
        }
        for &(_, t) in &overlay {
            typed(t, 8, "memory byte")?;
        }
        for &c in &constraints {
            typed(c, 1, "constraint")?;
        }
        let hw_snapshot = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u64()?),
            c => return Err(Malformed(format!("bad option tag {c}"))),
        };
        let instret = r.get_u64()?;
        let console = r.get_bytes()?.to_vec();
        let sym_count = r.get_u32()?;
        let last_checkpoint = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u16()?),
            c => return Err(Malformed(format!("bad option tag {c}"))),
        };
        // A region is at least a name length, base, size and kind.
        let n_regions = r.count(13)?;
        let mut map = MemoryMap::new();
        for _ in 0..n_regions {
            let name = r.get_str()?;
            let base = r.get_u32()?;
            let size = r.get_u32()?;
            let kind = match r.get_u8()? {
                0 => hardsnap_bus::RegionKind::Ram,
                1 => hardsnap_bus::RegionKind::Rom,
                2 => hardsnap_bus::RegionKind::Mmio,
                c => return Err(Malformed(format!("unknown region kind {c}"))),
            };
            map.add(hardsnap_bus::Region {
                name,
                base,
                size,
                kind,
            })
            .map_err(Malformed)?;
        }
        let fork_nonce = r.get_u64()?;
        r.finish()?;
        Ok(PortableState {
            id,
            regs,
            pc,
            epc,
            irq_enabled: flags & 1 != 0,
            in_isr: flags & 2 != 0,
            halted: flags & 4 != 0,
            mem_base,
            overlay,
            constraints,
            terms,
            hw_snapshot,
            instret,
            console,
            sym_count,
            last_checkpoint,
            map: Arc::new(map),
            fork_nonce,
        })
    }
}

/// `width` if the executor builds terms of it (1 to 64 bits).
fn term_width(i: usize, width: u32) -> Result<u32, PersistError> {
    if (1..=64).contains(&width) {
        Ok(width)
    } else {
        Err(Malformed(format!("term {i} is {width} bits wide")))
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use crate::exec::{Concretization, Executor, NoSymMmio, StepOutcome};

    fn sample_state(ex: &mut Executor) -> SymState {
        let prog = hardsnap_isa::assemble(
            r#"
            .org 0x100
            entry:
                sym r1, #0
                movi r2, #42
                beq r1, r2, hit
                halt
            hit:
                halt
            "#,
        )
        .unwrap();
        let mut s = ex.initial_state(prog.image.clone(), prog.entry);
        let mut hw = NoSymMmio;
        loop {
            match ex.step(s, &mut hw) {
                StepOutcome::ContinueWith(n) => s = n,
                StepOutcome::Fork(mut ss) => break ss.remove(0),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn wire_roundtrip_is_identity_on_reimport() {
        let mut ex = Executor::new(Concretization::Minimal);
        let mut s = sample_state(&mut ex);
        s.hw_snapshot = Some(17);
        s.console = b"boot\n".to_vec();
        s.map = Arc::new(MemoryMap::default_soc());
        let p = PortableState::export(&ex.pool, &s);
        let bytes = p.to_bytes();
        let p2 = PortableState::from_bytes(&bytes).unwrap();
        assert_eq!(p2.id, p.id);
        assert_eq!(p2.regs, p.regs);
        assert_eq!(p2.pc, p.pc);
        assert_eq!(p2.overlay, p.overlay);
        assert_eq!(p2.constraints, p.constraints);
        assert_eq!(p2.terms, p.terms);
        assert_eq!(p2.hw_snapshot, Some(17));
        assert_eq!(p2.console, b"boot\n");
        assert_eq!(p2.map, p.map);
        assert_eq!(*p2.mem_base, *p.mem_base);
        // Re-serialization is byte-identical (deterministic format).
        assert_eq!(p2.to_bytes(), bytes);
        // And the reimported state solves identically.
        let mut ex2 = Executor::new(Concretization::Minimal);
        let s2 = p2.import(&mut ex2.pool);
        let model = ex2.testcase(&s2).expect("feasible");
        let (_, v) = model.iter().next().unwrap();
        assert_eq!(v, 42);
    }

    /// `sample_state` with a register and a memory byte built from every
    /// term kind, over a 16-byte memory image, so a test can afford to
    /// corrupt every byte of its encoding.
    fn every_term_kind(ex: &mut Executor) -> PortableState {
        let mut s = sample_state(ex);
        let pool = &mut ex.pool;
        let x = s.reg(1);
        let lo = pool.extract(x, 7, 0);
        let hi = pool.extract(x, 15, 8);
        let half = pool.concat(hi, lo);
        let wide = pool.zext(half, 32);
        let inv = pool.unary(UnOp::Not, wide);
        let below = pool.binary(BinOp::Ult, inv, x);
        let pick = pool.ite(below, inv, x);
        s.set_reg(3, pick);
        s.mem.store8(4, lo);
        let mut p = PortableState::export(pool, &s);
        p.mem_base = Arc::new(vec![0; 16]);
        p
    }

    #[test]
    fn wire_decoder_is_total_under_corruption() {
        let mut ex = Executor::new(Concretization::Minimal);
        let bytes = every_term_kind(&mut ex).to_bytes();
        // Whatever decodes is well-typed, so importing it never trips a
        // width check of the smart constructors (asserted in debug
        // builds, which tests are).
        let decodes_or_refuses = |data: &[u8]| {
            if let Ok(p) = PortableState::from_bytes(data) {
                p.import(&mut TermPool::new());
            }
        };
        for cut in 0..bytes.len() {
            decodes_or_refuses(&bytes[..cut]);
        }
        // Single-byte corruption never panics: it is refused or decodes
        // to a different well-typed state, which checksums at the
        // container layer catch.
        for i in 0..bytes.len() {
            for flip in [0x01, 0x10, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                decodes_or_refuses(&bad);
            }
        }
    }

    #[test]
    fn strings_over_64_kib_are_refused() {
        let mut ex = Executor::new(Concretization::Minimal);
        let good = every_term_kind(&mut ex);
        for (len, ok) in [(1 << 16, true), ((1 << 16) + 1, false)] {
            let mut p = good.clone();
            p.terms.push(PortableTerm::Var {
                name: "v".repeat(len),
                width: 8,
            });
            assert_eq!(
                PortableState::from_bytes(&p.to_bytes()).is_ok(),
                ok,
                "{len}"
            );
        }
    }

    #[test]
    fn ill_typed_terms_are_refused() {
        let mut ex = Executor::new(Concretization::Minimal);
        let good = every_term_kind(&mut ex);
        PortableState::from_bytes(&good.to_bytes()).unwrap();
        let var32 = good
            .terms
            .iter()
            .position(|t| matches!(t, PortableTerm::Var { width: 32, .. }))
            .unwrap() as u32;
        let byte = good.overlay[0].1;
        let cond = good.constraints[0];
        let konst = |width| PortableTerm::Const { value: 0, width };
        let next = good.terms.len() as u32;
        // Each extra term is one no smart constructor builds.
        let terms = [
            konst(0),
            konst(65),
            PortableTerm::Var {
                name: "v".into(),
                width: 0,
            },
            PortableTerm::Extract {
                a: var32,
                hi: 0,
                lo: 5,
            },
            PortableTerm::Extract {
                a: var32,
                hi: 32,
                lo: 0,
            },
            PortableTerm::ZExt { a: var32, width: 8 },
            PortableTerm::ZExt {
                a: var32,
                width: 65,
            },
            PortableTerm::Binary {
                op: BinOp::Add,
                a: var32,
                b: byte,
            },
            PortableTerm::Ite {
                c: var32,
                t: var32,
                e: var32,
            },
            PortableTerm::Ite {
                c: cond,
                t: var32,
                e: byte,
            },
        ];
        for t in terms {
            let mut bad = good.clone();
            bad.terms.push(t.clone());
            let got = PortableState::from_bytes(&bad.to_bytes());
            assert!(got.is_err(), "{t:?} decoded");
        }
        let mut bad = good.clone();
        bad.terms.push(konst(64));
        bad.terms.push(PortableTerm::Concat { hi: next, lo: byte });
        assert!(PortableState::from_bytes(&bad.to_bytes()).is_err());
        // Roots of the wrong width: a byte in a register, a word in
        // memory, a word as a constraint.
        let roots: [fn(&mut PortableState, u32, u32); 3] = [
            |p, _, byte| p.regs[2] = byte,
            |p, word, _| p.overlay[0].1 = word,
            |p, word, _| p.constraints[0] = word,
        ];
        for (k, set) in roots.into_iter().enumerate() {
            let mut bad = good.clone();
            set(&mut bad, var32, byte);
            assert!(
                PortableState::from_bytes(&bad.to_bytes()).is_err(),
                "root {k}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Concretization, Executor, NoSymMmio, StepOutcome};
    use hardsnap_isa::assemble;

    #[test]
    fn roundtrip_preserves_scalars_and_term_structure() {
        let mut pool = TermPool::new();
        let mut s = SymState::initial(&mut pool, Arc::new(vec![0u8; 64]), 0x100);
        let x = pool.var("x", 32);
        let five = pool.constant(5, 32);
        let sum = pool.binary(BinOp::Add, x, five);
        s.set_reg(1, sum);
        let b = pool.extract(sum, 7, 0);
        s.mem.store8(3, b);
        let zero = pool.constant(0, 32);
        let c = pool.binary(BinOp::Eq, sum, zero);
        s.assume(c);
        s.pc = 0x104;
        s.sym_count = 2;
        s.fork_nonce = 7;

        let p = PortableState::export(&pool, &s);
        let mut pool2 = TermPool::new();
        let s2 = p.import(&mut pool2);

        assert_eq!(s2.id, s.id);
        assert_eq!(s2.pc, 0x104);
        assert_eq!(s2.sym_count, 2);
        assert_eq!(s2.fork_nonce, 7);
        assert_eq!(s2.constraints.len(), 1);
        // Same structure: evaluating under the same environment agrees.
        let mut env = HashMap::new();
        env.insert("x".to_string(), 37u64);
        assert_eq!(pool2.eval(s2.reg(1), &env), pool.eval(s.reg(1), &env));
        let m = s2.mem.load8(&mut pool2, 3);
        let m0 = s.mem.load8(&mut pool, 3);
        assert_eq!(pool2.eval(m, &env), pool.eval(m0, &env));
        assert_eq!(pool2.eval(s2.constraints[0], &env), 0);
    }

    #[test]
    fn import_into_populated_pool_is_structure_preserving() {
        // Exporting and re-importing into the *same* pool must map every
        // term back to itself (fixed point of the smart constructors).
        let mut pool = TermPool::new();
        let mut s = SymState::initial(&mut pool, Arc::new(vec![0u8; 16]), 0x100);
        let x = pool.var("x", 32);
        let y = pool.var("y", 32);
        let m = pool.binary(BinOp::Mul, x, y);
        let lo = pool.extract(m, 15, 0);
        let z = pool.zext(lo, 32);
        s.set_reg(2, z);
        let t = pool.binary(BinOp::Ult, z, x);
        s.assume(t);
        let p = PortableState::export(&pool, &s);
        let s2 = p.import(&mut pool);
        assert_eq!(s2.reg(2), s.reg(2));
        assert_eq!(s2.constraints, s.constraints);
    }

    #[test]
    fn executed_state_transfers_and_keeps_solving_identically() {
        let prog = assemble(
            r#"
            .org 0x100
            entry:
                sym r1, #0
                movi r2, #42
                beq r1, r2, hit
                halt
            hit:
                halt
            "#,
        )
        .unwrap();
        let mut ex = Executor::new(Concretization::Minimal);
        let mut s = ex.initial_state(prog.image.clone(), prog.entry);
        let mut hw = NoSymMmio;
        // Step to the fork.
        let forked = loop {
            match ex.step(s, &mut hw) {
                StepOutcome::ContinueWith(n) => s = n,
                StepOutcome::Fork(ss) => break ss,
                other => panic!("{other:?}"),
            }
        };
        // Transfer the taken path to a second executor and solve there.
        let taken = &forked[0];
        let p = PortableState::export(&ex.pool, taken);
        let mut ex2 = Executor::new(Concretization::Minimal);
        let t2 = p.import(&mut ex2.pool);
        let model = ex2.testcase(&t2).expect("path is feasible");
        let (_, v) = model.iter().next().expect("one input");
        assert_eq!(v, 42);
        // The original executor agrees.
        let m0 = ex.testcase(taken).expect("feasible");
        let (_, v0) = m0.iter().next().unwrap();
        assert_eq!(v0, 42);
    }
}
