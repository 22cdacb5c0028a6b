//! Pool-independent symbolic states, for a hand-off to another worker
//! and for campaign checkpoints.
//!
//! [`TermId`]s index one executor's private [`TermPool`], so a
//! [`SymState`] cannot leave its pool on its own. A [`PortableState`] is
//! the same `SymState` over a term list of its own: its `TermId`s index
//! [`PortableState::terms`], the closure of the state's terms
//! (registers, memory overlay, path constraints) numbered in the source
//! pool's order, so every term's operands precede it. Importing rebuilds
//! each term through the target pool's smart constructors and remaps
//! the state onto the result.
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
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A [`SymState`] detached from its [`TermPool`]: safe to move between
/// threads (the concrete memory base stays shared via `Arc`).
#[derive(Clone, Debug)]
pub struct PortableState {
    /// The state. Its `TermId`s index [`PortableState::terms`].
    pub state: SymState,
    /// The state's term closure: each term's operands index earlier
    /// entries.
    pub terms: Vec<Term>,
}

impl PortableState {
    /// Flattens `state` out of `pool`: its term closure, renumbered in
    /// the pool's order, and a copy of the state remapped onto it.
    pub fn export(pool: &TermPool, state: &SymState) -> PortableState {
        // Children are interned before parents, so the closure sorted by
        // id lists every term after its operands.
        let mut closure: Vec<TermId> = Vec::new();
        let mut seen: HashSet<TermId> = HashSet::new();
        let mut work: Vec<TermId> = state.roots().collect();
        while let Some(t) = work.pop() {
            if seen.insert(t) {
                closure.push(t);
                work.extend(pool.term(t).children());
            }
        }
        closure.sort_unstable();
        let local: HashMap<TermId, TermId> = (0..)
            .map(TermId)
            .zip(&closure)
            .map(|(i, &t)| (t, i))
            .collect();
        let renumber = |t: TermId| local[&t];
        let mut state = state.clone();
        state.map_terms(renumber);
        PortableState {
            state,
            terms: closure
                .iter()
                .map(|&t| pool.term(t).map_children(renumber))
                .collect(),
        }
    }

    /// A copy of the state, rebuilt inside `pool` (typically another
    /// executor's).
    pub fn import(&self, pool: &mut TermPool) -> SymState {
        rebuild(&self.terms, self.state.clone(), pool)
    }

    /// The state rebuilt inside `pool`, remapped in place.
    pub fn into_state(self, pool: &mut TermPool) -> SymState {
        rebuild(&self.terms, self.state, pool)
    }
}

/// Builds `terms` in `pool`, in order, and remaps `state` from their
/// indices to the ids they got there.
fn rebuild(terms: &[Term], mut state: SymState, pool: &mut TermPool) -> SymState {
    let mut ids: Vec<TermId> = Vec::with_capacity(terms.len());
    for t in terms {
        let id = pool.build(&t.map_children(|c| ids[c.0 as usize]));
        ids.push(id);
    }
    state.map_terms(|t| ids[t.0 as usize]);
    state
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
    /// stable discriminants (safe to persist across builds). The memory
    /// overlay is written sorted by address.
    pub fn to_bytes(&self) -> Vec<u8> {
        let s = &self.state;
        let mem_base = s.mem.base_image();
        let mut out = Vec::with_capacity(64 + mem_base.len() + self.terms.len() * 8);
        out.extend_from_slice(&s.id.0.to_le_bytes());
        for r in s.regs {
            out.extend_from_slice(&r.0.to_le_bytes());
        }
        out.extend_from_slice(&s.pc.to_le_bytes());
        out.extend_from_slice(&s.epc.to_le_bytes());
        let flags = u8::from(s.irq_enabled) | (u8::from(s.in_isr) << 1) | (u8::from(s.halted) << 2);
        out.push(flags);
        put_bytes(&mut out, &mem_base);
        let mut overlay: Vec<(u32, TermId)> = s.mem.overlay_entries().collect();
        overlay.sort_unstable_by_key(|&(a, _)| a);
        out.extend_from_slice(&(overlay.len() as u32).to_le_bytes());
        for (a, t) in overlay {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&t.0.to_le_bytes());
        }
        out.extend_from_slice(&(s.constraints.len() as u32).to_le_bytes());
        for c in &s.constraints {
            out.extend_from_slice(&c.0.to_le_bytes());
        }
        out.extend_from_slice(&(self.terms.len() as u32).to_le_bytes());
        for t in &self.terms {
            match t {
                Term::Const { value, width } => {
                    out.push(0);
                    out.extend_from_slice(&value.to_le_bytes());
                    out.extend_from_slice(&width.to_le_bytes());
                }
                Term::Var { name, width } => {
                    out.push(1);
                    put_str(&mut out, name);
                    out.extend_from_slice(&width.to_le_bytes());
                }
                Term::Unary { op, a } => {
                    out.push(2);
                    out.push(unop_code(*op));
                    out.extend_from_slice(&a.0.to_le_bytes());
                }
                Term::Binary { op, a, b } => {
                    out.push(3);
                    out.push(binop_code(*op));
                    out.extend_from_slice(&a.0.to_le_bytes());
                    out.extend_from_slice(&b.0.to_le_bytes());
                }
                Term::Ite { c, t, e } => {
                    out.push(4);
                    out.extend_from_slice(&c.0.to_le_bytes());
                    out.extend_from_slice(&t.0.to_le_bytes());
                    out.extend_from_slice(&e.0.to_le_bytes());
                }
                Term::Extract { a, hi, lo } => {
                    out.push(5);
                    out.extend_from_slice(&a.0.to_le_bytes());
                    out.extend_from_slice(&hi.to_le_bytes());
                    out.extend_from_slice(&lo.to_le_bytes());
                }
                Term::Concat { hi, lo } => {
                    out.push(6);
                    out.extend_from_slice(&hi.0.to_le_bytes());
                    out.extend_from_slice(&lo.0.to_le_bytes());
                }
                Term::ZExt { a, width } => {
                    out.push(7);
                    out.extend_from_slice(&a.0.to_le_bytes());
                    out.extend_from_slice(&width.to_le_bytes());
                }
            }
        }
        match s.hw_snapshot {
            Some(id) => {
                out.push(1);
                out.extend_from_slice(&id.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&s.instret.to_le_bytes());
        put_bytes(&mut out, &s.console);
        out.extend_from_slice(&s.sym_count.to_le_bytes());
        match s.last_checkpoint {
            Some(cp) => {
                out.push(1);
                out.extend_from_slice(&cp.to_le_bytes());
            }
            None => out.push(0),
        }
        let regions: Vec<_> = s.map.iter().collect();
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
        out.extend_from_slice(&s.fork_nonce.to_le_bytes());
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
        let mut regs = [TermId(0); 16];
        for slot in &mut regs {
            *slot = TermId(r.get_u32()?);
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
            overlay.push((r.get_u32()?, TermId(r.get_u32()?)));
        }
        let n_constraints = r.count(4)?;
        let mut constraints = Vec::with_capacity(n_constraints);
        for _ in 0..n_constraints {
            constraints.push(TermId(r.get_u32()?));
        }
        // The smallest term record is a unary one: tag, op, operand.
        let n_terms = r.count(6)?;
        let mut terms = Vec::with_capacity(n_terms);
        // Each term's width. A well-formed closure lists each term after
        // its operands and is well-typed, so `import` builds every term
        // through a smart constructor that accepts it.
        let mut widths: Vec<u32> = Vec::with_capacity(n_terms);
        for i in 0..n_terms {
            let child = |r: &mut Cursor<'_>| match r.get_u32()? {
                t if (t as usize) < i => Ok(TermId(t)),
                t => Err(Malformed(format!(
                    "term {i} references non-preceding term {t}"
                ))),
            };
            let term = match r.get_u8()? {
                0 => Term::Const {
                    value: r.get_u64()?,
                    width: r.get_u32()?,
                },
                1 => Term::Var {
                    name: r.get_str()?,
                    width: r.get_u32()?,
                },
                2 => Term::Unary {
                    op: unop_from(r.get_u8()?)?,
                    a: child(&mut r)?,
                },
                3 => Term::Binary {
                    op: binop_from(r.get_u8()?)?,
                    a: child(&mut r)?,
                    b: child(&mut r)?,
                },
                4 => Term::Ite {
                    c: child(&mut r)?,
                    t: child(&mut r)?,
                    e: child(&mut r)?,
                },
                5 => Term::Extract {
                    a: child(&mut r)?,
                    hi: r.get_u32()?,
                    lo: r.get_u32()?,
                },
                6 => Term::Concat {
                    hi: child(&mut r)?,
                    lo: child(&mut r)?,
                },
                7 => Term::ZExt {
                    a: child(&mut r)?,
                    width: r.get_u32()?,
                },
                c => return Err(Malformed(format!("unknown term tag {c}"))),
            };
            let width = term
                .typed_width(|t| widths[t.0 as usize])
                .map_err(|e| Malformed(format!("term {i}: {e}")))?;
            terms.push(term);
            widths.push(width);
        }
        // Registers hold words, the overlay bytes, constraints conditions.
        let typed = |t: TermId, want: u32, what: &str| match widths.get(t.0 as usize) {
            Some(&w) if w == want => Ok(()),
            Some(&w) => Err(Malformed(format!(
                "{what} term {} is {w} bits wide, not {want}",
                t.0
            ))),
            None => Err(Malformed(format!("dangling term index {}", t.0))),
        };
        for &t in &regs {
            typed(t, 32, "register")?;
        }
        let mut mem = SymMemory::new(mem_base);
        for (a, t) in overlay {
            typed(t, 8, "memory byte")?;
            mem.store8(a, t);
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
        let state = SymState {
            id,
            regs,
            pc,
            epc,
            irq_enabled: flags & 1 != 0,
            in_isr: flags & 2 != 0,
            halted: flags & 4 != 0,
            mem,
            constraints,
            hw_snapshot,
            instret,
            console,
            sym_count,
            last_checkpoint,
            map: Arc::new(map),
            fork_nonce,
        };
        Ok(PortableState { state, terms })
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
        let (s, s2) = (&p.state, &p2.state);
        assert_eq!(s2.id, s.id);
        assert_eq!(s2.regs, s.regs);
        assert_eq!(s2.pc, s.pc);
        assert_eq!(overlay(s2), overlay(s));
        assert_eq!(s2.constraints, s.constraints);
        assert_eq!(p2.terms, p.terms);
        assert_eq!(s2.hw_snapshot, Some(17));
        assert_eq!(s2.console, b"boot\n");
        assert_eq!(s2.map, s.map);
        assert_eq!(*s2.mem.base_image(), *s.mem.base_image());
        // Re-serialization is byte-identical (deterministic format).
        assert_eq!(p2.to_bytes(), bytes);
        // And the reimported state solves identically.
        let mut ex2 = Executor::new(Concretization::Minimal);
        let s2 = p2.import(&mut ex2.pool);
        let model = ex2.testcase(&s2).expect("feasible");
        let (_, v) = model.iter().next().unwrap();
        assert_eq!(v, 42);
    }

    /// The memory overlay, sorted by address.
    fn overlay(s: &SymState) -> Vec<(u32, TermId)> {
        let mut v: Vec<_> = s.mem.overlay_entries().collect();
        v.sort_unstable();
        v
    }

    /// `sample_state` with a register and a memory byte built from every
    /// term kind, over a 16-byte memory image, so a test can afford to
    /// corrupt every byte of its encoding.
    fn every_term_kind(ex: &mut Executor) -> PortableState {
        let mut s = sample_state(ex);
        assert_eq!(s.mem.overlay_len(), 0);
        s.mem = SymMemory::new(Arc::new(vec![0; 16]));
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
        PortableState::export(pool, &s)
    }

    #[test]
    fn every_term_kind_bytes_are_pinned() {
        // All eight term tags, a console and a memory map, by the
        // SHA-256 of the encoding: checkpoints persist these bytes.
        let mut ex = Executor::new(Concretization::Minimal);
        let bytes = every_term_kind(&mut ex).to_bytes();
        let hex: String = hardsnap_periph::golden::sha256(&bytes)
            .iter()
            .map(|w| format!("{w:08x}"))
            .collect();
        assert_eq!(
            (bytes.len(), hex.as_str()),
            (
                382,
                "73cb4d86d00886b6c729503da97b9172afd9cab897a95349e77fcb9e649cb840"
            )
        );
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
            p.terms.push(Term::Var {
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
        let var32 = TermId(
            good.terms
                .iter()
                .position(|t| matches!(t, Term::Var { width: 32, .. }))
                .unwrap() as u32,
        );
        let [(addr, byte)] = overlay(&good.state)[..] else {
            panic!("one memory byte")
        };
        let cond = good.state.constraints[0];
        let konst = |width| Term::Const { value: 0, width };
        let next = TermId(good.terms.len() as u32);
        // Each extra term is one no smart constructor builds.
        let terms = [
            konst(0),
            konst(65),
            Term::Var {
                name: "v".into(),
                width: 0,
            },
            Term::Extract {
                a: var32,
                hi: 0,
                lo: 5,
            },
            Term::Extract {
                a: var32,
                hi: 32,
                lo: 0,
            },
            Term::ZExt { a: var32, width: 8 },
            Term::ZExt {
                a: var32,
                width: 65,
            },
            Term::Binary {
                op: BinOp::Add,
                a: var32,
                b: byte,
            },
            Term::Ite {
                c: var32,
                t: var32,
                e: var32,
            },
            Term::Ite {
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
        bad.terms.push(Term::Concat { hi: next, lo: byte });
        assert!(PortableState::from_bytes(&bad.to_bytes()).is_err());
        // Roots of the wrong width: a byte in a register, a word in
        // memory, a word as a constraint.
        let roots: [fn(&mut SymState, u32, TermId, TermId); 3] = [
            |s, _, _, byte| s.regs[2] = byte,
            |s, addr, word, _| s.mem.store8(addr, word),
            |s, _, word, _| s.constraints[0] = word,
        ];
        for (k, set) in roots.into_iter().enumerate() {
            let mut bad = good.clone();
            set(&mut bad.state, addr, var32, byte);
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
