//! Symbolic bit-vector expressions (the KLEE-expression analogue).
//!
//! Terms are hash-consed into a [`TermPool`]; constructors apply local
//! simplifications (constant folding, identities) so that purely
//! concrete executions never touch the solver.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies a term within its [`TermPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
}

/// Binary operators. Comparison operators yield width 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount taken mod width... no: amounts
    /// >= width yield 0, matching HS32 `<< (b & 31)` after masking by
    /// the executor).
    Shl,
    /// Logical shift right.
    Lshr,
    /// Arithmetic shift right.
    Ashr,
    /// Equality (width 1).
    Eq,
    /// Unsigned less-than (width 1).
    Ult,
    /// Signed less-than (width 1).
    Slt,
}

/// A term node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// A constant of the given width.
    Const {
        /// Value (normalized to the width).
        value: u64,
        /// Width in bits.
        width: u32,
    },
    /// A free symbolic variable.
    Var {
        /// Unique name (e.g. `sym_3`).
        name: String,
        /// Width in bits.
        width: u32,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        a: TermId,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: TermId,
        /// Right operand.
        b: TermId,
    },
    /// If-then-else over a 1-bit condition.
    Ite {
        /// Condition (width 1).
        c: TermId,
        /// Then value.
        t: TermId,
        /// Else value.
        e: TermId,
    },
    /// Bit extraction `a[hi:lo]`.
    Extract {
        /// Source.
        a: TermId,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
    },
    /// Concatenation (`hi` more significant).
    Concat {
        /// More-significant part.
        hi: TermId,
        /// Less-significant part.
        lo: TermId,
    },
    /// Zero extension to `width`.
    ZExt {
        /// Source.
        a: TermId,
        /// Result width.
        width: u32,
    },
}

impl Term {
    /// The node's operands, in field order.
    pub(crate) fn children(&self) -> impl Iterator<Item = TermId> {
        let (n, ids) = match *self {
            Term::Const { .. } | Term::Var { .. } => (0, [TermId(0); 3]),
            Term::Unary { a, .. } | Term::Extract { a, .. } | Term::ZExt { a, .. } => (1, [a; 3]),
            Term::Binary { a, b, .. } | Term::Concat { hi: a, lo: b } => (2, [a, b, b]),
            Term::Ite { c, t, e } => (3, [c, t, e]),
        };
        ids.into_iter().take(n)
    }

    /// The same node with each operand `c` replaced by `f(c)`.
    pub(crate) fn map_children(&self, mut f: impl FnMut(TermId) -> TermId) -> Term {
        let mut node = self.clone();
        match &mut node {
            Term::Const { .. } | Term::Var { .. } => {}
            Term::Unary { a, .. } | Term::Extract { a, .. } | Term::ZExt { a, .. } => *a = f(*a),
            Term::Binary { a, b, .. } | Term::Concat { hi: a, lo: b } => [*a, *b] = [f(*a), f(*b)],
            Term::Ite { c, t, e } => [*c, *t, *e] = [f(*c), f(*t), f(*e)],
        }
        node
    }

    /// The node's width, given its operands' (`width_of`), or what makes
    /// it ill-typed. These are the typing rules of every term a smart
    /// constructor builds: widths are 1 to 64 bits, a binary operation's
    /// operands and an `ite`'s arms are equally wide, a condition is one
    /// bit, an extraction lies inside its operand, a concatenation fits
    /// 64 bits and a zero extension does not narrow.
    pub(crate) fn typed_width(&self, width_of: impl Fn(TermId) -> u32) -> Result<u32, String> {
        let in_range = |width: u32| match width {
            1..=64 => Ok(width),
            _ => Err(format!("{width} bits wide")),
        };
        match *self {
            Term::Const { width, .. } | Term::Var { width, .. } => in_range(width),
            Term::Unary { a, .. } => Ok(width_of(a)),
            Term::Binary { op, a, b } => {
                let (wa, wb) = (width_of(a), width_of(b));
                if wa != wb {
                    return Err(format!("{op:?} of {wa}- and {wb}-bit operands"));
                }
                Ok(match op {
                    BinOp::Eq | BinOp::Ult | BinOp::Slt => 1,
                    _ => wa,
                })
            }
            Term::Ite { c, t, e } => {
                let (wc, wt, we) = (width_of(c), width_of(t), width_of(e));
                if wc != 1 || wt != we {
                    return Err(format!(
                        "ite of a {wc}-bit condition, {wt}- and {we}-bit arms"
                    ));
                }
                Ok(wt)
            }
            Term::Extract { a, hi, lo } => {
                let wa = width_of(a);
                if hi < lo || hi >= wa {
                    return Err(format!("extract [{hi}:{lo}] of a {wa}-bit term"));
                }
                Ok(hi - lo + 1)
            }
            Term::Concat { hi, lo } => {
                let (wh, wl) = (width_of(hi), width_of(lo));
                if wh + wl > 64 {
                    return Err(format!("concat of {wh} and {wl} bits"));
                }
                Ok(wh + wl)
            }
            Term::ZExt { a, width } => {
                let wa = width_of(a);
                if in_range(width)? < wa {
                    return Err(format!("zero extension of {wa} to {width} bits"));
                }
                Ok(width)
            }
        }
    }
}

fn mask(width: u32) -> u64 {
    debug_assert!(width >= 1 && width <= 64);
    if width == 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

/// Hash-consing arena for terms.
#[derive(Debug)]
pub struct TermPool {
    /// Process-unique: a [`TermId`] means something only in its pool.
    id: u64,
    terms: Vec<Term>,
    widths: Vec<u32>,
    index: HashMap<Term, TermId>,
    var_counter: u32,
}

impl Default for TermPool {
    fn default() -> Self {
        // Unique by `fetch_add` alone; the id publishes no other data.
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        TermPool {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            terms: Vec::new(),
            widths: Vec::new(),
            index: HashMap::new(),
            var_counter: 0,
        }
    }
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        TermPool::default()
    }

    /// This pool's id, unique in the process: a holder of [`TermId`]s
    /// records it to check that it reads them back from the same pool.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no terms were interned yet.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The node for `id`.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    /// Result width of `id`.
    pub fn width(&self, id: TermId) -> u32 {
        self.widths[id.0 as usize]
    }

    /// The constant value of `id`, if it is a constant.
    pub fn as_const(&self, id: TermId) -> Option<u64> {
        match self.term(id) {
            Term::Const { value, .. } => Some(*value),
            _ => None,
        }
    }

    fn intern(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.index.get(&t) {
            return id;
        }
        let width = self.typed_width(&t);
        let id = TermId(self.terms.len() as u32);
        self.index.insert(t.clone(), id);
        self.terms.push(t);
        self.widths.push(width);
        id
    }

    /// `t`'s width ([`Term::typed_width`] over this pool's terms).
    ///
    /// # Panics
    ///
    /// If `t` is ill-typed.
    fn typed_width(&self, t: &Term) -> u32 {
        t.typed_width(|c| self.width(c))
            .unwrap_or_else(|e| panic!("ill-typed term {t:?}: {e}"))
    }

    /// Debug builds check a smart constructor's operands against the
    /// typing rules before it folds them away.
    fn debug_typed(&self, t: Term) {
        if cfg!(debug_assertions) {
            self.typed_width(&t);
        }
    }

    /// Builds `t` through the smart constructor of its kind, so the
    /// result is folded and simplified as if the caller had called it.
    pub(crate) fn build(&mut self, t: &Term) -> TermId {
        match *t {
            Term::Const { value, width } => self.constant(value, width),
            Term::Var { ref name, width } => self.var(name, width),
            Term::Unary { op, a } => self.unary(op, a),
            Term::Binary { op, a, b } => self.binary(op, a, b),
            Term::Ite { c, t, e } => self.ite(c, t, e),
            Term::Extract { a, hi, lo } => self.extract(a, hi, lo),
            Term::Concat { hi, lo } => self.concat(hi, lo),
            Term::ZExt { a, width } => self.zext(a, width),
        }
    }

    /// Interns a constant.
    pub fn constant(&mut self, value: u64, width: u32) -> TermId {
        self.intern(Term::Const {
            value: value & mask(width),
            width,
        })
    }

    /// The 1-bit true constant.
    pub fn tru(&mut self) -> TermId {
        self.constant(1, 1)
    }

    /// The 1-bit false constant.
    pub fn fls(&mut self) -> TermId {
        self.constant(0, 1)
    }

    /// Creates a fresh symbolic variable with a unique name suffix.
    pub fn fresh_var(&mut self, base: &str, width: u32) -> TermId {
        let n = self.var_counter;
        self.var_counter += 1;
        self.intern(Term::Var {
            name: format!("{base}_{n}"),
            width,
        })
    }

    /// Interns a named variable (idempotent for the same name/width).
    pub fn var(&mut self, name: &str, width: u32) -> TermId {
        self.intern(Term::Var {
            name: name.to_string(),
            width,
        })
    }

    /// Builds a unary operation (with folding).
    pub fn unary(&mut self, op: UnOp, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(v) = self.as_const(a) {
            let r = match op {
                UnOp::Not => !v,
                UnOp::Neg => v.wrapping_neg(),
            };
            return self.constant(r, w);
        }
        // ~~x = x, -(-x) = x
        if let Term::Unary {
            op: inner_op,
            a: inner,
        } = self.term(a)
        {
            if *inner_op == op {
                return *inner;
            }
        }
        self.intern(Term::Unary { op, a })
    }

    /// Builds a binary operation (with folding and identities).
    ///
    /// # Panics
    ///
    /// Panics (debug) on operand width mismatch.
    pub fn binary(&mut self, op: BinOp, a: TermId, b: TermId) -> TermId {
        self.debug_typed(Term::Binary { op, a, b });
        let w = self.width(a);
        let ca = self.as_const(a);
        let cb = self.as_const(b);
        if let (Some(x), Some(y)) = (ca, cb) {
            let r = match op {
                BinOp::Add => x.wrapping_add(y) & mask(w),
                BinOp::Sub => x.wrapping_sub(y) & mask(w),
                BinOp::Mul => x.wrapping_mul(y) & mask(w),
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => {
                    if y >= w as u64 {
                        0
                    } else {
                        (x << y) & mask(w)
                    }
                }
                BinOp::Lshr => {
                    if y >= w as u64 {
                        0
                    } else {
                        x >> y
                    }
                }
                BinOp::Ashr => {
                    let sh = (y).min(w as u64 - 1);
                    let sign = (x >> (w - 1)) & 1;
                    let mut r = x >> sh;
                    if sign == 1 {
                        r |= mask(w) & !(mask(w) >> sh);
                    }
                    r & mask(w)
                }
                BinOp::Eq => return self.constant((x == y) as u64, 1),
                BinOp::Ult => return self.constant((x < y) as u64, 1),
                BinOp::Slt => {
                    let sx = ((x << (64 - w)) as i64) >> (64 - w);
                    let sy = ((y << (64 - w)) as i64) >> (64 - w);
                    return self.constant((sx < sy) as u64, 1);
                }
            };
            return self.constant(r, w);
        }
        // Identities.
        match (op, ca, cb) {
            (BinOp::Add, Some(0), _) => return b,
            (BinOp::Add, _, Some(0)) => return a,
            (BinOp::Sub, _, Some(0)) => return a,
            (BinOp::Mul, Some(1), _) => return b,
            (BinOp::Mul, _, Some(1)) => return a,
            (BinOp::Mul, Some(0), _) | (BinOp::Mul, _, Some(0)) => return self.constant(0, w),
            (BinOp::And, Some(0), _) | (BinOp::And, _, Some(0)) => return self.constant(0, w),
            (BinOp::And, Some(m), _) if m == mask(w) => return b,
            (BinOp::And, _, Some(m)) if m == mask(w) => return a,
            (BinOp::Or, Some(0), _) => return b,
            (BinOp::Or, _, Some(0)) => return a,
            (BinOp::Xor, Some(0), _) => return b,
            (BinOp::Xor, _, Some(0)) => return a,
            (BinOp::Shl, _, Some(0)) | (BinOp::Lshr, _, Some(0)) | (BinOp::Ashr, _, Some(0)) => {
                return a
            }
            _ => {}
        }
        if a == b {
            match op {
                BinOp::Xor | BinOp::Sub => return self.constant(0, w),
                BinOp::And | BinOp::Or => return a,
                BinOp::Eq => return self.tru(),
                BinOp::Ult | BinOp::Slt => return self.fls(),
                _ => {}
            }
        }
        self.intern(Term::Binary { op, a, b })
    }

    /// Builds an if-then-else.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the condition is not 1-bit or the arms differ
    /// in width.
    pub fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        self.debug_typed(Term::Ite { c, t, e });
        if let Some(v) = self.as_const(c) {
            return if v == 1 { t } else { e };
        }
        if t == e {
            return t;
        }
        self.intern(Term::Ite { c, t, e })
    }

    /// Builds `a[hi:lo]`.
    ///
    /// # Panics
    ///
    /// Panics (debug) on out-of-range bits.
    pub fn extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        self.debug_typed(Term::Extract { a, hi, lo });
        let w = self.width(a);
        if lo == 0 && hi == w - 1 {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant(v >> lo, hi - lo + 1);
        }
        // extract of concat: resolve into the matching side when fully
        // contained.
        if let Term::Concat { hi: h, lo: l } = *self.term(a) {
            let lw = self.width(l);
            if hi < lw {
                return self.extract(l, hi, lo);
            }
            if lo >= lw {
                return self.extract(h, hi - lw, lo - lw);
            }
        }
        if let Term::ZExt { a: inner, .. } = *self.term(a) {
            let iw = self.width(inner);
            if hi < iw {
                return self.extract(inner, hi, lo);
            }
            if lo >= iw {
                return self.constant(0, hi - lo + 1);
            }
        }
        self.intern(Term::Extract { a, hi, lo })
    }

    /// Builds `{hi, lo}`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the result exceeds 64 bits.
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        self.debug_typed(Term::Concat { hi, lo });
        if let (Some(h), Some(l)) = (self.as_const(hi), self.as_const(lo)) {
            let wl = self.width(lo);
            return self.constant((h << wl) | l, self.width(hi) + wl);
        }
        self.intern(Term::Concat { hi, lo })
    }

    /// Zero-extends `a` to `width`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `width` is smaller than `a`'s width.
    pub fn zext(&mut self, a: TermId, width: u32) -> TermId {
        self.debug_typed(Term::ZExt { a, width });
        let w = self.width(a);
        if width == w {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant(v, width);
        }
        self.intern(Term::ZExt { a, width })
    }

    /// Builds the 1-bit negation of a condition.
    pub fn not_cond(&mut self, c: TermId) -> TermId {
        debug_assert_eq!(self.width(c), 1);
        self.unary(UnOp::Not, c)
    }

    /// Logical AND of two 1-bit conditions.
    pub fn and_cond(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary(BinOp::And, a, b)
    }

    /// Evaluates `id` under an assignment of variable values.
    ///
    /// Unassigned variables evaluate to 0 (matching solver model
    /// completion).
    pub fn eval(&self, id: TermId, env: &HashMap<String, u64>) -> u64 {
        let w = self.width(id);
        let v = match self.term(id) {
            Term::Const { value, .. } => *value,
            Term::Var { name, .. } => env.get(name).copied().unwrap_or(0),
            Term::Unary { op, a } => {
                let x = self.eval(*a, env);
                match op {
                    UnOp::Not => !x,
                    UnOp::Neg => x.wrapping_neg(),
                }
            }
            Term::Binary { op, a, b } => {
                let wa = self.width(*a);
                let x = self.eval(*a, env);
                let y = self.eval(*b, env);
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Shl => {
                        if y >= wa as u64 {
                            0
                        } else {
                            x << y
                        }
                    }
                    BinOp::Lshr => {
                        if y >= wa as u64 {
                            0
                        } else {
                            x >> y
                        }
                    }
                    BinOp::Ashr => {
                        let sh = y.min(wa as u64 - 1);
                        let sign = (x >> (wa - 1)) & 1;
                        let mut r = x >> sh;
                        if sign == 1 {
                            r |= mask(wa) & !(mask(wa) >> sh);
                        }
                        r
                    }
                    BinOp::Eq => (x == y) as u64,
                    BinOp::Ult => (x < y) as u64,
                    BinOp::Slt => {
                        let sx = ((x << (64 - wa)) as i64) >> (64 - wa);
                        let sy = ((y << (64 - wa)) as i64) >> (64 - wa);
                        (sx < sy) as u64
                    }
                }
            }
            Term::Ite { c, t, e } => {
                if self.eval(*c, env) == 1 {
                    self.eval(*t, env)
                } else {
                    self.eval(*e, env)
                }
            }
            Term::Extract { a, hi: _, lo } => self.eval(*a, env) >> lo,
            Term::Concat { hi, lo } => {
                let wl = self.width(*lo);
                (self.eval(*hi, env) << wl) | self.eval(*lo, env)
            }
            Term::ZExt { a, .. } => self.eval(*a, env),
        };
        v & mask(w)
    }

    /// Collects the names of all variables under `id`, each with the
    /// widest width it appears at (one name is one variable, as the
    /// bit-blaster and [`TermPool::eval`] key it). Visits each shared
    /// sub-term once, so the cost is linear in the DAG, not the tree.
    pub fn variables(&self, id: TermId, out: &mut HashMap<String, u32>) {
        let mut seen = HashSet::new();
        let mut stack = vec![id];
        while let Some(t) = stack.pop() {
            if !seen.insert(t) {
                continue;
            }
            match self.term(t) {
                Term::Var { name, width } => {
                    let w = out.entry(name.clone()).or_insert(*width);
                    *w = (*w).max(*width);
                }
                term => stack.extend(term.children()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let a = p.var("x", 32);
        let b = p.var("x", 32);
        assert_eq!(a, b);
        let c1 = p.constant(5, 32);
        let c2 = p.constant(5, 32);
        assert_eq!(c1, c2);
        assert_ne!(p.constant(5, 16), c1);
    }

    #[test]
    fn every_pool_has_its_own_id() {
        let (p, q) = (TermPool::new(), TermPool::default());
        assert_ne!(p.id(), q.id());
    }

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let a = p.constant(10, 32);
        let b = p.constant(32, 32);
        let t = p.binary(BinOp::Add, a, b);
        assert_eq!(p.as_const(t), Some(42));
        let t = p.binary(BinOp::Ult, a, b);
        assert_eq!(p.as_const(t), Some(1));
        let m = p.constant(0xffff_ffff, 32);
        let one = p.constant(1, 32);
        let t = p.binary(BinOp::Add, m, one);
        assert_eq!(p.as_const(t), Some(0));
    }

    #[test]
    fn signed_comparison_folds() {
        let mut p = TermPool::new();
        let neg1 = p.constant(0xffff_ffff, 32);
        let one = p.constant(1, 32);
        let t = p.binary(BinOp::Slt, neg1, one);
        assert_eq!(p.as_const(t), Some(1));
        let t = p.binary(BinOp::Ult, neg1, one);
        assert_eq!(p.as_const(t), Some(0));
    }

    #[test]
    fn identities_simplify() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let zero = p.constant(0, 32);
        let ones = p.constant(u32::MAX as u64, 32);
        assert_eq!(p.binary(BinOp::Add, x, zero), x);
        assert_eq!(p.binary(BinOp::And, x, ones), x);
        let t = p.binary(BinOp::And, x, zero);
        assert_eq!(p.as_const(t), Some(0));
        let t = p.binary(BinOp::Xor, x, x);
        assert_eq!(p.as_const(t), Some(0));
        let t = p.binary(BinOp::Eq, x, x);
        assert_eq!(p.as_const(t), Some(1));
    }

    #[test]
    fn ite_simplifies() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let y = p.var("y", 8);
        let t = p.tru();
        assert_eq!(p.ite(t, x, y), x);
        let c = p.var("c", 1);
        assert_eq!(p.ite(c, x, x), x);
    }

    #[test]
    fn extract_through_concat_and_zext() {
        let mut p = TermPool::new();
        let hi = p.var("h", 8);
        let lo = p.var("l", 8);
        let cc = p.concat(hi, lo);
        assert_eq!(p.extract(cc, 7, 0), lo);
        assert_eq!(p.extract(cc, 15, 8), hi);
        let z = p.zext(lo, 32);
        assert_eq!(p.extract(z, 7, 0), lo);
        let t = p.extract(z, 31, 8);
        assert_eq!(p.as_const(t), Some(0));
    }

    #[test]
    fn eval_matches_fold() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let five = p.constant(5, 32);
        let e = p.binary(BinOp::Mul, x, five);
        let e = p.binary(BinOp::Sub, e, five);
        let mut env = HashMap::new();
        env.insert("x".to_string(), 9u64);
        assert_eq!(p.eval(e, &env), 40);
    }

    #[test]
    fn eval_shifts_and_ashr() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let sh = p.constant(2, 8);
        let l = p.binary(BinOp::Ashr, x, sh);
        let mut env = HashMap::new();
        env.insert("x".to_string(), 0x84u64);
        assert_eq!(p.eval(l, &env), 0xe1);
        let big = p.constant(9, 8);
        let r = p.binary(BinOp::Lshr, x, big);
        assert_eq!(p.eval(r, &env), 0);
    }

    #[test]
    fn variables_are_collected() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 8);
        let yz = p.zext(y, 32);
        let e = p.binary(BinOp::Add, x, yz);
        let mut vars = HashMap::new();
        p.variables(e, &mut vars);
        assert_eq!(vars.get("x"), Some(&32));
        assert_eq!(vars.get("y"), Some(&8));
    }

    #[test]
    fn variables_of_a_deep_self_sum_chain_is_linear() {
        // `add r1, r1, r1` 64 times: a tree of 2^64 leaves, a DAG of 65
        // nodes. A walk without a visited set never returns.
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let mut t = x;
        for _ in 0..64 {
            t = p.binary(BinOp::Add, t, t);
        }
        let mut vars = HashMap::new();
        p.variables(t, &mut vars);
        assert_eq!(vars, HashMap::from([("x".to_string(), 32)]));
    }

    #[test]
    fn one_name_at_two_widths_is_one_variable() {
        let mut p = TermPool::new();
        let narrow = p.var("x", 8);
        let wide = p.var("x", 32);
        let z = p.zext(narrow, 32);
        let e = p.binary(BinOp::Add, wide, z);
        let mut vars = HashMap::new();
        p.variables(e, &mut vars);
        assert_eq!(vars, HashMap::from([("x".to_string(), 32)]));
    }

    #[test]
    fn fresh_vars_are_unique() {
        let mut p = TermPool::new();
        let a = p.fresh_var("sym", 32);
        let b = p.fresh_var("sym", 32);
        assert_ne!(a, b);
    }
}
