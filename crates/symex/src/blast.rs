//! Bit-blasting: lowering bit-vector terms to CNF (Tseitin encoding).
//!
//! Each term becomes a vector of SAT literals, one per bit; adders are
//! ripple-carry, multipliers shift-and-add, variable shifts barrel
//! shifters. Formulas arising from firmware path constraints are small,
//! so clarity is preferred over encoding minimality.

use crate::expr::{BinOp, Term, TermId, TermPool, UnOp};
use crate::sat::{Lit, SatResult, SatSolver};
use std::collections::HashMap;

/// A bit-blasting context over one SAT instance.
pub struct Blaster<'p> {
    pool: &'p TermPool,
    /// The SAT solver being filled.
    pub sat: SatSolver,
    bits: HashMap<TermId, Vec<Lit>>,
    var_bits: HashMap<String, Vec<Lit>>,
    tru: Lit,
}

impl<'p> Blaster<'p> {
    /// Creates a blasting context for terms of `pool`.
    pub fn new(pool: &'p TermPool) -> Self {
        let mut sat = SatSolver::new();
        let t = sat.new_var();
        let tru = Lit::pos(t);
        sat.add_clause(&[tru]);
        Blaster {
            pool,
            sat,
            bits: HashMap::new(),
            var_bits: HashMap::new(),
            tru,
        }
    }

    fn lit_const(&self, b: bool) -> Lit {
        if b {
            self.tru
        } else {
            self.tru.negate()
        }
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
    }

    fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.tru {
            return b;
        }
        if b == self.tru {
            return a;
        }
        if a == self.tru.negate() || b == self.tru.negate() {
            return self.tru.negate();
        }
        let y = self.fresh();
        self.sat.add_clause(&[a.negate(), b.negate(), y]);
        self.sat.add_clause(&[a, y.negate()]);
        self.sat.add_clause(&[b, y.negate()]);
        y
    }

    fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        self.and_gate(a.negate(), b.negate()).negate()
    }

    fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.tru {
            return b.negate();
        }
        if a == self.tru.negate() {
            return b;
        }
        if b == self.tru {
            return a.negate();
        }
        if b == self.tru.negate() {
            return a;
        }
        let y = self.fresh();
        self.sat.add_clause(&[a.negate(), b.negate(), y.negate()]);
        self.sat.add_clause(&[a, b, y.negate()]);
        self.sat.add_clause(&[a.negate(), b, y]);
        self.sat.add_clause(&[a, b.negate(), y]);
        y
    }

    /// `c ? t : e` on single literals.
    fn mux_gate(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if c == self.tru {
            return t;
        }
        if c == self.tru.negate() {
            return e;
        }
        if t == e {
            return t;
        }
        let a = self.and_gate(c, t);
        let b = self.and_gate(c.negate(), e);
        self.or_gate(a, b)
    }

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor_gate(a, b);
        let sum = self.xor_gate(axb, cin);
        let ab = self.and_gate(a, b);
        let axb_c = self.and_gate(axb, cin);
        let carry = self.or_gate(ab, axb_c);
        (sum, carry)
    }

    fn add_vec(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        out
    }

    /// Unsigned `a < b` as a literal (via subtraction borrow).
    fn ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // a < b  <=>  a + ~b + 1 has carry-out 0.
        let nb: Vec<Lit> = b.iter().map(|l| l.negate()).collect();
        let mut carry = self.tru;
        for i in 0..a.len() {
            let (_, c) = self.full_adder(a[i], nb[i], carry);
            carry = c;
        }
        carry.negate()
    }

    /// Blasts a term to its bit vector (LSB first), memoized.
    pub fn blast(&mut self, id: TermId) -> Vec<Lit> {
        if let Some(b) = self.bits.get(&id) {
            return b.clone();
        }
        let w = self.pool.width(id) as usize;
        let result: Vec<Lit> = match self.pool.term(id).clone() {
            Term::Const { value, .. } => (0..w)
                .map(|i| self.lit_const((value >> i) & 1 == 1))
                .collect(),
            Term::Var { name, .. } => {
                // One name is one variable: at a narrower width it is
                // the low bits of the widest, as `TermPool::eval` masks.
                let have = self.var_bits.get(&name).map_or(0, Vec::len);
                let grow: Vec<Lit> = (have..w).map(|_| self.fresh()).collect();
                let bits = self.var_bits.entry(name).or_default();
                bits.extend(grow);
                bits[..w].to_vec()
            }
            Term::Unary { op, a } => {
                let av = self.blast(a);
                match op {
                    UnOp::Not => av.iter().map(|l| l.negate()).collect(),
                    UnOp::Neg => {
                        // -a = ~a + 1
                        let na: Vec<Lit> = av.iter().map(|l| l.negate()).collect();
                        let zeros: Vec<Lit> = vec![self.lit_const(false); w];
                        self.add_vec(&na, &zeros, self.tru)
                    }
                }
            }
            Term::Binary { op, a, b } => {
                let av = self.blast(a);
                let bv = self.blast(b);
                match op {
                    BinOp::Add => self.add_vec(&av, &bv, self.lit_const(false)),
                    BinOp::Sub => {
                        let nb: Vec<Lit> = bv.iter().map(|l| l.negate()).collect();
                        self.add_vec(&av, &nb, self.tru)
                    }
                    BinOp::Mul => {
                        let mut acc: Vec<Lit> = vec![self.lit_const(false); w];
                        for (i, &bi) in bv.iter().enumerate() {
                            // partial = (a << i) & replicate(bi)
                            let mut partial = vec![self.lit_const(false); w];
                            for j in 0..(w - i) {
                                partial[i + j] = self.and_gate(av[j], bi);
                            }
                            acc = self.add_vec(&acc, &partial, self.lit_const(false));
                        }
                        acc
                    }
                    BinOp::And => av
                        .iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.and_gate(x, y))
                        .collect(),
                    BinOp::Or => av
                        .iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.or_gate(x, y))
                        .collect(),
                    BinOp::Xor => av
                        .iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.xor_gate(x, y))
                        .collect(),
                    BinOp::Shl | BinOp::Lshr | BinOp::Ashr => self.barrel_shift(op, &av, &bv),
                    BinOp::Eq => {
                        let mut acc = self.tru;
                        for (x, y) in av.iter().zip(&bv) {
                            let eq = self.xor_gate(*x, *y).negate();
                            acc = self.and_gate(acc, eq);
                        }
                        vec![acc]
                    }
                    BinOp::Ult => vec![self.ult(&av, &bv)],
                    BinOp::Slt => {
                        // Flip sign bits, then unsigned compare.
                        let mut af = av.clone();
                        let mut bf = bv.clone();
                        let n = af.len();
                        af[n - 1] = af[n - 1].negate();
                        bf[n - 1] = bf[n - 1].negate();
                        vec![self.ult(&af, &bf)]
                    }
                }
            }
            Term::Ite { c, t, e } => {
                let cv = self.blast(c)[0];
                let tv = self.blast(t);
                let ev = self.blast(e);
                tv.iter()
                    .zip(&ev)
                    .map(|(&x, &y)| self.mux_gate(cv, x, y))
                    .collect()
            }
            Term::Extract { a, hi: _, lo } => {
                let av = self.blast(a);
                av[lo as usize..lo as usize + w].to_vec()
            }
            Term::Concat { hi, lo } => {
                let mut lv = self.blast(lo);
                lv.extend(self.blast(hi));
                lv
            }
            Term::ZExt { a, .. } => {
                let mut av = self.blast(a);
                while av.len() < w {
                    av.push(self.lit_const(false));
                }
                av
            }
        };
        debug_assert_eq!(result.len(), w);
        self.bits.insert(id, result.clone());
        result
    }

    fn barrel_shift(&mut self, op: BinOp, a: &[Lit], sh: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let fill_top = if op == BinOp::Ashr {
            a[w - 1]
        } else {
            self.lit_const(false)
        };
        let mut cur = a.to_vec();
        // Stages for shift-amount bits that are < bits needed to cover w.
        let stages = 64 - (w as u64 - 1).leading_zeros() as usize;
        for (s, &sbit) in sh.iter().enumerate().take(stages) {
            let amount = 1usize << s;
            let mut next = vec![self.lit_const(false); w];
            for i in 0..w {
                let shifted = match op {
                    BinOp::Shl => {
                        if i >= amount {
                            cur[i - amount]
                        } else {
                            self.lit_const(false)
                        }
                    }
                    BinOp::Lshr => {
                        if i + amount < w {
                            cur[i + amount]
                        } else {
                            self.lit_const(false)
                        }
                    }
                    BinOp::Ashr => {
                        if i + amount < w {
                            cur[i + amount]
                        } else {
                            fill_top
                        }
                    }
                    _ => unreachable!(),
                };
                next[i] = self.mux_gate(sbit, shifted, cur[i]);
            }
            cur = next;
        }
        // Any higher shift bit set => result is all-fill (0 or sign).
        let mut high = self.lit_const(false);
        for &sbit in sh.iter().skip(stages) {
            high = self.or_gate(high, sbit);
        }
        if high != self.lit_const(false) {
            let fill = if op == BinOp::Ashr {
                fill_top
            } else {
                self.lit_const(false)
            };
            cur = cur.iter().map(|&b| self.mux_gate(high, fill, b)).collect();
        }
        cur
    }

    /// Asserts that a 1-bit term is true.
    pub fn assert_true(&mut self, id: TermId) {
        debug_assert_eq!(self.pool.width(id), 1);
        let b = self.blast(id);
        self.sat.add_clause(&[b[0]]);
    }

    /// Solves; on SAT returns a model mapping variable names to values.
    pub fn solve(&mut self) -> Option<HashMap<String, u64>> {
        match self.sat.solve() {
            SatResult::Unsat => None,
            SatResult::Sat(assignment) => {
                let mut env = HashMap::new();
                for (name, bits) in &self.var_bits {
                    let mut v = 0u64;
                    for (i, l) in bits.iter().enumerate() {
                        let bit = assignment[l.var() as usize] ^ l.is_neg();
                        if bit {
                            v |= 1 << i;
                        }
                    }
                    env.insert(name.clone(), v);
                }
                Some(env)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    /// Checks a 1-bit formula for satisfiability and verifies the model
    /// by concrete evaluation.
    fn check(pool: &TermPool, assertion: TermId) -> Option<HashMap<String, u64>> {
        let mut b = Blaster::new(pool);
        b.assert_true(assertion);
        let model = b.solve()?;
        assert_eq!(
            pool.eval(assertion, &model),
            1,
            "model must satisfy the formula"
        );
        Some(model)
    }

    #[test]
    fn solve_linear_equation() {
        // x + 5 == 12  =>  x == 7
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let c5 = p.constant(5, 32);
        let c12 = p.constant(12, 32);
        let sum = p.binary(BinOp::Add, x, c5);
        let eq = p.binary(BinOp::Eq, sum, c12);
        let m = check(&p, eq).expect("sat");
        assert_eq!(m["x"], 7);
    }

    #[test]
    fn unsat_contradiction() {
        let mut p = TermPool::new();
        let x = p.var("x", 16);
        let c1 = p.constant(1, 16);
        let c2 = p.constant(2, 16);
        let e1 = p.binary(BinOp::Eq, x, c1);
        let e2 = p.binary(BinOp::Eq, x, c2);
        let both = p.and_cond(e1, e2);
        assert!(check(&p, both).is_none());
    }

    #[test]
    fn multiplication_inverts() {
        // x * 3 == 21 over 8 bits
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let c3 = p.constant(3, 8);
        let c21 = p.constant(21, 8);
        let prod = p.binary(BinOp::Mul, x, c3);
        let eq = p.binary(BinOp::Eq, prod, c21);
        let m = check(&p, eq).expect("sat");
        // 8-bit: x=7 or x=... 3x=21 mod 256: x=7 or 7+256/gcd(3,256)=no
        // other; 3 is invertible mod 256, so x must be 7... times inverse.
        assert_eq!((m["x"] * 3) & 0xff, 21);
    }

    #[test]
    fn unsigned_and_signed_comparisons_differ() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let c1 = p.constant(1, 8);
        // x < 1 unsigned and x != 0 is unsat.
        let ult = p.binary(BinOp::Ult, x, c1);
        let zero = p.constant(0, 8);
        let eq0 = p.binary(BinOp::Eq, x, zero);
        let ne0 = p.not_cond(eq0);
        let both = p.and_cond(ult, ne0);
        assert!(check(&p, both).is_none());
        // x < 1 signed with x != 0 is sat (e.g. x = -5).
        let slt = p.binary(BinOp::Slt, x, c1);
        let both = p.and_cond(slt, ne0);
        let m = check(&p, both).expect("sat");
        assert!(
            m["x"] >= 0x80 || m["x"] == 0,
            "negative 8-bit value, got {:#x}",
            m["x"]
        );
    }

    #[test]
    fn variable_shift_solves() {
        // (1 << s) == 32  =>  s == 5
        let mut p = TermPool::new();
        let s = p.var("s", 8);
        let one = p.constant(1, 8);
        let c32 = p.constant(32, 8);
        let sh = p.binary(BinOp::Shl, one, s);
        let eq = p.binary(BinOp::Eq, sh, c32);
        let m = check(&p, eq).expect("sat");
        assert_eq!(m["s"], 5);
    }

    #[test]
    fn ashr_fills_with_sign() {
        // (x >>> 4) == 0xF8  with 8-bit x  => x has sign bit set.
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let c4 = p.constant(4, 8);
        let cf8 = p.constant(0xf8, 8);
        let sh = p.binary(BinOp::Ashr, x, c4);
        let eq = p.binary(BinOp::Eq, sh, cf8);
        let m = check(&p, eq).expect("sat");
        assert!(m["x"] & 0x80 != 0);
        assert_eq!((m["x"] >> 4) | 0xf0, 0xf8 | 0xf0);
    }

    #[test]
    fn ite_constraints() {
        // (c ? x : y) == 9 && x == 1 && y == 9  =>  c must be false.
        let mut p = TermPool::new();
        let c = p.var("c", 1);
        let x = p.var("x", 8);
        let y = p.var("y", 8);
        let sel = p.ite(c, x, y);
        let c9 = p.constant(9, 8);
        let c1 = p.constant(1, 8);
        let e1 = p.binary(BinOp::Eq, sel, c9);
        let e2 = p.binary(BinOp::Eq, x, c1);
        let e3 = p.binary(BinOp::Eq, y, c9);
        let mut all = p.and_cond(e1, e2);
        all = p.and_cond(all, e3);
        let m = check(&p, all).expect("sat");
        assert_eq!(m["c"], 0);
    }

    #[test]
    fn extract_concat_roundtrip_constraint() {
        // {hi, lo} == 0xBEEF => hi == 0xBE, lo == 0xEF.
        let mut p = TermPool::new();
        let hi = p.var("hi", 8);
        let lo = p.var("lo", 8);
        let cc = p.concat(hi, lo);
        let beef = p.constant(0xbeef, 16);
        let eq = p.binary(BinOp::Eq, cc, beef);
        let m = check(&p, eq).expect("sat");
        assert_eq!(m["hi"], 0xbe);
        assert_eq!(m["lo"], 0xef);
    }

    #[test]
    fn one_name_at_two_widths_shares_its_low_bits() {
        // x@8 is the low byte of x@32, whichever is blasted first.
        for narrow_first in [true, false] {
            let mut p = TermPool::new();
            let (narrow, wide) = if narrow_first {
                (p.var("x", 8), p.var("x", 32))
            } else {
                let w = p.var("x", 32);
                (p.var("x", 8), w)
            };
            let c12 = p.constant(0x12, 8);
            let c34 = p.constant(0x1234, 32);
            let lo = p.binary(BinOp::Eq, narrow, c12);
            let full = p.binary(BinOp::Eq, wide, c34);
            let both = if narrow_first {
                p.and_cond(lo, full)
            } else {
                p.and_cond(full, lo)
            };
            assert!(check(&p, both).is_none(), "0x1234 has low byte 0x34");
            let c5612 = p.constant(0x5612, 32);
            let full = p.binary(BinOp::Eq, wide, c5612);
            let both = p.and_cond(lo, full);
            assert_eq!(check(&p, both).expect("sat")["x"], 0x5612);
        }
    }

    #[test]
    fn random_differential_against_eval() {
        let mut rng = hardsnap_util::Rng::seed_from_u64(99);
        for _ in 0..20 {
            let mut p = TermPool::new();
            let x = p.var("x", 16);
            let y = p.var("y", 16);
            // Build a random expression tree of depth 3.
            let build = |p: &mut TermPool, rng: &mut hardsnap_util::Rng| {
                let ops = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Xor,
                ];
                let mut t = if rng.gen_bool(0.5) { x } else { y };
                for _ in 0..3 {
                    let op = ops[rng.gen_range(0..ops.len())];
                    let rhs = match rng.gen_range(0..3) {
                        0 => x,
                        1 => y,
                        _ => p.constant(rng.gen::<u16>() as u64, 16),
                    };
                    t = p.binary(op, t, rhs);
                }
                t
            };
            let t = build(&mut p, &mut rng);
            // Pick concrete inputs, compute expected output, assert
            // equality, and confirm the solver finds a model.
            let cx = rng.gen::<u16>() as u64;
            let cy = rng.gen::<u16>() as u64;
            let mut env = HashMap::new();
            env.insert("x".to_string(), cx);
            env.insert("y".to_string(), cy);
            let expected = p.eval(t, &env);
            let cxx = p.constant(cx, 16);
            let cyy = p.constant(cy, 16);
            let cexp = p.constant(expected, 16);
            let ex = p.binary(BinOp::Eq, x, cxx);
            let ey = p.binary(BinOp::Eq, y, cyy);
            let et = p.binary(BinOp::Eq, t, cexp);
            let mut all = p.and_cond(ex, ey);
            all = p.and_cond(all, et);
            assert!(
                check(&p, all).is_some(),
                "consistent assignment must be sat"
            );
        }
    }
}
