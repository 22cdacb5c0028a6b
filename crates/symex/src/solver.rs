//! High-level bit-vector solver API over the bit-blaster and SAT core.
//!
//! This is the component the symbolic executor talks to. It answers two
//! kinds of question:
//!
//! - **Model queries** ([`BvSolver::check`], [`BvSolver::solutions`]):
//!   a satisfying assignment of a whole path constraint, for test cases
//!   and concretization (paper §III-B). Their models feed the canonical
//!   digest, so they always see every constraint.
//! - **Feasibility queries** ([`crate::Executor::feasible`]): yes or no,
//!   for a branch direction or an assertion outcome. These are answered
//!   on the independent slice of the path constraint (the constraints
//!   that share a variable with the condition, directly or through a
//!   chain of other constraints) from a cache of earlier answers, as
//!   KLEE does (Cadar, Dunbar and Engler, OSDI 2008). Only a cache miss
//!   runs the decision procedure, on the slice alone.
//!
//! A variable is its name, as the bit-blaster keys it: one name at two
//! widths is one variable. Slicing is exact for a *live* state, whose
//! constraints are satisfiable by construction (see [`crate::exec`]):
//! the constraints outside the slice share no variable with the slice
//! or the condition, so any model of them combines with a model of
//! `slice ∧ cond`. The cache lives in the executor, beside the pool
//! whose [`TermId`]s it keys, one per worker.

use crate::blast::Blaster;
use crate::expr::{BinOp, TermId, TermPool};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// A satisfying assignment (variable name → value).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<String, u64>,
}

impl Model {
    /// Value of a variable (unconstrained variables default to 0, the
    /// same completion rule [`TermPool::eval`] uses).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Evaluates an arbitrary term under this model.
    pub fn eval(&self, pool: &TermPool, term: TermId) -> u64 {
        pool.eval(term, &self.values)
    }

    /// Iterates over assigned variables.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

impl From<HashMap<String, u64>> for Model {
    fn from(values: HashMap<String, u64>) -> Self {
        Model { values }
    }
}

/// Query outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryResult {
    /// Satisfiable with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
}

impl QueryResult {
    /// True if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, QueryResult::Sat(_))
    }
}

/// Cumulative solver statistics (reported by the evaluation harnesses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Questions answered, model and feasibility queries alike.
    pub queries: u64,
    /// Of which satisfiable.
    pub sat: u64,
    /// Of which unsatisfiable.
    pub unsat: u64,
    /// Of which answered from the feasibility cache; the decision
    /// procedure ran `queries - cached` times.
    pub cached: u64,
    /// Total time in microseconds: slicing, cache lookup and the
    /// decision procedure.
    pub time_us: u64,
}

/// The bit-vector decision procedure (bit-blasting + CDCL).
#[derive(Clone, Debug, Default)]
pub struct BvSolver {
    /// Statistics accumulated across queries.
    pub stats: SolverStats,
    /// Nanoseconds not yet counted in `stats.time_us`, so a run of
    /// sub-microsecond cache hits still adds up.
    rem_ns: u64,
}

impl BvSolver {
    /// Creates a solver.
    pub fn new() -> Self {
        BvSolver::default()
    }

    /// Checks the conjunction of 1-bit `assertions`.
    pub fn check(&mut self, pool: &TermPool, assertions: &[TermId]) -> QueryResult {
        let start = Instant::now();
        let result = decide(pool, assertions);
        self.count(result.is_sat(), start);
        result
    }

    /// Counts one answered question that started at `start`.
    fn count(&mut self, sat: bool, start: Instant) {
        self.stats.queries += 1;
        if sat {
            self.stats.sat += 1;
        } else {
            self.stats.unsat += 1;
        }
        let ns = self.rem_ns + start.elapsed().as_nanos() as u64;
        self.stats.time_us += ns / 1000;
        self.rem_ns = ns % 1000;
    }

    /// Enumerates up to `max` distinct values of `term` under
    /// `assertions` (the exhaustive concretization policy). Values are
    /// returned in discovery order.
    pub fn solutions(
        &mut self,
        pool: &mut TermPool,
        assertions: &[TermId],
        term: TermId,
        max: usize,
    ) -> Vec<u64> {
        let mut found = Vec::new();
        let mut constraints = assertions.to_vec();
        while found.len() < max {
            match self.check(pool, &constraints) {
                QueryResult::Unsat => break,
                QueryResult::Sat(model) => {
                    let v = model.eval(pool, term);
                    found.push(v);
                    let w = pool.width(term);
                    let cv = pool.constant(v, w);
                    let eq = pool.binary(BinOp::Eq, term, cv);
                    let ne = pool.not_cond(eq);
                    constraints.push(ne);
                }
            }
        }
        found
    }
}

/// The decision procedure: bit-blasts `assertions` into a fresh CDCL
/// instance. A constant-false assertion answers without blasting.
fn decide(pool: &TermPool, assertions: &[TermId]) -> QueryResult {
    if assertions.iter().any(|&a| pool.as_const(a) == Some(0)) {
        return QueryResult::Unsat;
    }
    let mut blaster = Blaster::new(pool);
    for &a in assertions {
        if pool.as_const(a) != Some(1) {
            blaster.assert_true(a);
        }
    }
    match blaster.solve() {
        Some(env) => QueryResult::Sat(Model { values: env }),
        None => QueryResult::Unsat,
    }
}

/// One executor's feasibility answers: each question is sliced to the
/// constraints that can matter for its condition, and answered once
/// per distinct slice and condition.
///
/// It keys terms by [`TermId`], so it lives beside the one [`TermPool`]
/// that issued them and never sees another pool's terms. It grows by at
/// most one answer per question and one variable set per distinct term
/// sliced, as the pool grows per term; nothing is evicted.
#[derive(Default)]
pub(crate) struct Feasibility {
    /// Variable names, interned to small ids.
    names: HashMap<String, u32>,
    /// Variable ids of every term sliced so far.
    vars: HashMap<TermId, Box<[u32]>>,
    /// Sorted slice followed by the condition → satisfiable.
    answers: HashMap<Box<[TermId]>, bool>,
}

impl Feasibility {
    /// Is `constraints ∧ cond` satisfiable? `constraints` must be
    /// satisfiable on their own; the answer is then exactly that of
    /// [`BvSolver::check`] on `constraints ∪ {cond}`. Counts one question
    /// in `solver`'s stats, and one cached answer if the decision
    /// procedure did not run.
    pub(crate) fn feasible(
        &mut self,
        pool: &TermPool,
        solver: &mut BvSolver,
        constraints: &[TermId],
        cond: TermId,
    ) -> bool {
        let start = Instant::now();
        let mut key = self.slice(pool, constraints, cond);
        key.sort_unstable();
        key.dedup();
        key.push(cond);
        let sat = match self.answers.get(key.as_slice()) {
            Some(&sat) => {
                solver.stats.cached += 1;
                sat
            }
            None => {
                let sat = decide(pool, &key).is_sat();
                self.answers.insert(key.into(), sat);
                sat
            }
        };
        solver.count(sat, start);
        sat
    }

    /// The constraints that share a variable with `cond`, directly or
    /// through a chain of other constraints, plus every variable-free
    /// one but the constant true (so a constant false still answers
    /// UNSAT), in `constraints` order. A worklist over variables visits
    /// each constraint at most once.
    fn slice(&mut self, pool: &TermPool, constraints: &[TermId], cond: TermId) -> Vec<TermId> {
        for &t in constraints.iter().chain([&cond]) {
            self.intern_vars(pool, t);
        }
        let mut taken = vec![false; constraints.len()];
        let mut users: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, c) in constraints.iter().enumerate() {
            let vars = &self.vars[c];
            if vars.is_empty() {
                taken[i] = pool.as_const(*c) != Some(1);
            }
            for &v in vars.iter() {
                users.entry(v).or_default().push(i);
            }
        }
        let mut seen: HashSet<u32> = self.vars[&cond].iter().copied().collect();
        let mut work: Vec<u32> = seen.iter().copied().collect();
        while let Some(v) = work.pop() {
            for &i in users.get(&v).into_iter().flatten() {
                if !taken[i] {
                    taken[i] = true;
                    for &w in self.vars[&constraints[i]].iter() {
                        if seen.insert(w) {
                            work.push(w);
                        }
                    }
                }
            }
        }
        constraints
            .iter()
            .zip(taken)
            .filter_map(|(&c, t)| t.then_some(c))
            .collect()
    }

    /// Memoizes the variable set of `t`, by name (see
    /// [`TermPool::variables`]).
    fn intern_vars(&mut self, pool: &TermPool, t: TermId) {
        if self.vars.contains_key(&t) {
            return;
        }
        let mut found = HashMap::new();
        pool.variables(t, &mut found);
        let ids = found
            .into_keys()
            .map(|name| {
                let next = self.names.len() as u32;
                *self.names.entry(name).or_insert(next)
            })
            .collect();
        self.vars.insert(t, ids);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Concretization, Executor};
    use crate::expr::BinOp;
    use hardsnap_util::prop::any;
    use hardsnap_util::{prop_check, Rng};

    #[test]
    fn check_sat_and_model() {
        let mut p = TermPool::new();
        let mut s = BvSolver::new();
        let x = p.var("x", 32);
        let c = p.constant(0x1000, 32);
        let lt = p.binary(BinOp::Ult, x, c);
        let c0 = p.constant(0xf00, 32);
        let gt = p.binary(BinOp::Ult, c0, x);
        match s.check(&p, &[lt, gt]) {
            QueryResult::Sat(m) => {
                let v = m.get("x");
                assert!(v > 0xf00 && v < 0x1000);
            }
            QueryResult::Unsat => panic!(),
        }
        assert_eq!(s.stats.queries, 1);
        assert_eq!(s.stats.sat, 1);
    }

    #[test]
    fn constant_false_shortcircuits() {
        let mut p = TermPool::new();
        let mut s = BvSolver::new();
        let f = p.fls();
        assert_eq!(s.check(&p, &[f]), QueryResult::Unsat);
        assert_eq!(s.stats.unsat, 1);
    }

    #[test]
    fn solutions_enumerates_bounded() {
        // x & 0xFC == 0x10  =>  x in {0x10, 0x11, 0x12, 0x13}
        let mut p = TermPool::new();
        let mut s = BvSolver::new();
        let x = p.var("x", 8);
        let mask = p.constant(0xfc, 8);
        let c10 = p.constant(0x10, 8);
        let masked = p.binary(BinOp::And, x, mask);
        let eq = p.binary(BinOp::Eq, masked, c10);
        let mut sols = s.solutions(&mut p, &[eq], x, 10);
        sols.sort_unstable();
        assert_eq!(sols, vec![0x10, 0x11, 0x12, 0x13]);
    }

    #[test]
    fn solutions_respects_max() {
        let mut p = TermPool::new();
        let mut s = BvSolver::new();
        let x = p.var("x", 8);
        let t = p.tru();
        let _ = t;
        let sols = s.solutions(&mut p, &[], x, 3);
        assert_eq!(sols.len(), 3);
        let unique: std::collections::HashSet<_> = sols.iter().collect();
        assert_eq!(unique.len(), 3, "values must be distinct");
    }

    #[test]
    fn model_eval_of_composite_terms() {
        let mut p = TermPool::new();
        let mut s = BvSolver::new();
        let x = p.var("x", 16);
        let c3 = p.constant(3, 16);
        let c30 = p.constant(30, 16);
        let e = p.binary(BinOp::Mul, x, c3);
        let eq = p.binary(BinOp::Eq, e, c30);
        match s.check(&p, &[eq]) {
            QueryResult::Sat(m) => {
                assert_eq!(m.eval(&p, e), 30);
            }
            QueryResult::Unsat => panic!(),
        }
    }

    #[test]
    fn slice_follows_chains_of_shared_names() {
        let mut p = TermPool::new();
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| p.var(n, 8));
        let k = p.constant(3, 8);
        let xy = p.binary(BinOp::Ult, x, y);
        let yz = p.binary(BinOp::Eq, y, z);
        let w3 = p.binary(BinOp::Ult, w, k);
        let tru = p.tru();
        // `x` at 16 bits is the same variable as `x` at 8.
        let x16 = p.var("x", 16);
        let k16 = p.constant(300, 16);
        let wide = p.binary(BinOp::Ult, k16, x16);
        let cond = p.binary(BinOp::Eq, z, k);
        let mut f = Feasibility::default();
        // z reaches y, y reaches x, x reaches x@16; w and true stay out.
        assert_eq!(
            f.slice(&p, &[xy, w3, tru, yz, wide], cond),
            vec![xy, yz, wide]
        );
        // A variable-free constraint other than true always stays.
        let fls = p.fls();
        assert_eq!(f.slice(&p, &[w3, fls], cond), vec![fls]);
    }

    /// Two disjoint groups of 8-bit views of six names; `a` is read at 8
    /// and 16 bits, so one name appears at two widths.
    fn views(p: &mut TermPool) -> [Vec<TermId>; 2] {
        let a16 = p.var("a", 16);
        let first = vec![
            p.var("a", 8),
            p.extract(a16, 7, 0),
            p.extract(a16, 15, 8),
            p.var("b", 8),
        ];
        let second = ["c", "d", "e", "f"].map(|n| p.var(n, 8)).to_vec();
        [first, second]
    }

    /// A random condition over one or two views, most often compared
    /// with a constant within one of its value under `env`, so that
    /// equalities pin values and chains of them matter.
    fn atom(
        p: &mut TermPool,
        rng: &mut Rng,
        views: &[TermId],
        env: &HashMap<String, u64>,
    ) -> TermId {
        let pick = |rng: &mut Rng| views[rng.gen_range(0..views.len())];
        let x = pick(rng);
        let lhs = match rng.gen_range(0..4) {
            0 => x,
            1 | 2 => {
                let y = pick(rng);
                let op = [BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::And][rng.gen_range(0..4usize)];
                p.binary(op, x, y)
            }
            _ => {
                let k = p.constant(rng.gen_range(0u64..256), 8);
                p.binary(BinOp::Add, x, k)
            }
        };
        let rhs = if rng.gen_bool(0.25) {
            pick(rng)
        } else {
            let near = p.eval(lhs, env) + [0, 0, 1, 255][rng.gen_range(0..4usize)];
            p.constant(near, 8)
        };
        let op = [BinOp::Eq, BinOp::Eq, BinOp::Ult, BinOp::Slt][rng.gen_range(0..4usize)];
        let c = p.binary(op, lhs, rhs);
        if rng.gen_bool(0.3) {
            p.not_cond(c)
        } else {
            c
        }
    }

    /// A random assignment to the six names (`a` has 16 bits).
    fn assignment(rng: &mut Rng) -> HashMap<String, u64> {
        let mut env: HashMap<String, u64> = ["b", "c", "d", "e", "f"]
            .map(|n| (n.to_string(), rng.gen_range(0u64..256)))
            .into();
        env.insert("a".to_string(), rng.gen_range(0u64..1 << 16));
        env
    }

    #[test]
    fn feasibility_agrees_with_the_full_check() {
        prop_check!(cases = 256, (seed in any::<u64>(), n in 0usize..16) => {
            let mut rng = Rng::seed_from_u64(seed);
            let mut ex = Executor::new(Concretization::Minimal);
            let views = views(&mut ex.pool);
            let env = assignment(&mut rng);
            // Satisfiable by construction: keep only what `env` makes
            // true. Constant-true constraints ride along.
            let mut cs = Vec::new();
            for _ in 0..n {
                let c = if rng.gen_bool(0.15) {
                    ex.pool.tru()
                } else {
                    let group = &views[rng.gen_range(0..2usize)];
                    atom(&mut ex.pool, &mut rng, group, &env)
                };
                if ex.pool.eval(c, &env) == 1 {
                    cs.push(c);
                }
            }
            // Questions on prefixes of one path, as a state grows, so
            // later ones can hit answers cached by earlier ones.
            for _ in 0..8 {
                let path = &cs[..rng.gen_range(0..cs.len() + 1)];
                let near = if rng.gen_bool(0.5) { env.clone() } else { assignment(&mut rng) };
                let group = &views[rng.gen_range(0..2usize)];
                let cond = atom(&mut ex.pool, &mut rng, group, &near);
                let not = ex.pool.not_cond(cond);
                for q in [cond, not, cond] {
                    let mut all = path.to_vec();
                    all.push(q);
                    let want = BvSolver::new().check(&ex.pool, &all).is_sat();
                    assert_eq!(ex.feasible(path, q), want, "{path:?} ∧ {q:?}");
                }
            }
            let st = ex.solver.stats;
            assert_eq!(st.queries, 24);
            assert_eq!(st.sat + st.unsat, 24);
            assert!(st.cached >= 8, "a repeated question is a cache hit");
        });
    }
}
