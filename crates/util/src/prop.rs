//! A minimal, zero-dependency property-testing harness.
//!
//! [`prop_check!`](crate::prop_check!) runs a property over N generated cases from a fixed
//! seed. On failure it shrinks integer and vector inputs by halving,
//! then panics with the *case seed* so the exact failing input can be
//! reproduced by running the same property with `seed = <printed>` and
//! `cases = 1`.
//!
//! ```
//! use hardsnap_util::prop::{vec_of, Strategy};
//! use hardsnap_util::prop_check;
//!
//! prop_check!(cases = 64, seed = 0x5EED, (xs in vec_of(0u32..100, 0..8)) => {
//!     let doubled: Vec<u32> = xs.iter().map(|x| x * 2).collect();
//!     assert!(doubled.iter().all(|d| d % 2 == 0));
//! });
//! ```

use crate::rng::{FromRng, Rng};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A value generator with optional shrinking.
pub trait Strategy {
    /// The generated type.
    type Value: Clone + Debug;

    /// Generates one value from the deterministic stream.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Candidate simplifications of a failing value, simplest first.
    /// The default has no shrinking.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps the generated value through `f` (no shrinking across the
    /// map — shrink the source strategy instead where it matters).
    fn prop_map<U: Clone + Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Clone + Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut Rng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy yielding a constant.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut Rng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int(self.start, *value)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int(*self.start(), *value)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Halving ladder towards `low` (QuickCheck-style): `low`, then values
/// approaching `value` by successively halved gaps, ending at
/// `value - 1`. Greedy re-shrinking over this list converges like a
/// binary search for the failure boundary.
fn shrink_int<T>(low: T, value: T) -> Vec<T>
where
    T: Copy + PartialEq + ShrinkHalf,
{
    let mut out = Vec::new();
    if value == low {
        return out;
    }
    out.push(low);
    let mut cand = T::half_between(low, value);
    while cand != value && out.last() != Some(&cand) {
        out.push(cand);
        cand = T::half_between(cand, value);
    }
    out
}

/// Integer halving used by the shrinker.
pub trait ShrinkHalf: PartialEq + Sized {
    /// Midpoint between `low` and `v` (rounded toward `low`).
    fn half_between(low: Self, v: Self) -> Self;
}

macro_rules! impl_shrink_half_unsigned {
    ($($t:ty),*) => {$(
        impl ShrinkHalf for $t {
            fn half_between(low: Self, v: Self) -> Self {
                low + (v - low) / 2
            }
        }
    )*};
}

impl_shrink_half_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_shrink_half_signed {
    ($($t:ty),*) => {$(
        impl ShrinkHalf for $t {
            fn half_between(low: Self, v: Self) -> Self {
                // Difference computed widened so MIN..MAX spans don't
                // overflow.
                low.wrapping_add(((v as i128 - low as i128) / 2) as Self)
            }
        }
    )*};
}

impl_shrink_half_signed!(i8, i16, i32, i64, isize);

/// Full-domain strategy for any [`FromRng`] integer/array type.
pub fn any<T: FromRng + Clone + Debug>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// See [`any`].
#[derive(Clone, Debug)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: FromRng + Clone + Debug> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        rng.gen()
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        value.shrink_from()
    }
}

/// `Vec` strategy: element strategy + length range. Shrinks by halving
/// the length (dropping the tail), then element-wise.
pub fn vec_of<S: Strategy>(element: S, len: Range<usize>) -> VecOf<S> {
    VecOf { element, len }
}

/// See [`vec_of`].
pub struct VecOf<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let min = self.len.start;
        // Halve the length while staying in bounds.
        if value.len() > min {
            out.push(value[..min.max(value.len() / 2)].to_vec());
            out.push(value[..value.len() - 1].to_vec());
        }
        // Shrink each element in place (first shrink candidate only, to
        // bound the search).
        for (i, v) in value.iter().enumerate() {
            for cand in self.element.shrink(v).into_iter().take(1) {
                let mut copy = value.clone();
                copy[i] = cand;
                out.push(copy);
            }
        }
        out
    }
}

/// Uniformly picks one of the given (cloneable) items.
pub fn select<T: Clone + Debug>(items: &[T]) -> Select<T> {
    assert!(!items.is_empty(), "select: empty choice set");
    Select {
        items: items.to_vec(),
    }
}

/// See [`select`].
#[derive(Clone, Debug)]
pub struct Select<T> {
    items: Vec<T>,
}

impl<T: Clone + Debug> Strategy for Select<T> {
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        self.items[rng.gen_range(0..self.items.len())].clone()
    }
}

/// Ad-hoc strategy from a generation closure (no shrinking) — the
/// escape hatch for recursive or dependent generators.
pub fn from_fn<T: Clone + Debug, F: Fn(&mut Rng) -> T>(f: F) -> FromFn<F> {
    FromFn(f)
}

/// See [`from_fn`].
pub struct FromFn<F>(F);

impl<T: Clone + Debug, F: Fn(&mut Rng) -> T> Strategy for FromFn<F> {
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        (self.0)(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($S:ident/$idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut copy = value.clone();
                        copy.$idx = cand;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
}

/// Outcome of running the property once.
enum CaseResult {
    Pass,
    Fail(String),
}

fn run_case<V>(prop: &impl Fn(&V), value: &V) -> CaseResult
where
    V: Clone + Debug,
{
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(()) => CaseResult::Pass,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic>".into());
            CaseResult::Fail(msg)
        }
    }
}

/// Runs `cases` generated inputs of `strategy` through `prop`, shrinking
/// and reporting the seed on failure. Used via
/// [`prop_check!`](crate::prop_check!); callers needing full control
/// may invoke it directly.
///
/// # Panics
///
/// Panics (i.e. fails the enclosing test) when a case fails, after
/// shrinking, with the reproduction seed in the message.
pub fn check<S: Strategy>(
    name: &str,
    cases: u64,
    seed: u64,
    strategy: &S,
    prop: impl Fn(&S::Value),
) {
    // Silence the default panic hook while probing cases; restore it on
    // every exit path so failures in *other* tests still print.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = (0..cases).find_map(|case| {
        // Each case derives its own seed so it reproduces standalone:
        // case 0 uses the run seed directly, so re-running with the
        // printed case seed and `cases = 1` replays the exact input.
        let case_seed = if case == 0 {
            seed
        } else {
            let mut sm = seed.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            crate::rng::splitmix64(&mut sm)
        };
        let mut rng = Rng::seed_from_u64(case_seed);
        let value = strategy.generate(&mut rng);
        match run_case(&prop, &value) {
            CaseResult::Pass => None,
            CaseResult::Fail(msg) => Some((case, case_seed, value, msg)),
        }
    });
    let Some((case, case_seed, value, msg)) = outcome else {
        std::panic::set_hook(prev_hook);
        return;
    };

    // Shrink: greedily accept the first candidate that still fails.
    let mut best = value;
    let mut best_msg = msg;
    let mut budget = 200u32;
    'shrinking: while budget > 0 {
        for cand in strategy.shrink(&best) {
            budget -= 1;
            if let CaseResult::Fail(m) = run_case(&prop, &cand) {
                best = cand;
                best_msg = m;
                continue 'shrinking;
            }
            if budget == 0 {
                break;
            }
        }
        break;
    }
    std::panic::set_hook(prev_hook);
    panic!(
        "property '{name}' failed at case {case}/{cases}\n\
         reproduce with: seed = {case_seed:#x}, cases = 1\n\
         shrunk input: {best:?}\n\
         failure: {best_msg}"
    );
}

/// Declares and runs a property over generated inputs:
///
/// ```text
/// prop_check!(cases = 64, seed = 0xBEEF, (a in 0u32..10, b in any::<u16>()) => {
///     assert!(...);   // plain assertions; failures are caught & shrunk
/// });
/// ```
///
/// `cases`/`seed` may be omitted (defaults: 256 cases, seed
/// `0xHA5D_5EED`-derived constant). Bindings take any
/// [`prop::Strategy`](crate::prop::Strategy), including plain integer
/// ranges.
#[macro_export]
macro_rules! prop_check {
    (($($pat:pat in $strat:expr),+ $(,)?) => $body:block) => {
        $crate::prop_check!(cases = 256, seed = 0x4A5D_5EED_0BAD_CAFE, ($($pat in $strat),+) => $body)
    };
    (cases = $cases:expr, ($($pat:pat in $strat:expr),+ $(,)?) => $body:block) => {
        $crate::prop_check!(cases = $cases, seed = 0x4A5D_5EED_0BAD_CAFE, ($($pat in $strat),+) => $body)
    };
    (cases = $cases:expr, seed = $seed:expr, ($($pat:pat in $strat:expr),+ $(,)?) => $body:block) => {{
        let strategy = ($($strat,)+);
        $crate::prop::check(
            concat!(file!(), ":", line!()),
            $cases,
            $seed,
            &strategy,
            |value: &_| {
                let ($($pat,)+) = value.clone();
                $body
            },
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_passes() {
        prop_check!(cases = 64, seed = 1, (a in 0u32..100, b in 0u32..100) => {
            assert_eq!(a + b, b + a);
        });
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let result = catch_unwind(|| {
            prop_check!(cases = 256, seed = 2, (v in 0u32..1000) => {
                assert!(v < 500, "too big: {v}");
            });
        });
        let msg = match result {
            Err(p) => p.downcast_ref::<String>().cloned().unwrap(),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("reproduce with"), "{msg}");
        // Shrinking by halving lands close to the boundary (500), far
        // below the typical unshrunk failing value.
        let shrunk: u32 = msg
            .lines()
            .find(|l| l.contains("shrunk input"))
            .and_then(|l| l.split(['(', ',', ')']).nth(1))
            .and_then(|s| s.trim().parse().ok())
            .unwrap();
        assert!(
            (500..700).contains(&shrunk),
            "shrunk to {shrunk}; msg: {msg}"
        );
    }

    #[test]
    fn vec_strategy_shrinks_length() {
        let strat = vec_of(0u32..10, 0..20);
        let v = vec![1u32, 2, 3, 4, 5, 6, 7, 8];
        let shrunk = strat.shrink(&v);
        assert!(shrunk.iter().any(|s| s.len() <= v.len() / 2));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let strat = (0u32..1000, vec_of(any::<u16>(), 0..8));
        let mut r1 = Rng::seed_from_u64(77);
        let mut r2 = Rng::seed_from_u64(77);
        for _ in 0..20 {
            assert_eq!(strat.generate(&mut r1), strat.generate(&mut r2));
        }
    }

    #[test]
    fn select_and_just_and_map() {
        let mut rng = Rng::seed_from_u64(3);
        let s = select(&[10u32, 20, 30]);
        for _ in 0..20 {
            assert!([10, 20, 30].contains(&s.generate(&mut rng)));
        }
        assert_eq!(Just(42u8).generate(&mut rng), 42);
        let doubled = (1u32..5).prop_map(|v| v * 2);
        let v = doubled.generate(&mut rng);
        assert!(v % 2 == 0 && (2..10).contains(&v));
    }
}
