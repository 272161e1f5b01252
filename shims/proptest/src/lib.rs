//! Offline stand-in for `proptest`.
//!
//! Implements the strategy/macro subset this workspace's property tests
//! use: range and string-pattern strategies, tuples, `prop_map`,
//! `prop_recursive`, `prop_oneof!`, `proptest::collection::vec`, `any`,
//! and the `proptest!` / `prop_assert*` / `prop_assume!` macros.
//!
//! Compared to the real crate there is no shrinking and no failure
//! persistence: cases are generated from a per-test deterministic seed, so
//! failures reproduce exactly on re-run.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// RNG & config
// ---------------------------------------------------------------------------

/// Deterministic per-test randomness source.
pub struct TestRng {
    rng: ChaCha8Rng,
}

impl TestRng {
    /// Seeded from the test's name, so every test has its own stable stream.
    pub fn deterministic(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng {
            rng: ChaCha8Rng::seed_from_u64(h),
        }
    }

    pub fn gen_usize(&mut self, range: Range<usize>) -> usize {
        self.rng.gen_range(range)
    }

    pub fn gen_f64(&mut self) -> f64 {
        self.rng.gen_range(0.0..1.0)
    }

    fn inner(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }
}

/// Runner configuration (only `cases` is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 48 }
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { strategy: self, f }
    }

    /// Type-erase into a cheaply-clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }

    /// Build a recursive strategy: `recurse` receives the strategy for the
    /// previous depth and returns the next layer. `depth` bounds nesting;
    /// the size/branch hints of the real API are accepted and ignored.
    fn prop_recursive<F, S2>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
        S2: Strategy<Value = Self::Value> + 'static,
    {
        let base = self.boxed();
        let mut current = base.clone();
        for _ in 0..depth {
            let deeper = recurse(current).boxed();
            current = Union::new(vec![base.clone(), deeper]).boxed();
        }
        current
    }
}

/// Object-safe view used by [`BoxedStrategy`].
trait DynStrategy {
    type Value;
    fn gen_dyn(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> DynStrategy for S {
    type Value = S::Value;
    fn gen_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A shared, type-erased strategy.
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.gen_dyn(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    strategy: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.strategy.generate(rng))
    }
}

/// Uniform choice among boxed branches (`prop_oneof!`).
pub struct Union<T> {
    branches: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(branches: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(
            !branches.is_empty(),
            "prop_oneof! needs at least one branch"
        );
        Union { branches }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.gen_usize(0..self.branches.len());
        self.branches[i].generate(rng)
    }
}

/// Always-the-same-value strategy.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------------
// Range / primitive / string strategies
// ---------------------------------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.inner().gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

/// The values `any::<T>()` can produce.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.inner().gen_bool(0.5)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.inner().next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.gen_f64() * 2.0 - 1.0
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        (rng.gen_f64() * 2.0 - 1.0) as f32
    }
}

/// Strategy of any `Arbitrary` type.
pub struct Any<T>(PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// String-pattern strategy: the `"[a-z]{1,6}"` regex subset — literal
/// characters and character classes, each optionally repeated `{m,n}`.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        let (alphabet, next) = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed class in pattern {pattern:?}"));
            (expand_class(&chars[i + 1..close]), close + 1)
        } else {
            (vec![chars[i]], i + 1)
        };
        i = next;
        let (lo, hi, next) = parse_repeat(&chars, i).unwrap_or((1, 1, i));
        i = next;
        let count = if lo == hi {
            lo
        } else {
            rng.gen_usize(lo..hi + 1)
        };
        for _ in 0..count {
            out.push(alphabet[rng.gen_usize(0..alphabet.len())]);
        }
    }
    out
}

fn expand_class(body: &[char]) -> Vec<char> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < body.len() {
        if i + 2 < body.len() && body[i + 1] == '-' {
            for c in body[i]..=body[i + 2] {
                out.push(c);
            }
            i += 3;
        } else {
            out.push(body[i]);
            i += 1;
        }
    }
    assert!(!out.is_empty(), "empty character class");
    out
}

fn parse_repeat(chars: &[char], at: usize) -> Option<(usize, usize, usize)> {
    if chars.get(at) != Some(&'{') {
        return None;
    }
    let close = chars[at..].iter().position(|&c| c == '}')? + at;
    let body: String = chars[at + 1..close].iter().collect();
    let (lo, hi) = match body.split_once(',') {
        Some((l, h)) => (l.trim().parse().ok()?, h.trim().parse().ok()?),
        None => {
            let n = body.trim().parse().ok()?;
            (n, n)
        }
    };
    Some((lo, hi, close + 1))
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E),
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
);

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Element-count specification for [`vec`]: an exact count or a
    /// half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of the element strategy's values.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_usize(self.size.lo..self.size.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// The `proptest!` block: one or more `#[test] fn name(arg in strategy, ...)`
/// items, optionally preceded by `#![proptest_config(...)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let mut __rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            let __cases = __config.cases as usize;
            let mut __executed = 0usize;
            let mut __attempts = 0usize;
            while __executed < __cases {
                __attempts += 1;
                assert!(
                    __attempts <= __cases * 25,
                    "proptest shim: too many rejected cases in {}",
                    stringify!($name)
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                let __run = || -> ::std::result::Result<(), ()> {
                    $body
                    ::std::result::Result::Ok(())
                };
                if __run().is_ok() {
                    __executed += 1;
                }
            }
        }
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
}

/// Assert within a proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Skip the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(());
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(());
        }
    };
}

/// Uniform choice among strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($branch:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($branch)),+])
    };
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

// ---------------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn string_pattern_shapes() {
        let mut rng = TestRng::deterministic("string_pattern_shapes");
        for _ in 0..200 {
            let s = crate::Strategy::generate(&"[a-c]{1,3}", &mut rng);
            assert!((1..=3).contains(&s.len()), "bad len: {s:?}");
            assert!(
                s.chars().all(|c| ('a'..='c').contains(&c)),
                "bad chars: {s:?}"
            );
        }
    }

    #[test]
    fn union_hits_every_branch() {
        let mut rng = TestRng::deterministic("union_hits_every_branch");
        let s = prop_oneof![0..1i64, 10..11i64, 20..21i64];
        let mut seen = [false; 3];
        for _ in 0..100 {
            match crate::Strategy::generate(&s, &mut rng) {
                0 => seen[0] = true,
                10 => seen[1] = true,
                20 => seen[2] = true,
                other => panic!("impossible draw {other}"),
            }
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Debug)]
        enum T {
            Leaf(i64),
            Node(Vec<T>),
        }
        fn depth(t: &T) -> usize {
            match t {
                T::Leaf(n) => {
                    assert!((0..5).contains(n), "leaf out of range");
                    1
                }
                T::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let leaf = (0..5i64).prop_map(T::Leaf);
        let tree = leaf.prop_recursive(3, 16, 3, |inner| {
            crate::collection::vec(inner, 1..4).prop_map(T::Node)
        });
        let mut rng = TestRng::deterministic("recursive_strategy_terminates");
        let mut max_depth = 0;
        for _ in 0..200 {
            max_depth = max_depth.max(depth(&crate::Strategy::generate(&tree, &mut rng)));
        }
        assert!(max_depth > 1, "recursion never taken");
        assert!(max_depth <= 4, "depth bound violated: {max_depth}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_assumes(v in crate::collection::vec(-5i64..5, 1..10), b in any::<bool>()) {
            prop_assume!(!v.is_empty());
            prop_assert!(v.iter().all(|x| (-5..5).contains(x)));
            let flipped = !b;
            prop_assert_ne!(b, flipped);
        }
    }
}
