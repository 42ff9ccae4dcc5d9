//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace crate
//! implements the subset of the proptest 1.x API used by the repository's
//! property tests: the [`Strategy`] trait with `prop_map` / `prop_flat_map` /
//! `prop_filter` / `boxed`, range and tuple strategies, [`Just`], `any`,
//! `collection::vec`, `option::of` / `option::weighted`, `prop_oneof!`, the
//! `proptest!` test harness macro, and the `prop_assert*` / `prop_assume!`
//! case macros.
//!
//! Unlike upstream proptest there is **no shrinking**: a failing case reports
//! the seed of the failing iteration instead. Generation is fully
//! deterministic — the per-case seed is derived from a fixed base (or the
//! `PROPTEST_SEED` environment variable) and the case index, so failures
//! reproduce across runs.

use rand::rngs::SmallRng;
use rand::Rng;

/// The RNG handed to strategies.
pub type TestRng = SmallRng;

/// A generator of random values.
///
/// Object-safety note: `generate` takes `&self` so boxed strategies can be
/// shared and cloned freely by combinators.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        strategy::Map { inner: self, f }
    }

    fn prop_flat_map<S2, F>(self, f: F) -> strategy::FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        strategy::FlatMap { inner: self, f }
    }

    fn prop_filter<F>(self, whence: impl Into<String>, f: F) -> strategy::Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        strategy::Filter { inner: self, whence: whence.into(), f }
    }

    fn boxed(self) -> strategy::BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        strategy::BoxedStrategy(std::rc::Rc::new(self))
    }
}

/// Upstream proptest treats `&str` as a regex strategy for `String`. This
/// shim supports the subset of regex syntax the workspace's tests use:
/// concatenations of literal characters and character classes
/// (`[a-zA-Z0-9_#' -]`), each optionally quantified with `{n}` or `{m,n}`.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        regex_generate(self, rng)
    }
}

fn regex_generate(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // One atom: a character class or a literal character.
        let class: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .unwrap_or_else(|| panic!("unterminated `[` in pattern `{pattern}`"))
                + i;
            let members = expand_class(&chars[i + 1..close], pattern);
            i = close + 1;
            members
        } else {
            let c = chars[i];
            i += 1;
            vec![c]
        };
        // Optional quantifier.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .unwrap_or_else(|| panic!("unterminated `{{` in pattern `{pattern}`"))
                + i;
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse::<usize>().expect("bad quantifier"),
                    hi.trim().parse::<usize>().expect("bad quantifier"),
                ),
                None => {
                    let n = body.trim().parse::<usize>().expect("bad quantifier");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        let n = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
        for _ in 0..n {
            out.push(class[rng.gen_range(0..class.len())]);
        }
    }
    out
}

/// Expands the body of a `[...]` class into its member characters.
fn expand_class(body: &[char], pattern: &str) -> Vec<char> {
    let mut members = Vec::new();
    let mut j = 0;
    while j < body.len() {
        if j + 2 < body.len() && body[j + 1] == '-' {
            let (lo, hi) = (body[j] as u32, body[j + 2] as u32);
            assert!(lo <= hi, "inverted range in pattern `{pattern}`");
            members.extend((lo..=hi).filter_map(char::from_u32));
            j += 3;
        } else {
            members.push(body[j]);
            j += 1;
        }
    }
    assert!(!members.is_empty(), "empty character class in `{pattern}`");
    members
}

/// Upstream proptest: a `Vec` of strategies generates a `Vec` with one value
/// from each element, in order.
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy (subset of
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary: Sized {
    fn arbitrary_value(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary_value(rng: &mut TestRng) -> Self {
        rng.gen::<bool>()
    }
}

impl Arbitrary for f64 {
    // Finite values spanning many magnitudes, signs and exact zero; NaN and
    // infinities are deliberately excluded (no test here wants them).
    fn arbitrary_value(rng: &mut TestRng) -> Self {
        match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => rng.gen_range(-1.0..1.0),
            2 => rng.gen_range(-1e3f64..1e3),
            _ => rng.gen_range(-1e9f64..1e9),
        }
    }
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary_value(rng: &mut TestRng) -> Self {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy form of [`Arbitrary`]; obtained through [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary_value(rng)
    }
}

/// `any::<T>()` — the whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod strategy {
    use super::{Strategy, TestRng};

    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) whence: String,
        pub(crate) f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1_000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter `{}` rejected 1000 candidates in a row", self.whence);
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(pub(crate) std::rc::Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<T> {
        pub arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            use rand::Rng as _;
            let pick = rng.gen_range(0..self.arms.len());
            self.arms[pick].generate(rng)
        }
    }
}

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategies!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8, f64);

macro_rules! tuple_strategies {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// Sizes accepted by [`vec()`]: `n`, `lo..hi`, `lo..=hi`.
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_inclusive: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            use rand::Rng as _;
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `collection::vec(element, size)` — vectors of strategy-generated
    /// elements.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod option {
    use super::{Strategy, TestRng};

    pub struct OptionStrategy<S> {
        some_probability: f64,
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            use rand::Rng as _;
            if rng.gen::<f64>() < self.some_probability {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }

    /// `Some` three times out of four, like upstream's default.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { some_probability: 0.75, inner }
    }

    /// `Some` with the given probability.
    pub fn weighted<S: Strategy>(some_probability: f64, inner: S) -> OptionStrategy<S> {
        OptionStrategy { some_probability, inner }
    }
}

pub mod test_runner {
    use super::TestRng;
    use rand::SeedableRng;

    /// Why a single generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is retried.
        Reject(String),
        /// A `prop_assert*!` failed; the test fails.
        Fail(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Runner configuration (subset of upstream's).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    fn base_seed() -> u64 {
        match std::env::var("PROPTEST_SEED") {
            Ok(s) => s.parse().unwrap_or(0xA55E_55ED),
            Err(_) => 0xA55E_55ED,
        }
    }

    /// Drives one property: calls `case` until `config.cases` runs pass,
    /// tolerating a bounded number of `prop_assume!` rejections.
    pub fn run<F>(config: &ProptestConfig, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let base = base_seed();
        let max_rejects = (config.cases as u64) * 64;
        let mut rejects = 0u64;
        let mut passed = 0u32;
        let mut iteration = 0u64;
        while passed < config.cases {
            let seed = base ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            iteration += 1;
            let mut rng = TestRng::seed_from_u64(seed);
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejects += 1;
                    if rejects > max_rejects {
                        panic!(
                            "prop_assume! rejected {rejects} cases while looking for {} \
                             passes (seed base {base:#x})",
                            config.cases
                        );
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "property failed after {passed} passing cases \
                         (case seed {seed:#x}, set PROPTEST_SEED to reproduce): {msg}"
                    );
                }
            }
        }
    }
}

/// The `proptest!` harness macro: each contained `#[test] fn name(pat in
/// strategy, ...) { body }` becomes a normal unit test running
/// `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    (@cfg($cfg:expr) $($(#[$meta:meta])+ fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config = $cfg;
                $crate::test_runner::run(&config, |__proptest_rng| {
                    $(let $pat = $crate::Strategy::generate(&($strat), __proptest_rng);)+
                    let mut __proptest_case = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        Ok(())
                    };
                    __proptest_case()
                });
            }
        )*
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                format!($($fmt)*),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}: {}", l, r, format!($($fmt)*));
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}: {}", l, r, format!($($fmt)*));
    }};
}

pub mod prelude {
    pub use super::collection;
    pub use super::option;
    pub use super::strategy::{BoxedStrategy, Union};
    pub use super::test_runner::{ProptestConfig, TestCaseError};
    pub use super::{any, Arbitrary, Just, Strategy, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// `prop::` alias used in expressions like `prop::collection::vec`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, usize)> {
        (1usize..10, 0usize..5).prop_map(|(a, b)| (a, a + b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn generated_pairs_are_ordered((lo, hi) in pair()) {
            prop_assert!(lo <= hi, "{lo} > {hi}");
        }

        #[test]
        fn vec_sizes_respect_bounds(v in collection::vec(0i64..100, 2..7)) {
            prop_assert!((2..7).contains(&v.len()));
            prop_assert!(v.iter().all(|x| (0..100).contains(x)));
        }

        #[test]
        fn oneof_and_options(x in prop_oneof![Just(1u32), Just(2u32)], o in option::of(0u32..9)) {
            prop_assert!(x == 1 || x == 2);
            if let Some(v) = o {
                prop_assert!(v < 9);
            }
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn filter_retries() {
        let strat = (0u32..100).prop_filter("even", |n| n % 2 == 0);
        let mut rng = TestRng::seed_from_u64(3);
        use rand::SeedableRng;
        for _ in 0..100 {
            assert_eq!(strat.generate(&mut rng) % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_panic() {
        crate::test_runner::run(&ProptestConfig::with_cases(5), |_| {
            Err(TestCaseError::fail("boom"))
        });
    }
}
