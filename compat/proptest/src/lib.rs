//! Offline compatibility shim for `proptest`.
//!
//! Implements the subset the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map`, range and tuple strategies,
//! `any::<T>()`, `collection::vec`, the `proptest!` macro (with an optional
//! `#![proptest_config(...)]` header), and the `prop_assert!` /
//! `prop_assert_eq!` / `prop_assume!` macros.
//!
//! Compared to real proptest there is **no shrinking**: a failing case
//! panics with the failure message and the case's seed. Generation is fully
//! deterministic: case `k` of every test uses a fixed seed derived from `k`,
//! so failures reproduce across runs without a persistence file.

#![forbid(unsafe_code)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

/// Deterministic generator handed to strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates the generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x5DEE_CE66_D1CE_B00B,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value below `span` (`span ≥ 1`).
    pub fn below(&mut self, span: u64) -> u64 {
        if span <= 1 {
            return 0;
        }
        let zone = u64::MAX - ((u64::MAX % span) + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is retried with fresh
    /// ones.
    Reject,
    /// A `prop_assert*` failed.
    Fail(String),
}

/// Result type threaded through generated test bodies.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` successful cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// A value generator, mirroring `proptest::strategy::Strategy`.
pub trait Strategy {
    /// Generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `map_fn`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, map_fn: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map {
            inner: self,
            map_fn,
        }
    }
}

/// Strategy adaptor for [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    map_fn: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.map_fn)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Types with a canonical full-range strategy, mirroring
/// `proptest::arbitrary::Arbitrary`.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-range strategy for `T`, mirroring `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

pub mod collection {
    //! Collection strategies, mirroring `proptest::collection`.

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vectors of `element` values with length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.len.clone().generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Drives one property: runs `config.cases` successful cases, retrying
/// rejected ones (up to a cap) and panicking on the first failure.
pub fn run_cases<F>(config: ProptestConfig, mut case: F)
where
    F: FnMut(&mut TestRng) -> TestCaseResult,
{
    let mut successes = 0u32;
    let mut attempts = 0u64;
    let max_attempts = config.cases as u64 * 32 + 256;
    while successes < config.cases {
        attempts += 1;
        assert!(
            attempts <= max_attempts,
            "too many inputs rejected by prop_assume! ({attempts} attempts, \
             {successes}/{} cases)",
            config.cases
        );
        let mut rng = TestRng::new(attempts.wrapping_mul(0xA076_1D64_78BD_642F));
        match case(&mut rng) {
            Ok(()) => successes += 1,
            Err(TestCaseError::Reject) => continue,
            Err(TestCaseError::Fail(msg)) => {
                panic!("property failed on case seed {attempts}: {msg}")
            }
        }
    }
}

/// Debug-formats a generated value for failure messages.
pub fn describe_value<T: fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// Declares property tests, mirroring `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr);) => {};
    (($config:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases($config, |__proptest_rng| {
                $(let $arg = $crate::Strategy::generate(&$strategy, __proptest_rng);)+
                let mut __proptest_case = move || -> $crate::TestCaseResult {
                    $body
                    Ok(())
                };
                __proptest_case()
            });
        }
        $crate::__proptest_items! { ($config); $($rest)* }
    };
}

/// Asserts inside a property body, mirroring `proptest::prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    }};
}

/// Input filter inside a property body, mirroring `proptest::prop_assume!`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude`.

    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Arbitrary, ProptestConfig,
        Strategy, TestCaseError, TestCaseResult,
    };
    /// Module alias matching `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Range strategies respect their bounds.
        #[test]
        fn ranges_in_bounds(n in 3usize..9, s in 0u64..100) {
            prop_assert!((3..9).contains(&n));
            prop_assert!(s < 100, "s = {s}");
        }

        /// Tuples, maps and vec strategies compose.
        #[test]
        fn composition(v in crate::collection::vec(any::<u64>(), 0..8)) {
            prop_assert!(v.len() < 8);
        }

        /// Assume rejects odd inputs; only evens reach the body.
        #[test]
        fn assume_filters(n in 0u64..50) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strategy = (0u64..1000, 0usize..10).prop_map(|(a, b)| a + b as u64);
        let mut rng1 = crate::TestRng::new(5);
        let mut rng2 = crate::TestRng::new(5);
        for _ in 0..20 {
            assert_eq!(strategy.generate(&mut rng1), strategy.generate(&mut rng2));
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_panic() {
        crate::run_cases(ProptestConfig::with_cases(4), |rng| {
            let v = rng.next_u64() | 1; // always odd
            crate::prop_assert!(v % 2 == 0, "forced failure");
            Ok(())
        });
    }
}
