//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate provides
//! the subset of proptest that the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(...)]` support),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * range and tuple strategies, `prop::collection::vec`,
//!   [`Strategy::prop_map`], and `any::<T>()` for a few primitives.
//!
//! Failing cases are reported with their case index and every drawn
//! argument (`{:?}`), and the per-test seed is fixed so runs are
//! reproducible; there is **no shrinking** — generators here keep
//! instances small enough that raw counterexamples are readable. The
//! arguments are re-drawn from a copy of the case's RNG only when the
//! case fails, so passing runs pay nothing for the report.

#![forbid(unsafe_code)]

pub mod strategy {
    //! Strategies: deterministic samplers of test values.

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values of type `Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (((rng.next_u64() as u128 * span as u128) >> 64) as u64) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    if lo == <$t>::MIN && hi == <$t>::MAX {
                        return rng.next_u64() as $t;
                    }
                    let span = (hi - lo) as u64 + 1;
                    lo + (((rng.next_u64() as u128 * span as u128) >> 64) as u64) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    /// A strategy that always yields clones of one value.
    #[derive(Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($n:ident . $i:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }

    /// A boolean strategy (fair coin).
    pub struct AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;

        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod test_runner {
    //! The runner: configuration, RNG, and failure plumbing.

    /// Per-test configuration.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// A failed property case (message carrying the assertion text).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    /// Deterministic test RNG (SplitMix64). Seeded from the test name so
    /// every property gets an independent, reproducible stream.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test name (FNV-1a hash).
        pub fn deterministic(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h | 1 }
        }

        /// Next uniform 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive size bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<E::Value>` with length drawn from `size`.
    pub fn vec<E: Strategy>(element: E, size: impl Into<SizeRange>) -> VecStrategy<E> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Output of [`vec`].
    pub struct VecStrategy<E> {
        element: E,
        size: SizeRange,
    }

    impl<E: Strategy> Strategy for VecStrategy<E> {
        type Value = Vec<E::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<E::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len =
                self.size.lo + (((rng.next_u64() as u128 * span as u128) >> 64) as u64) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The `prop::` module path used by idiomatic proptest code.
pub mod prop {
    pub use crate::collection;
}

/// `any::<T>()` for a few primitive types.
pub mod arbitrary {
    use crate::strategy::{AnyBool, Strategy};
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// The canonical strategy.
        type Strategy: Strategy<Value = Self>;

        /// Builds the canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// Full-range integer strategy.
    pub struct FullRange<T>(PhantomData<T>);

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Strategy for FullRange<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
            impl Arbitrary for $t {
                type Strategy = FullRange<$t>;
                fn arbitrary() -> Self::Strategy {
                    FullRange(PhantomData)
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        type Strategy = AnyBool;

        fn arbitrary() -> Self::Strategy {
            AnyBool
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a `proptest!` body, failing the current
/// case (with source location) rather than panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(format!(
                "{} at {}:{}",
                format!($($fmt)*),
                file!(),
                line!()
            )));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}` (both: {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            config = $crate::test_runner::Config::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $config:expr; ) => {};
    (
        config = $config:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            for case in 0..config.cases {
                let replay = rng.clone();
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)*
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    // The body may have consumed the arguments: draw them
                    // again from the RNG state this case started from.
                    let mut replay = replay;
                    let mut inputs = ::std::string::String::new();
                    $(
                        let value = $crate::strategy::Strategy::sample(&($strat), &mut replay);
                        inputs.push_str(&format!("\n  {} = {:?}", stringify!($arg), value));
                    )*
                    panic!(
                        "property `{}` failed on case {}/{}: {}\ninputs:{}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e,
                        inputs
                    );
                }
            }
        }
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3..10u32, y in 0..=4usize) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
        }

        #[test]
        fn vec_lengths_respect_size(v in prop::collection::vec(0..5u32, 2..=6)) {
            prop_assert!((2..=6).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn prop_map_applies(s in (0..10u32, 0..10u32).prop_map(|(a, b)| a + b)) {
            prop_assert!(s <= 18);
        }
    }

    #[test]
    fn failures_carry_case_info() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(8))]
                fn always_fails(x in 0..3u32) {
                    prop_assert!(x > 100, "x was {}", x);
                }
            }
            always_fails();
        });
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("always_fails"), "got: {message}");
        assert!(message.contains("x was"), "got: {message}");
    }

    proptest! {
        /// The report names the drawn value (the range holds one value,
        /// so the expected text does not depend on the seed) and the
        /// failing case.
        #[test]
        #[should_panic(expected = "failed on case 1/64: no good at")]
        fn failure_reports_case_index(x in 7..8u32) {
            prop_assert!(x != 7, "no good");
        }

        #[test]
        #[should_panic(expected = "inputs:\n  x = 7\n  v = [5, 5]")]
        fn failure_reports_drawn_values(x in 7..8u32, v in prop::collection::vec(5..6u32, 2)) {
            prop_assert!(x + v[0] != 12, "no good");
        }
    }
}
