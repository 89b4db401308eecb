//! Offline stand-in for `proptest`.
//!
//! The container building this workspace cannot reach a crates
//! registry, so the `proptest` dev-dependency resolves here. The shim
//! implements the subset of the proptest surface the test suite uses —
//! the `proptest!` macro with integer-range strategies,
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!`, and
//! `ProptestConfig::with_cases` — as a deterministic uniform sampler.
//! There is no shrinking: a failing case panics with the sampled inputs
//! so it can be reproduced as a plain unit test. Swapping in the real
//! crate is a manifest-only change.

#![deny(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of sampled cases per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` sampled cases.
    #[must_use]
    pub const fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a sampled case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the runner draws a new case.
    Reject,
    /// An assertion failed; the runner panics with this message.
    Fail(String),
}

impl TestCaseError {
    /// Builds the failure variant.
    #[must_use]
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }
}

/// Outcome of one sampled case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Deterministic xorshift64* generator driving the sampler.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds the generator (zero is remapped to a fixed odd constant).
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        TestRng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A value source usable on the right of `in` inside [`proptest!`].
pub trait Strategy {
    /// The sampled type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                let span = (end - start) as u64 + 1;
                start + (rng.next_u64() % span) as $t
            }
        }
    )+};
}

impl_range_strategy!(u16, u32, u64, usize);

/// Declares deterministic property tests.
///
/// Mirrors `proptest::proptest!`: each `fn name(arg in strategy, ...)`
/// becomes a `#[test]` that samples its arguments `cases` times and runs
/// the body; `prop_assume!` rejections draw a fresh case.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::new(0xC0FF_EE00_DAC2_0020);
                let mut accepted: u32 = 0;
                let mut draws: u32 = 0;
                while accepted < config.cases {
                    draws += 1;
                    assert!(
                        draws < config.cases.saturating_mul(20) + 100,
                        "prop_assume! rejected too many cases"
                    );
                    $(let $arg = $crate::Strategy::sample(&($strategy), &mut rng);)+
                    let outcome = (|| -> $crate::TestCaseResult {
                        $body
                        Ok(())
                    })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::TestCaseError::Reject) => continue,
                        Err($crate::TestCaseError::Fail(msg)) => panic!(
                            "property {} failed: {}\n  inputs: {} = {:?}",
                            stringify!($name),
                            msg,
                            stringify!(($($arg),+)),
                            ($($arg),+),
                        ),
                    }
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $( $(#[$meta])* fn $name( $($arg in $strategy),+ ) $body )*
        }
    };
}

/// `assert!` that reports through the property runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that reports through the property runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Rejects the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Everything a property-test file needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
        TestCaseError, TestCaseResult, TestRng,
    };
}
