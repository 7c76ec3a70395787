//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this workspace
//! vendors the subset of proptest's API its property tests use:
//! strategies (ranges, tuples, [`Just`](strategy::Just), `prop_map`, `prop_recursive`,
//! [`prop_oneof!`], collections, simple regex-like string patterns),
//! [`any`](arbitrary::any), and the [`proptest!`] runner macro with
//! `prop_assert*` / `prop_assume!`.
//!
//! Differences from upstream, deliberately accepted:
//!
//! - **No shrinking.** A failing case reports the case number and the
//!   assertion message; inputs are reproducible because every case's RNG
//!   seed derives deterministically from the test name and case index.
//! - **Regex strategies** support the subset used here: character
//!   classes with ranges (`[a-z0-9_.-]`), `\PC` (any printable), and the
//!   `{m}` / `{m,n}` / `*` / `+` / `?` quantifiers.
//! - `prop_recursive`'s size hints are ignored; recursion depth is
//!   honored and each level picks base or recursive arms at even odds.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Runs each embedded `#[test] fn name(pat in strategy, ...) { body }`
/// over `ProptestConfig::cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = ($config:expr);
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($pat:pat in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let test_path = concat!(module_path!(), "::", stringify!($name));
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(test_path, case);
                    $(
                        let $pat = $crate::strategy::Strategy::gen_value(&($strat), &mut rng);
                    )*
                    let outcome: ::std::result::Result<(), ::std::string::String> =
                        (move || { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(message) = outcome {
                        panic!("property failed at case {case}/{}: {message}", config.cases);
                    }
                }
            }
        )*
    };
}

/// Fails the surrounding property when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert!({}) failed", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Fails the surrounding property unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert_eq! failed: {:?} != {:?}", l, r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert_eq! failed: {:?} != {:?}: {}", l, r, ::std::format!($($fmt)+)
            ));
        }
    }};
}

/// Fails the surrounding property if the two values compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err(::std::format!(
                "prop_assert_ne! failed: both {:?}",
                l
            ));
        }
    }};
}

/// Skips the current case (counted as a pass) when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(::std::vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}
