//! A minimal, dependency-free stand-in for the `proptest` crate, providing
//! the subset of the 1.x API this workspace's tests use: [`Strategy`](strategy::Strategy) with
//! `prop_map`/`prop_flat_map`/`boxed`, [`strategy::Just`], integer and `f64`
//! range strategies, tuple strategies, [`collection::vec`], the
//! [`proptest!`]/[`prop_oneof!`]/`prop_assert*` macros and
//! [`test_runner::ProptestConfig`].
//!
//! Semantics differ from real proptest in two deliberate ways:
//!
//! * **Deterministic cases, no persistence** — each test case draws from a
//!   SplitMix64 RNG seeded from the test's module path and case index, so
//!   failures reproduce exactly on re-run without a regression file.
//! * **No shrinking** — a failing case reports its inputs via the assertion
//!   message but is not minimised.
//!
//! The workspace builds offline; vendoring this shim keeps `proptest` a
//! dev-dependency in the manifests while requiring nothing from a registry.

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;

    /// A source of random values of one type. Unlike real proptest there is
    /// no value tree: strategies produce plain values and nothing shrinks.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { base: self, f }
        }

        /// Generates a value, then samples from the strategy `f` builds
        /// from it (dependent generation).
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { base: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: std::rc::Rc::new(self),
            }
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            let mid = self.base.sample(rng);
            (self.f)(mid).sample(rng)
        }
    }

    /// A type-erased strategy (see [`Strategy::boxed`]).
    #[derive(Clone)]
    pub struct BoxedStrategy<V> {
        inner: std::rc::Rc<dyn Strategy<Value = V>>,
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            self.inner.sample(rng)
        }
    }

    /// Uniform choice among equally weighted alternatives (the engine behind
    /// [`crate::prop_oneof!`]).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Builds the union; `options` must be nonempty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            let i = (rng.next_u64() % self.options.len() as u64) as usize;
            self.options[i].sample(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + (rng.next_u64() % (span + 1)) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            let unit = rng.next_u64() as f64 / (u64::MAX as f64 + 1.0);
            self.start + (self.end - self.start) * unit
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        )+};
    }
    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
    }
}

pub mod collection {
    //! Strategies for collections.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A range of collection sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Generates `Vec`s with elements from `element` and a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Test configuration and the deterministic case RNG.

    /// Per-test configuration. Only `cases` is honoured by the shim; the
    /// struct is non-exhaustive-in-spirit to stay source-compatible with
    /// `ProptestConfig { cases: n, ..Default::default() }` call sites.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// SplitMix64 RNG, seeded per (test, case) so failures replay exactly.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// The RNG for one case of one named test.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            // FNV-1a over the name, mixed with the case index
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in test_name.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
            let mut rng = TestRng {
                state: h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            // warm up so nearby seeds decorrelate
            rng.next_u64();
            rng
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

pub mod prelude {
    //! The usual `use proptest::prelude::*;` imports.

    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                for __case in 0..config.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $(
                        let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);
                    )+
                    $body
                }
            }
        )*
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// `assert!` under a property (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let x = (3u64..17).sample(&mut rng);
            assert!((3..17).contains(&x));
            let y = (0.5f64..2.0).sample(&mut rng);
            assert!((0.5..2.0).contains(&y));
            let z = (5usize..=5).sample(&mut rng);
            assert_eq!(z, 5);
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = crate::test_runner::TestRng::for_case("vecs", 1);
        let s = crate::collection::vec(0u64..10, 2..5);
        for _ in 0..200 {
            let v = s.sample(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let draw = |case| {
            let mut rng = crate::test_runner::TestRng::for_case("det", case);
            (0u64..1_000_000).sample(&mut rng)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_samples_compose((a, b) in (0u64..50, 1u64..9), c in prop_oneof![Just(1u64), 10u64..20]) {
            prop_assert!(a < 50 && (1..9).contains(&b));
            prop_assert!(c == 1 || (10..20).contains(&c));
            let nested = crate::collection::vec(0u64..5, 0..4)
                .prop_flat_map(|v| (Just(v.len()), 0u64..6))
                .prop_map(|(l, x)| l as u64 + x);
            let mut rng = crate::test_runner::TestRng::for_case("nested", 0);
            prop_assert!(nested.sample(&mut rng) < 9);
        }
    }
}
