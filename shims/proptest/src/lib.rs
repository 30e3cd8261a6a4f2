//! Offline stand-in for `proptest`.
//!
//! Provides the subset this workspace uses: the [`proptest!`] macro,
//! [`prop_assert!`]/[`prop_assert_eq!`], [`Strategy`] with `prop_map` /
//! `prop_recursive` / `boxed`, range strategies, a regex-subset string
//! strategy, tuple strategies, [`collection::vec`] and [`bool::ANY`].
//!
//! Semantics: each test runs `cases` iterations with inputs drawn from
//! a deterministic per-case RNG (no external entropy, so failures
//! reproduce exactly). There is **no shrinking** — a failing case
//! reports its inputs via the panic message of the underlying assert.

use std::rc::Rc;

/// Test-runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic case RNG (splitmix64 stream).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for the given case index (fixed base seed: reproducible).
    pub fn from_case(case: u32) -> TestRng {
        TestRng {
            state: 0xEC5E_ED00u64 ^ ((case as u64) << 32) ^ 0x9E37_79B9,
        }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of random values of one type.
///
/// Unlike real proptest there is no value tree: strategies sample
/// directly and nothing shrinks.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Recursive strategy: `recurse` receives a strategy for the
    /// element type and builds a strategy for one level above it; the
    /// tree depth is drawn uniformly from `0..=depth` per sample.
    /// `_desired_size` and `_expected_branch_size` are accepted for
    /// API compatibility and ignored.
    fn prop_recursive<F, S>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> Recursive<Self::Value>
    where
        Self: Sized + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S + 'static,
        S: Strategy<Value = Self::Value> + 'static,
    {
        Recursive {
            base: self.boxed(),
            depth,
            recurse: Rc::new(move |inner| recurse(inner).boxed()),
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }
}

/// Object-safe sampling facet (what [`BoxedStrategy`] stores).
trait DynStrategy<T> {
    fn dyn_sample(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_sample(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T> {
    inner: Rc<dyn DynStrategy<T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        self.inner.dyn_sample(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_recursive`].
pub struct Recursive<T> {
    base: BoxedStrategy<T>,
    depth: u32,
    #[allow(clippy::type_complexity)]
    recurse: Rc<dyn Fn(BoxedStrategy<T>) -> BoxedStrategy<T>>,
}

impl<T> Strategy for Recursive<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let levels = rng.below(self.depth as u64 + 1) as u32;
        let mut s = self.base.clone();
        for _ in 0..levels {
            s = (self.recurse)(s);
        }
        s.sample(rng)
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + rng.below(span.saturating_add(1)) as i128) as $t
            }
        }
    )*};
}

int_strategy!(usize, u64, u32, i64, i32, u8);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}

tuple_strategy!(A.0);
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);

/// String strategy from a regex subset: concatenations of character
/// classes (`[a-z0-9_-]`, with ranges, literals, trailing `-`) or
/// literal characters, each optionally repeated `{n}` / `{m,n}`.
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let atoms =
            parse_pattern(self).unwrap_or_else(|e| panic!("unsupported regex {self:?}: {e}"));
        let mut out = String::new();
        for atom in &atoms {
            let n = atom.min_rep as u64 + rng.below((atom.max_rep - atom.min_rep) as u64 + 1);
            for _ in 0..n {
                out.push(atom.chars[rng.below(atom.chars.len() as u64) as usize]);
            }
        }
        out
    }
}

struct Atom {
    chars: Vec<char>,
    min_rep: u32,
    max_rep: u32,
}

fn parse_pattern(pattern: &str) -> Result<Vec<Atom>, String> {
    let mut atoms = Vec::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let set: Vec<char> = match c {
            '[' => {
                let mut set = Vec::new();
                let mut class: Vec<char> = Vec::new();
                for c in chars.by_ref() {
                    if c == ']' {
                        break;
                    }
                    class.push(c);
                }
                let mut i = 0;
                while i < class.len() {
                    // `a-z` range (not a trailing/leading literal '-').
                    if i + 2 < class.len() && class[i + 1] == '-' {
                        let (lo, hi) = (class[i] as u32, class[i + 2] as u32);
                        if lo > hi {
                            return Err(format!("bad class range {}-{}", class[i], class[i + 2]));
                        }
                        set.extend((lo..=hi).filter_map(char::from_u32));
                        i += 3;
                    } else {
                        set.push(class[i]);
                        i += 1;
                    }
                }
                if set.is_empty() {
                    return Err("empty character class".into());
                }
                set
            }
            '\\' => vec![chars.next().ok_or("dangling escape")?],
            '{' | '}' | '*' | '+' | '?' | '(' | ')' | '|' | '.' => {
                return Err(format!("unsupported metacharacter {c:?}"));
            }
            literal => vec![literal],
        };
        // Optional {n} / {m,n} repetition.
        let (min_rep, max_rep) = if chars.peek() == Some(&'{') {
            chars.next();
            let mut spec = String::new();
            for c in chars.by_ref() {
                if c == '}' {
                    break;
                }
                spec.push(c);
            }
            let parts: Vec<&str> = spec.split(',').collect();
            let parse = |s: &str| s.trim().parse::<u32>().map_err(|e| e.to_string());
            match parts.as_slice() {
                [n] => {
                    let n = parse(n)?;
                    (n, n)
                }
                [m, n] => (parse(m)?, parse(n)?),
                _ => return Err(format!("bad repetition {{{spec}}}")),
            }
        } else {
            (1, 1)
        };
        if min_rep > max_rep {
            return Err(format!("bad repetition bounds {min_rep}..{max_rep}"));
        }
        atoms.push(Atom {
            chars: set,
            min_rep,
            max_rep,
        });
    }
    Ok(atoms)
}

/// Boolean strategies (`proptest::bool`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// Strategy producing uniform booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Uniform boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a test module usually imports.
pub mod prelude {
    pub use crate::bool::ANY as _PROPTEST_BOOL_ANY; // keep path form usable too
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, BoxedStrategy, ProptestConfig,
        Strategy,
    };
}

/// Asserts inside a property (panics on failure, like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Inequality assert inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) {}`
/// item becomes a `#[test]` running the body over sampled inputs.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( cfg = $cfg:expr; ) => {};
    ( cfg = $cfg:expr;
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            for __case in 0..__config.cases {
                let mut __rng = $crate::TestRng::from_case(__case);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = TestRng::from_case(0);
        for _ in 0..1000 {
            let v = Strategy::sample(&(3usize..10), &mut rng);
            assert!((3..10).contains(&v));
            let f = Strategy::sample(&(-2.0f64..2.0), &mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn regex_subset_strings() {
        let mut rng = TestRng::from_case(1);
        for _ in 0..500 {
            let s = Strategy::sample(&"[a-z][a-z0-9_-]{0,8}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 9, "{s:?}");
            let first = s.chars().next().unwrap();
            assert!(first.is_ascii_lowercase());
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-'));
            let p = Strategy::sample(&"[ -~]{0,12}", &mut rng);
            assert!(p.len() <= 12);
            assert!(p.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn vec_and_tuple_and_map() {
        let mut rng = TestRng::from_case(2);
        let strat = crate::collection::vec((0i32..5, "[ab]"), 2..6).prop_map(|v| v.len());
        for _ in 0..100 {
            let n = Strategy::sample(&strat, &mut rng);
            assert!((2..6).contains(&n));
        }
    }

    #[test]
    fn recursion_bounded() {
        #[derive(Debug)]
        enum Tree {
            Leaf(i32),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(n) => {
                    assert!((0..10).contains(n), "leaf outside its strategy range");
                    0
                }
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0i32..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 4, |inner| {
                crate::collection::vec(inner, 1..4).prop_map(Tree::Node)
            });
        let mut rng = TestRng::from_case(3);
        for _ in 0..200 {
            let t = Strategy::sample(&strat, &mut rng);
            assert!(depth(&t) <= 3, "depth {} in {t:?}", depth(&t));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: addition commutes.
        #[test]
        fn macro_runs_cases(a in 0u64..1000, b in 0u64..1000) {
            prop_assert_eq!(a + b, b + a);
            prop_assert!(a < 1000 && b < 1000);
        }
    }
}
