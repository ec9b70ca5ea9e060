//! Deterministic, dependency-free pseudo-random numbers.
//!
//! The generator is xoshiro256++ seeded through SplitMix64; its core lives
//! in `pphw_sim::fault`, where the simulator's fault model draws from the
//! same type. It exists so the workspace needs no registry crates: every
//! seeded workload, property test, and differential sweep in the repo draws
//! from this generator, and a printed seed is always enough to reproduce a
//! run bit-for-bit.

use std::ops::Range;

/// One SplitMix64 step — used for seeding and for deriving per-case seeds.
pub use pphw_sim::fault::splitmix64;
use pphw_sim::fault::Xoshiro256pp;

/// A seedable xoshiro256++ generator: [`pphw_sim::fault::Xoshiro256pp`]
/// plus the range sampling tests and workloads draw with.
#[derive(Debug, Clone)]
pub struct Rng(Xoshiro256pp);

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Rng {
        Rng(Xoshiro256pp::seed_from_u64(seed))
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// A uniform f64 in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        self.0.next_f64()
    }

    /// A uniform f32 in `[0, 1)` (24 mantissa bits).
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// A uniform sample from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose from empty slice");
        &xs[self.gen_range(0..xs.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..i + 1);
            xs.swap(i, j);
        }
    }

    /// A vector of `n` uniform f32 samples in `[lo, hi)`.
    pub fn f32_vec(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| self.gen_range(lo..hi)).collect()
    }

    /// A vector of `n` uniform i64 samples in `[lo, hi)`.
    pub fn i64_vec(&mut self, n: usize, lo: i64, hi: i64) -> Vec<i64> {
        (0..n).map(|_| self.gen_range(lo..hi)).collect()
    }

    /// A bounded u64 via the widening-multiply method (bias < 2^-64 per
    /// draw — irrelevant at test scales).
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Types [`Rng::gen_range`] can sample uniformly from a half-open range.
pub trait SampleUniform: Copy + PartialOrd {
    /// A uniform sample in `[lo, hi)`.
    fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
    )*};
}

impl_sample_int!(i32, i64, u32, u64, usize);

impl SampleUniform for f32 {
    fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
        lo + rng.next_f32() * (hi - lo)
    }
}

impl SampleUniform for f64 {
    fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
        lo + rng.next_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_respected() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(-5i64..17);
            assert!((-5..17).contains(&v));
            let f = r.gen_range(-1.5f32..2.5);
            assert!((-1.5..2.5).contains(&f));
            let u = r.gen_range(0usize..3);
            assert!(u < 3);
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(99);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[r.gen_range(0usize..8)] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = Rng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..32).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "32-element shuffle left identity (astronomically unlikely)"
        );
    }
}
