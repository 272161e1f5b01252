//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small trait surface it actually uses: [`RngCore`],
//! [`SeedableRng`] (with the SplitMix64-based `seed_from_u64`), the
//! [`Rng`] extension trait (`gen_range`, `gen_bool`) and
//! [`seq::SliceRandom`] (`shuffle`, `choose`). Distribution quality matches
//! what the reproduction needs: uniform ranges from a 64-bit source.

/// A source of randomness: everything builds on `next_u32`/`next_u64`.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;

    fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// SplitMix64 step — used to expand a `u64` seed into a full seed array,
/// mirroring `rand_core`'s `seed_from_u64`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    type Seed: Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(state: u64) -> Self {
        let mut s = state;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let word = splitmix64(&mut s).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// A range that knows how to draw a uniform sample of `T` from an RNG.
///
/// Single blanket impl over [`SampleUniform`] types, matching the real
/// crate's structure — this is what lets `gen_range(0..5)` infer `usize`
/// from how the result is used.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types that support uniform sampling from `[lo, hi)` / `[lo, hi]`.
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_uniform<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_uniform(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_uniform(lo, hi, true, rng)
    }
}

/// Uniform f64 in `[0, 1)` with 53 bits of precision.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! impl_int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let span = (hi as i128 - lo as i128) as u128 + inclusive as u128;
                let draw = ((rng.next_u64() as u128) % span) as i128;
                (lo as i128 + draw) as $t
            }
        }
    )*};
}

impl_int_uniform!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! impl_float_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                _inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let u = unit_f64(rng);
                let v = lo as f64 + (hi as f64 - lo as f64) * u;
                // Guard against rounding up to the exclusive bound.
                if v >= hi as f64 { lo } else { v as $t }
            }
        }
    )*};
}

impl_float_uniform!(f32, f64);

/// User-facing convenience methods, blanket-implemented for every source.
pub trait Rng: RngCore {
    /// Uniform sample from a half-open (or inclusive) range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::{RngCore, SampleRange};

    /// Slice helpers (`shuffle`, `choose`) over any RNG.
    pub trait SliceRandom {
        type Item;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            // Fisher-Yates, back to front.
            for i in (1..self.len()).rev() {
                let j = (0..=i).sample_from(rng);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[(0..self.len()).sample_from(rng)])
            }
        }
    }
}

/// `rand_core` compatibility: the real `rand` re-exports its core traits.
pub mod rand_core {
    pub use super::{RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 32) as u32
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Counter(7);
        for _ in 0..1000 {
            let v: i64 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&v));
            let u: usize = rng.gen_range(0..3);
            assert!(u < 3);
            let f: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn bool_probability_extremes() {
        let mut rng = Counter(3);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Counter(11);
        let mut v: Vec<i32> = (0..20).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
