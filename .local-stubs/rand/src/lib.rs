//! Offline development stub for the `rand` crate.
//!
//! Implements the API subset this workspace uses (`SmallRng`,
//! `SeedableRng::seed_from_u64`, `Rng::{gen, gen_range, gen_ratio,
//! gen_bool}`, `distributions::{Uniform, Distribution}`) on top of
//! xoshiro256++. Deterministic in the seed, but the streams differ from
//! the real `rand` crate.

use distributions::Distribution;
use std::ops::{Range, RangeInclusive};

/// Core random source: a stream of `u64`s.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
    }
}

/// Seedable construction.
pub trait SeedableRng: Sized {
    /// Derives a full state from a 64-bit seed (splitmix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Small, fast RNG (xoshiro256++ in this stub).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// The standard RNG; same engine as [`SmallRng`] in this stub.
    pub type StdRng = SmallRng;
}

/// Types samplable uniformly from the full domain (`rng.gen()`).
pub trait Standard: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges samplable by `gen_range`.
pub trait SampleRange<T> {
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                distributions::Uniform::new(self.start, self.end).sample(rng)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                distributions::Uniform::new_inclusive(lo, hi).sample(rng)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = <$t as Standard>::sample_standard(rng);
                self.start + unit * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let unit = <$t as Standard>::sample_standard(rng);
                lo + unit * (hi - lo)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// User-facing random value generation.
pub trait Rng: RngCore {
    /// A uniformly random value of the full domain of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniformly random value in `range`.
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_range(self)
    }

    /// `true` with probability `numerator / denominator`.
    #[inline]
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(denominator > 0 && numerator <= denominator);
        distributions::Uniform::new(0, u64::from(denominator)).sample(self) < u64::from(numerator)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p));
        self.gen::<f64>() < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

pub mod distributions {
    //! Distributions sampled with a generator; [`Uniform`] resolves its
    //! range once, so repeated draws from one range skip the set-up
    //! that `gen_range` repeats per call.

    use super::{Rng, RngCore};
    use uniform::SampleUniform;

    /// Types that produce random values of `T` from a generator.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Integers drawn uniformly from a range. The rejection zone that
    /// keeps the draw unbiased is computed in the constructor, so a
    /// sample costs one comparison per word drawn plus the reduction of
    /// the accepted word, which the optimizer drops wherever the value
    /// goes unused.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Uniform<X> {
        low: X,
        /// Values in the range; 0 stands for the full 2^64.
        range: u64,
        /// The largest accepted word.
        zone: u64,
    }

    /// The largest word accepted for an unbiased draw from `range`
    /// values (0 = the full 2^64, where every word is accepted).
    #[inline]
    fn zone(range: u64) -> u64 {
        if range == 0 {
            u64::MAX
        } else {
            u64::MAX - (u64::MAX - range + 1) % range
        }
    }

    /// Draws words until one is at most `zone`.
    #[inline]
    fn accepted<R: RngCore + ?Sized>(rng: &mut R, zone: u64) -> u64 {
        loop {
            let v = rng.next_u64();
            if v <= zone {
                return v;
            }
        }
    }

    impl<X: SampleUniform> Uniform<X> {
        /// Values in `[low, high)`.
        ///
        /// # Panics
        ///
        /// If `low >= high`.
        #[inline]
        pub fn new(low: X, high: X) -> Self {
            assert!(low < high, "cannot sample empty range");
            let range = X::span(low, high);
            Uniform {
                low,
                range,
                zone: zone(range),
            }
        }

        /// Values in `[low, high]`.
        ///
        /// # Panics
        ///
        /// If `low > high`.
        #[inline]
        pub fn new_inclusive(low: X, high: X) -> Self {
            assert!(low <= high, "cannot sample empty range");
            let range = X::span(low, high).wrapping_add(1);
            Uniform {
                low,
                range,
                zone: zone(range),
            }
        }
    }

    impl<X: SampleUniform> Distribution<X> for Uniform<X> {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> X {
            let v = accepted(rng, self.zone);
            if self.range == 0 {
                X::from_word(v)
            } else {
                X::offset(self.low, v % self.range)
            }
        }
    }

    pub mod uniform {
        //! What [`Uniform`](super::Uniform) can sample.

        /// Integer types [`Uniform`](super::Uniform) samples; the
        /// methods are this stub's own.
        pub trait SampleUniform: Copy + PartialOrd {
            /// `high - low`, as a word.
            fn span(low: Self, high: Self) -> u64;
            /// `low + off`.
            fn offset(low: Self, off: u64) -> Self;
            /// A value from a word of the full domain.
            fn from_word(v: u64) -> Self;
        }

        macro_rules! uniform_int {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    #[inline]
                    fn span(low: Self, high: Self) -> u64 {
                        (high as i128 - low as i128) as u64
                    }
                    #[inline]
                    fn offset(low: Self, off: u64) -> Self {
                        (low as i128 + off as i128) as $t
                    }
                    #[inline]
                    fn from_word(v: u64) -> Self {
                        v as $t
                    }
                }
            )*};
        }

        uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
    }
}

pub mod prelude {
    pub use crate::rngs::{SmallRng, StdRng};
    pub use crate::{Rng, RngCore, SeedableRng};
}
