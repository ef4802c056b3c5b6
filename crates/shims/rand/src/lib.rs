//! Offline stand-in for the `rand` crate.
//!
//! The build environment for this workspace has no network access, so this
//! vendored shim implements exactly the API subset the workspace uses, under
//! the names `rand` gives it: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! [`Rng::random_range`] over integer ranges, and [`distr::Uniform`] — a
//! sampler for one fixed range, built once and held by whoever draws from
//! that range on every step. The generator is a deterministic SplitMix64 —
//! statistically solid for scheduling workloads and reproducible per seed,
//! which is all the schedule generators need.
//!
//! There is one sampling algorithm ([`distr::Uniform::sample`]);
//! `random_range` is "build the sampler, draw once". Which raw outputs it
//! rejects and how it reduces the rest are part of every seeded schedule,
//! so they are pinned (`crates/sched/tests/stream_identity.rs`, the lab
//! goldens): this is the workspace's own generator, not a drop-in for the
//! crates.io crate, whose `StdRng` would produce other streams.

#![forbid(unsafe_code)]

use std::ops::Range;

use distr::Uniform;

/// Seedable random number generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing random value generation (subset of `rand::Rng`).
pub trait Rng {
    /// Produces the next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64;

    /// Samples uniformly from a range (subset of `rand::Rng::random_range`).
    /// A caller that draws from one range repeatedly holds a
    /// [`Uniform`] instead.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }
}

/// Ranges that can be sampled from (subset of `rand::distr::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value of the range from `rng`.
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + Uniform::new(span).sample(rng) as $t
            }
        }
    )*};
}

impl_sample_range!(u64, u32, usize);

/// Distributions (subset of `rand::distr`).
pub mod distr {
    use super::Rng;

    /// Uniform sampler for `[0, bound)`, by rejection from the top multiple
    /// of `bound` so every value is equally likely. Everything that depends
    /// on `bound` alone — the rejection zone and the reciprocal the
    /// remainder is taken with — is computed once, here; a draw is then a
    /// compare, a multiply-high and a conditional subtract, with no
    /// division.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Uniform {
        bound: u64,
        /// Raw outputs at or above this are redrawn. The largest multiple of
        /// `bound` that is `<= u64::MAX` (for a power of two that is one
        /// multiple fewer than would fit in `2^64`; the stream depends on it).
        zone: u64,
        /// `⌊(2^64 − 1) / bound⌋`.
        reciprocal: u64,
    }

    impl Uniform {
        /// The sampler for `[0, bound)`.
        ///
        /// # Panics
        ///
        /// Panics if `bound == 0`.
        pub fn new(bound: u64) -> Self {
            assert!(bound > 0, "cannot sample empty range");
            Uniform {
                bound,
                zone: u64::MAX - (u64::MAX % bound),
                reciprocal: u64::MAX / bound,
            }
        }

        /// Draws one value: the first raw output below the zone, reduced
        /// modulo `bound`.
        #[inline]
        pub fn sample<G: Rng + ?Sized>(&self, rng: &mut G) -> u64 {
            loop {
                let v = rng.next_u64();
                if v < self.zone {
                    return self.reduce(v);
                }
            }
        }

        /// `v % bound` without dividing.
        #[inline]
        fn reduce(&self, v: u64) -> u64 {
            // With m = ⌊(2^64 − 1)/bound⌋, v·m/2^64 lies in (v/bound − 1,
            // v/bound] for every bound ≥ 1, so the estimated quotient is
            // the true one or one short of it and the remainder is off by
            // at most one `bound`.
            let quotient = ((v as u128 * self.reciprocal as u128) >> 64) as u64;
            let r = v - quotient * self.bound;
            debug_assert!(r < self.bound || r - self.bound < self.bound);
            if r >= self.bound {
                r - self.bound
            } else {
                r
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::Uniform;

        /// `reduce` on the inputs a random draw will not find: both sides of
        /// every multiple of `bound` near the ends of the accepted zone, where
        /// the estimated quotient is one short.
        #[test]
        fn the_reduction_is_the_remainder_at_the_edges() {
            let bounds = (1..=300)
                .chain([1 << 31, (1 << 32) - 1, (1 << 32) + 1, (1 << 63) - 1])
                .chain([1 << 63, (1 << 63) + 1, u64::MAX - 1, u64::MAX]);
            for bound in bounds {
                let uniform = Uniform::new(bound);
                assert_eq!(uniform.zone % bound, 0, "bound {bound}");
                let multiples = uniform.zone / bound;
                for k in [0, 1, 2, multiples / 2, multiples - 1] {
                    let Some(base) = k.checked_mul(bound).filter(|&b| b < uniform.zone) else {
                        continue;
                    };
                    for v in [base, base + 1, base + bound / 2, base + (bound - 1)] {
                        assert_eq!(uniform.reduce(v), v % bound, "{v} mod {bound}");
                    }
                }
            }
        }
    }
}

/// Concrete generators (subset of `rand::rngs`).
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic stand-in for `rand::rngs::StdRng`: SplitMix64.
    ///
    /// Not cryptographic (neither is the workload): chosen for speed, full
    /// 64-bit state diffusion, and a one-word state that derives cleanly
    /// from `seed_from_u64`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea, Flood 2014).
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v: usize = rng.random_range(0..5usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit: {seen:?}");
        for _ in 0..100 {
            let v: u64 = rng.random_range(10u64..12);
            assert!((10..12).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _: u64 = rng.random_range(3u64..3);
    }
}
