//! A small, dependency-free deterministic random number generator.
//!
//! The simulator needs randomness in two places — synthetic input data
//! for the NAS kernels and the fault-injection schedules of
//! `bgp-faults` — and in both the requirement is *reproducibility*, not
//! cryptographic quality: the same seed must generate the same stream on
//! every platform, forever. [`SimRng`] is xoshiro256++ seeded through
//! splitmix64, the standard construction for simulation RNGs.

use core::ops::{Range, RangeInclusive};

/// Advance a splitmix64 state and return the next output.
///
/// Used both to expand seeds into xoshiro state and as a cheap stateless
/// hash for per-decision fault draws.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256++ generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Expand `seed` into a full generator state via splitmix64.
    pub fn seed_from_u64(seed: u64) -> SimRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` (53 bits of precision).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform sample from a range; mirrors the call shape of the
    /// `rand` crate so kernel code reads naturally.
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// A range type [`SimRng::gen_range`] can sample uniformly.
pub trait UniformRange {
    /// The sampled value type.
    type Output;
    /// Draw one uniform sample from `self`.
    fn sample(self, rng: &mut SimRng) -> Self::Output;
}

fn uniform_u64(rng: &mut SimRng, span: u64) -> u64 {
    debug_assert!(span > 0, "empty range");
    // Multiply-shift bounded sampling (Lemire) without the rejection
    // step: the bias is < 2^-64 per draw, far below anything a
    // simulation could observe, and the draw count stays deterministic.
    let x = rng.next_u64();
    ((x as u128 * span as u128) >> 64) as u64
}

impl UniformRange for Range<u32> {
    type Output = u32;
    fn sample(self, rng: &mut SimRng) -> u32 {
        assert!(self.start < self.end, "empty range");
        self.start + uniform_u64(rng, (self.end - self.start) as u64) as u32
    }
}

impl UniformRange for Range<u64> {
    type Output = u64;
    fn sample(self, rng: &mut SimRng) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + uniform_u64(rng, self.end - self.start)
    }
}

impl UniformRange for Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut SimRng) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + uniform_u64(rng, (self.end - self.start) as u64) as usize
    }
}

impl UniformRange for RangeInclusive<usize> {
    type Output = usize;
    fn sample(self, rng: &mut SimRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + uniform_u64(rng, (hi - lo) as u64 + 1) as usize
    }
}

impl UniformRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        assert!((0..10).any(|_| a.next_u64() != b.next_u64()));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let v = r.gen_range(5usize..=5);
            assert_eq!(v, 5);
            let v = r.gen_range(0u32..3);
            assert!(v < 3);
            let f = r.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_sampling_covers_the_domain() {
        let mut r = SimRng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 values reachable: {seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SimRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }
}
