//! Deterministic, version-stable pseudo-random number generation.
//!
//! Simulation experiments must be bit-reproducible across machines and
//! library upgrades, so the generator is implemented here rather than
//! borrowed from a crate whose algorithm may change. This module
//! implements **xoshiro256\*\*** (Blackman & Vigna, 2018) seeded
//! through **SplitMix64**, plus the handful of distributions the
//! simulator draws from.
//!
//! Streams: [`Rng64::stream`] derives an independent generator from a base
//! seed and a stream index, so each job / module / week can draw from its
//! own decorrelated sequence without coordination.

/// SplitMix64 step; used for seeding and for cheap stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256\*\* generator: fast, 256-bit state, passes BigCrush.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Create a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not be seeded with all zeros; SplitMix64 cannot
        // produce four consecutive zeros, but keep the guard for clarity.
        debug_assert!(s.iter().any(|&w| w != 0));
        Self { s }
    }

    /// Derive an independent generator for `(seed, stream)`.
    ///
    /// Different streams produce decorrelated sequences: the stream index
    /// is mixed into the seed through SplitMix64 before expansion.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut sm = seed;
        let a = splitmix64(&mut sm);
        Self::new(a ^ stream.wrapping_mul(0xD2B7_4407_B1CE_6E93).rotate_left(17))
    }

    /// Next raw 64-bit output.
    ///
    /// Named after the xoshiro reference implementation; this type is not
    /// an `Iterator`, so the name cannot collide in practice.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Requires `lo <= hi`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's multiply-shift rejection.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng64::below(0)");
        // Unbiased bounded generation (Lemire 2019).
        let mut x = self.next();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Requires `lo <= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal deviate (Marsaglia polar method).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Log-normal deviate with the given parameters of the underlying
    /// normal distribution.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential deviate with the given rate `lambda` (mean `1/lambda`).
    #[inline]
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0);
        // 1 - f64() is in (0, 1], so ln() is finite.
        -(1.0 - self.f64()).ln() / lambda
    }

    /// Pick an index according to unnormalised non-negative `weights`.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "Rng64::weighted: weights must sum to > 0");
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_decorrelated() {
        let mut a = Rng64::stream(7, 0);
        let mut b = Rng64::stream(7, 1);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng64::new(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut r = Rng64::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = r.below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_one_is_zero() {
        let mut r = Rng64::new(5);
        for _ in 0..100 {
            assert_eq!(r.below(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng64::new(0).below(0);
    }

    #[test]
    fn range_u64_inclusive() {
        let mut r = Rng64::new(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let x = r.range_u64(3, 5);
            assert!((3..=5).contains(&x));
            lo_seen |= x == 3;
            hi_seen |= x == 5;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng64::new(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng64::new(17);
        let n = 200_000;
        let mean = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn lognormal_positive() {
        let mut r = Rng64::new(19);
        for _ in 0..10_000 {
            assert!(r.lognormal(0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn weighted_respects_zero_weight() {
        let mut r = Rng64::new(23);
        for _ in 0..10_000 {
            let i = r.weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn weighted_roughly_proportional() {
        let mut r = Rng64::new(29);
        let mut counts = [0usize; 3];
        let n = 90_000;
        for _ in 0..n {
            counts[r.weighted(&[1.0, 2.0, 6.0])] += 1;
        }
        let f = |c: usize| c as f64 / n as f64;
        assert!((f(counts[0]) - 1.0 / 9.0).abs() < 0.01);
        assert!((f(counts[1]) - 2.0 / 9.0).abs() < 0.01);
        assert!((f(counts[2]) - 6.0 / 9.0).abs() < 0.01);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(31);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
