//! A small, deterministic pseudo-random number generator.
//!
//! The corpus synthesizer and the randomized test suites need reproducible
//! random streams, but the build must work in offline environments where
//! no external registry crates are available. This module implements
//! xoshiro256++ (Blackman & Vigna) seeded through SplitMix64 — the same
//! construction `rand`'s small RNGs use — in ~60 lines of dependency-free
//! code. It is **not** cryptographically secure; it is a statistical
//! generator for simulation and testing.
//!
//! # Example
//!
//! ```
//! use accelwall_stats::rng::Rng;
//!
//! let mut a = Rng::seed(42);
//! let mut b = Rng::seed(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x = a.uniform(10.0, 20.0);
//! assert!((10.0..20.0).contains(&x));
//! ```

/// Deterministic xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in the half-open interval `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Log-uniform draw in `[lo, hi)`; both bounds must be positive.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.uniform(lo.ln(), hi.ln()).exp()
    }

    /// Uniform integer in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift bounded generation (Lemire); the slight modulo
        // bias of the plain approach is irrelevant here, but this is
        // just as cheap and unbiased enough for our range sizes.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform index into a slice of the given length; `len` must be
    /// non-zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Standard normal draw via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        let u1 = self.uniform(f64::EPSILON, 1.0);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Decorrelated-jitter backoff (the "decorrelated jitter" scheme from
/// the AWS architecture blog): the next sleep is drawn uniformly from
/// `[base, 3 * previous]` and clamped to `[base, cap]`.
///
/// Unlike pure exponential backoff, retries of concurrent failed
/// clients spread out instead of thundering back in lockstep, while the
/// `3 * previous` upper edge keeps the expected window growing toward
/// the cap. The artifact cache's retry schedule draws from it.
pub fn decorrelated_backoff(
    rng: &mut Rng,
    base: std::time::Duration,
    cap: std::time::Duration,
    previous: std::time::Duration,
) -> std::time::Duration {
    let base_s = base.as_secs_f64();
    let high_s = (previous.as_secs_f64() * 3.0).max(base_s);
    let drawn = rng.uniform(base_s, high_s);
    std::time::Duration::from_secs_f64(drawn.clamp(base_s, cap.as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::seed(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::seed(8);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = Rng::seed(1);
        for _ in 0..10_000 {
            let x = r.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn below_covers_the_range_uniformly() {
        let mut r = Rng::seed(2);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            // Expect 10_000 per bucket; allow ±6%.
            assert!((9_400..=10_600).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn std_normal_moments_are_sane() {
        let mut r = Rng::seed(3);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| r.std_normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn decorrelated_backoff_stays_in_bounds_and_grows_toward_the_cap() {
        use std::time::Duration;
        let base = Duration::from_millis(25);
        let cap = Duration::from_secs(2);
        let mut r = Rng::seed(11);
        let mut sleep = base;
        let mut seen_past_double = false;
        for _ in 0..200 {
            sleep = decorrelated_backoff(&mut r, base, cap, sleep);
            assert!(sleep >= base, "undershot base: {sleep:?}");
            assert!(sleep <= cap, "overshot cap: {sleep:?}");
            seen_past_double |= sleep > base * 2;
        }
        assert!(seen_past_double, "jitter never grew past 2x base");
    }

    #[test]
    fn decorrelated_backoff_actually_jitters() {
        use std::time::Duration;
        let base = Duration::from_millis(25);
        let cap = Duration::from_secs(2);
        let mut r = Rng::seed(12);
        let prev = Duration::from_millis(100);
        let draws: Vec<Duration> = (0..64)
            .map(|_| decorrelated_backoff(&mut r, base, cap, prev))
            .collect();
        let mut distinct = draws.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 8, "draws collapsed: {draws:?}");
        // A zero/short previous sleep still sleeps at least the base.
        let floor = decorrelated_backoff(&mut r, base, cap, Duration::ZERO);
        assert_eq!(floor, base);
    }
}
