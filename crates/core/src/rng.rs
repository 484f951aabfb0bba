//! Deterministic random number utilities.
//!
//! Every simulation in this workspace takes an explicit `u64` seed so runs
//! are reproducible. [`DetRng`] wraps a small, fast xoshiro256++ generator
//! (implemented here to avoid depending on `rand`'s unstable seeding
//! across versions for determinism-critical paths) and layers the
//! distributions the workload and risk models need: uniform, normal
//! (Box–Muller), lognormal, exponential, Pareto, and Zipf.

use serde::{Deserialize, Serialize};

/// A deterministic RNG with the distribution helpers used across crates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DetRng {
    s: [u64; 4],
    /// Cached second normal variate from Box–Muller.
    spare_normal: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Seed the generator. Distinct seeds give independent streams.
    #[inline]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            spare_normal: None,
        }
    }

    /// Derive an independent sub-stream, e.g. one per simulated host.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        let base = self.next_u64();
        DetRng::new(base ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit value (xoshiro256++).
    #[inline]
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

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits -> [0, 1) double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "usize(0)");
        // Multiply-shift rejection-free bounded sampling (Lemire); the tiny
        // modulo bias is irrelevant for simulation purposes.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller (caches the spare variate).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0).
        let u1 = self.f64().max(1e-300);
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        self.spare_normal = Some(r * s);
        r * c
    }

    /// Lognormal with the given log-space mu/sigma.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential with the given rate `lambda`.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        -self.f64().max(1e-300).ln() / lambda
    }

    /// Pareto with scale `xm` and shape `alpha` (heavy-tailed service sizes).
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        xm / self.f64().max(1e-300).powf(1.0 / alpha)
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s`, via inverse
    /// CDF over precomputable weights (small n only — ontology sampling).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0);
        let norm: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let mut target = self.f64() * norm;
        for k in 1..=n {
            target -= (k as f64).powf(-s);
            if target <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (k <= n).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n);
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(7);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = DetRng::new(11);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let z = r.normal();
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = DetRng::new(13);
        let n = 100_000;
        let m: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((m - 0.5).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn pareto_is_heavy_tailed_and_bounded_below() {
        let mut r = DetRng::new(17);
        for _ in 0..10_000 {
            assert!(r.pareto(1.0, 1.5) >= 1.0);
        }
    }

    #[test]
    fn zipf_rank0_dominates() {
        let mut r = DetRng::new(19);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[r.zipf(10, 1.2)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[5]);
    }

    #[test]
    fn usize_bounds_and_shuffle_permutes() {
        let mut r = DetRng::new(23);
        for _ in 0..1000 {
            assert!(r.usize(7) < 7);
        }
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = DetRng::new(29);
        let s = r.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let mut d = s.clone();
        d.dedup();
        assert_eq!(d.len(), 10);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = DetRng::new(5);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }
}
