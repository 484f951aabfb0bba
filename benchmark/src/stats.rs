//! Order statistics, digests and the process's own memory reading.

/// Quantile `q` in `[0, 1]` of `n` ascending samples read through `at`,
/// interpolating linearly between the two order statistics around rank
/// `(n - 1) q` - so the median of eight calls is the mean of the fourth
/// and fifth, and does not jump when noise swaps those two.
pub fn quantile_of(n: usize, at: impl Fn(usize) -> f64, q: f64) -> f64 {
    assert!(n > 0, "quantile of no samples");
    let rank = (n - 1) as f64 * q;
    let below = rank.floor() as usize;
    let above = (below + 1).min(n - 1);
    at(below) + (at(above) - at(below)) * (rank - below as f64)
}

pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    quantile_of(sorted.len(), |i| sorted[i], q)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the driver's spread estimator.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// FNV-1a over 64-bit words: order-sensitive, cheap enough to fold ten
/// million words between repetitions.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Threads of this process right now (the harness checks it never
/// exceeds the core count).
#[cfg(not(test))]
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, Iterator::count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 4.5);
        assert_eq!(quantile(&v, 1.0), 8.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        let ns = [10u64, 20, 30, 40, 50];
        assert_eq!(quantile_of(ns.len(), |i| ns[i] as f64, 0.9), 46.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.word(1);
        a.word(2);
        let mut b = Digest::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }
}
