//! The log-bucketed histogram the metrics fold and the trace summaries
//! record into. It is `Arc`-backed — cloning shares the underlying
//! cells, so several owners (worker threads) can record into one
//! without locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Buckets per decade of the log-spaced histogram layout.
const BUCKETS_PER_DECADE: i32 = 4;
/// Lowest decade exponent covered (10^-3 = 0.001).
const MIN_DECADE: i32 = -3;
/// Highest decade exponent covered (10^7).
const MAX_DECADE: i32 = 7;
/// Number of finite bucket boundaries.
const N_BOUNDS: usize = ((MAX_DECADE - MIN_DECADE) * BUCKETS_PER_DECADE + 1) as usize;

/// The shared, precomputed upper boundaries (`le` values) of the
/// finite buckets: `10^(k / 4)` for `k` in `-12..=28`, i.e. four
/// log-spaced buckets per decade from 1 ms-scale to 10^7.
fn bounds() -> &'static [f64; N_BOUNDS] {
    use std::sync::OnceLock;
    static BOUNDS: OnceLock<[f64; N_BOUNDS]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut b = [0.0; N_BOUNDS];
        for (i, slot) in b.iter_mut().enumerate() {
            let k = MIN_DECADE * BUCKETS_PER_DECADE + i as i32;
            *slot = 10f64.powf(f64::from(k) / f64::from(BUCKETS_PER_DECADE));
        }
        b
    })
}

struct HistogramInner {
    /// Per-bucket (non-cumulative) counts; index `N_BOUNDS` is the
    /// overflow (`+Inf`) bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// `f64` bit patterns maintained by CAS loops.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// A log-bucketed histogram of `f64` observations.
///
/// Fixed layout (four buckets per decade over
/// `10^-3..10^7`) keeps every histogram mergeable with every other and
/// avoids per-metric configuration. Quantile estimates interpolate
/// within a bucket and are always clamped to the observed
/// `[min, max]` range.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self(Arc::new(HistogramInner {
            buckets: (0..=N_BOUNDS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }

    /// Record one observation. Non-finite values are ignored.
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = bounds().partition_point(|&b| b < v).min(N_BOUNDS);
        self.0.buckets[idx].fetch_add(1, Ordering::AcqRel);
        self.0.count.fetch_add(1, Ordering::AcqRel);
        fold_bits(&self.0.sum_bits, |cur| cur + v);
        fold_bits(&self.0.min_bits, |cur| cur.min(v));
        fold_bits(&self.0.max_bits, |cur| cur.max(v));
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Acquire)
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Acquire))
    }

    /// Smallest observation, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        let v = f64::from_bits(self.0.min_bits.load(Ordering::Acquire));
        v.is_finite().then_some(v)
    }

    /// Largest observation, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        let v = f64::from_bits(self.0.max_bits.load(Ordering::Acquire));
        v.is_finite().then_some(v)
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`) by linear
    /// interpolation within the containing bucket, clamped to the
    /// observed `[min, max]`. Returns `None` for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let (min, max) = (self.min()?, self.max()?);
        let target = q.clamp(0.0, 1.0) * count as f64;
        let bs = bounds();
        let mut cum = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Acquire);
            if n == 0 {
                continue;
            }
            let prev = cum;
            cum += n;
            if (cum as f64) < target {
                continue;
            }
            // The overflow bucket has no finite upper bound; use the
            // observed maximum as its upper edge.
            // The first bucket has no finite lower bound either; its
            // lower edge is the observed minimum (any count in bucket 0
            // implies min landed there), not 0.0 — interpolating from
            // zero drags low quantiles below every actual observation.
            let (lower, upper) = if i >= N_BOUNDS {
                (bs[N_BOUNDS - 1], max)
            } else if i == 0 {
                (min, bs[0])
            } else {
                (bs[i - 1], bs[i])
            };
            let frac = ((target - prev as f64) / n as f64).clamp(0.0, 1.0);
            return Some((lower + frac * (upper - lower)).clamp(min, max));
        }
        Some(max)
    }

    /// The p99.9 tail estimate — [`Histogram::quantile`] at `0.999`.
    /// The named accessor exists because every latency table and bench
    /// record in the workspace reports this exact tail; `None` when
    /// empty.
    #[must_use]
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// Fold another histogram's observations into this one. Bucket
    /// counts, count, min, and max merge exactly; the sums add.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.0.buckets.iter().zip(&other.0.buckets) {
            dst.fetch_add(src.load(Ordering::Acquire), Ordering::AcqRel);
        }
        self.0
            .count
            .fetch_add(other.count(), Ordering::AcqRel);
        let (os, omin, omax) = (other.sum(), other.min(), other.max());
        if other.count() > 0 {
            fold_bits(&self.0.sum_bits, |cur| cur + os);
        }
        if let Some(m) = omin {
            fold_bits(&self.0.min_bits, |cur| cur.min(m));
        }
        if let Some(m) = omax {
            fold_bits(&self.0.max_bits, |cur| cur.max(m));
        }
    }

    /// A point-in-time copy for rendering and comparison.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let bs = bounds();
        let mut cumulative = Vec::with_capacity(N_BOUNDS);
        let mut cum = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate().take(N_BOUNDS) {
            cum += bucket.load(Ordering::Acquire);
            cumulative.push((bs[i], cum));
        }
        HistogramSnapshot {
            cumulative,
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// Cumulative-bucket snapshot of a [`Histogram`], in Prometheus `le`
/// form (the final `+Inf` bucket is implied by `count`).
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// `(le, cumulative_count)` for each finite boundary, ascending.
    pub cumulative: Vec<(f64, u64)>,
    /// Total number of observations (also the `+Inf` cumulative count).
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation, if any.
    pub min: Option<f64>,
    /// Largest observation, if any.
    pub max: Option<f64>,
}

/// CAS-update an atomic holding `f64` bits with a pure fold.
///
/// The success ordering must be `AcqRel`: a `Relaxed` CAS here would
/// let a reader observe the folded sum without a happens-before edge
/// from the fold that produced it, so the read is not ordered after
/// the observations it claims to summarize. The loop retries on a
/// stale `cur`, so concurrent recorders never lose an update
/// (`tests/histogram_props.rs` records from four threads at once).
fn fold_bits(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Acquire);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic_stats() {
        let h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 10.0).abs() < 1e-12);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(f64::from(i));
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((300.0..=700.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= p50, "p99 {p99} >= p50 {p50}");
        assert!(p99 <= 1000.0);
        assert_eq!(h.quantile(0.0).unwrap(), 1.0); // clamped to min
        assert_eq!(h.quantile(1.0).unwrap(), 1000.0); // clamped to max
    }

    #[test]
    fn quantile_of_out_of_range_values() {
        let h = Histogram::new();
        h.record(1e-9); // below the first boundary: lands in bucket 0
        h.record(1e12); // above the last: overflow bucket
        for q in [0.01, 0.5, 0.99] {
            let est = h.quantile(q).unwrap();
            assert!((1e-9..=1e12).contains(&est), "q={q} bounded: {est}");
        }
        assert_eq!(h.quantile(1.0), Some(1e12)); // q=1 pins to max
    }

    #[test]
    fn single_sample_quantiles_equal_the_sample() {
        // Regression: bucket 0 used to interpolate from a 0.0 lower
        // edge, so a lone sub-millisecond sample reported quantiles
        // below itself. The lower edge is now the observed minimum.
        let h = Histogram::new();
        h.record(2e-4);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(2e-4), "q={q}");
        }
    }

    #[test]
    fn first_bucket_interpolates_from_observed_min() {
        // Two samples in bucket 0 (bound 1e-3): min 2e-4 is the lower
        // edge, so the median interpolates to 2e-4 + 0.5·(1e-3 − 2e-4)
        // = 6e-4 — not the 5e-4 a zero lower edge would give.
        let h = Histogram::new();
        h.record(2e-4);
        h.record(1e-3);
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 6e-4).abs() < 1e-12, "p50 {p50}");
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn merge_matches_batch() {
        let a = Histogram::new();
        let b = Histogram::new();
        let batch = Histogram::new();
        for v in [0.5, 1.5, 250.0] {
            a.record(v);
            batch.record(v);
        }
        for v in [0.001, 9.0, 1e8] {
            b.record(v);
            batch.record(v);
        }
        a.merge_from(&b);
        let (ma, mb) = (a.snapshot(), batch.snapshot());
        assert_eq!(ma.cumulative, mb.cumulative);
        assert_eq!(ma.count, mb.count);
        assert_eq!(ma.min, mb.min);
        assert_eq!(ma.max, mb.max);
        assert!((ma.sum - mb.sum).abs() <= 1e-9 * mb.sum.abs().max(1.0));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = Histogram::new();
        a.record(7.0);
        let before = a.snapshot();
        a.merge_from(&Histogram::new());
        assert_eq!(a.snapshot(), before);
    }
}
