//! Property tests for the log-bucketed histogram: quantile estimates
//! are always bounded by the observed min/max, merging histograms is
//! indistinguishable from batch-recording the union of their
//! observations, and recording from several threads at once loses
//! nothing (the histogram's atomics and a counter's alike).

use entitlement_obs::{Counter, Histogram};
use proptest::prelude::*;
use std::sync::Barrier;

/// Four threads record into one shared histogram at once; the result
/// must equal recording the same samples serially. The samples are
/// integers far below 2^53, so every partial sum is exact and the sum
/// is the same in any order: a mismatch in `sum`, `min`, `max`, `count`
/// or any bucket is a lost update, not float rounding. The same threads
/// bump one shared counter through both `inc` and `add`, and its total
/// must come out exact.
#[test]
fn concurrent_recording_equals_serial_recording() {
    const THREADS: u64 = 4;
    const SAMPLES: u64 = 10_000;
    // Counter bumps per thread: enough that the threads' loops overlap
    // although they wake from the barrier up to milliseconds apart.
    const BUMPS: u64 = 1_000_000;
    let sample = |t: u64, i: u64| ((t * SAMPLES + i) * 7_919 % 100_003) as f64;
    let serial = Histogram::new();
    for t in 0..THREADS {
        for i in 0..SAMPLES {
            serial.record(sample(t, i));
        }
    }
    let (shared, counter) = (Histogram::new(), Counter::new());
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (shared, counter, start) = (&shared, &counter, &start);
            scope.spawn(move || {
                start.wait();
                for _ in 0..BUMPS {
                    counter.inc();
                    counter.add(2);
                }
                for i in 0..SAMPLES {
                    shared.record(sample(t, i));
                }
            });
        }
    });
    assert_eq!(shared.count(), THREADS * SAMPLES);
    assert_eq!(shared.snapshot(), serial.snapshot());
    assert_eq!(counter.get(), THREADS * BUMPS * 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any set of observations and any quantile `q`, the estimate
    /// lies in `[min, max]` of what was actually recorded.
    #[test]
    fn quantiles_bounded_by_observed_range(
        values in proptest::collection::vec(1e-6f64..1e9, 1..200),
        q in 0.0f64..1.0,
    ) {
        let h = Histogram::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in &values {
            h.record(v);
            min = min.min(v);
            max = max.max(v);
        }
        let est = h.quantile(q).expect("non-empty");
        prop_assert!(est >= min, "q={q}: {est} < min {min}");
        prop_assert!(est <= max, "q={q}: {est} > max {max}");
        // Pinned endpoints: q=0 and q=1 are exactly min and max.
        prop_assert_eq!(h.quantile(0.0).unwrap(), min);
        prop_assert_eq!(h.quantile(1.0).unwrap(), max);
    }

    /// Quantile estimates are monotone in `q`.
    #[test]
    fn quantiles_monotone(
        values in proptest::collection::vec(1e-6f64..1e9, 1..100),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(h.quantile(lo).unwrap() <= h.quantile(hi).unwrap());
    }

    /// Splitting a stream of observations across two histograms and
    /// merging gives the same buckets, count, min, max, and quantiles
    /// as recording the whole stream into one histogram (sums agree to
    /// float-roundoff).
    #[test]
    fn merged_equals_batch(
        left in proptest::collection::vec(1e-6f64..1e9, 0..120),
        right in proptest::collection::vec(1e-6f64..1e9, 0..120),
    ) {
        let a = Histogram::new();
        let b = Histogram::new();
        let batch = Histogram::new();
        for &v in &left {
            a.record(v);
            batch.record(v);
        }
        for &v in &right {
            b.record(v);
            batch.record(v);
        }
        a.merge_from(&b);
        let (m, n) = (a.snapshot(), batch.snapshot());
        prop_assert_eq!(&m.cumulative, &n.cumulative);
        prop_assert_eq!(m.count, n.count);
        prop_assert_eq!(m.min, n.min);
        prop_assert_eq!(m.max, n.max);
        prop_assert!((m.sum - n.sum).abs() <= 1e-9 * n.sum.abs().max(1.0));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(a.quantile(q), batch.quantile(q), "q={}", q);
        }
    }
}
