//! Property tests for the log-bucketed histogram: quantile estimates
//! are always bounded by the observed min/max and monotone in `q`.

use entitlement_obs::Histogram;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any set of observations and any quantile `q`, the estimate
    /// lies in `[min, max]` of what was actually recorded.
    #[test]
    fn quantiles_bounded_by_observed_range(
        values in proptest::collection::vec(1e-6f64..1e9, 1..200),
        q in 0.0f64..1.0,
    ) {
        let mut h = Histogram::new();
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
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(h.quantile(lo).unwrap() <= h.quantile(hi).unwrap());
    }
}
