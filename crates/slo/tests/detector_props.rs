//! Property tests for the detector state machines: the no-flap
//! obligation the hysteresis design carries (mirroring the burn-alert
//! proofs), and the healthy-silence guarantees of the CUSUM and EWMA
//! detectors on calm series.

use entitlement_slo::watch::{Cusum, EwmaDrift, WatchPolicy};
use entitlement_slo::{AlertKind, AlertMachine};
use proptest::prelude::*;

/// A random threshold geometry for the fire/clear machine: clear level
/// strictly below the fire level, hysteresis run of at least one cycle.
fn geometry_strategy() -> impl Strategy<Value = (f64, f64, usize)> {
    (
        1.0f64..50.0,  // threshold
        0.05f64..0.95, // clear fraction
        1usize..10,    // hysteresis
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A monotone statistic series never flaps the hysteresis machine:
    /// non-decreasing series fire at most once and never clear after
    /// (the statistic can't fall back below a level it already
    /// crossed); non-increasing series fire at most on the first
    /// sample. Either way a second Fire is impossible.
    #[test]
    fn monotone_statistic_never_flaps(
        (threshold, clear, hysteresis) in geometry_strategy(),
        deltas in proptest::collection::vec(0.0f64..5.0, 1..200),
        start in 0.0f64..100.0,
        rising in any::<bool>(),
    ) {
        let mut h = AlertMachine::default();
        let mut stat = start;
        let mut kinds = Vec::new();
        for d in deltas {
            if let Some(kind) = h.step(stat >= threshold, stat <= clear * threshold, hysteresis) {
                kinds.push(kind);
            }
            stat = if rising { stat + d } else { (stat - d).max(0.0) };
        }
        let fires = kinds.iter().filter(|k| **k == AlertKind::Fire).count();
        prop_assert!(fires <= 1, "monotone series double-fired: {kinds:?}");
        // No Fire may follow a Clear (that would be the flap).
        if let Some(clear_at) = kinds.iter().position(|k| *k == AlertKind::Clear) {
            prop_assert!(
                kinds[clear_at..].iter().all(|k| *k != AlertKind::Fire),
                "fire after clear: {kinds:?}"
            );
        }
    }

    /// A constant series never fires the CUSUM: the baseline freezes on
    /// the constant, every increment is `-slack`, and the statistic
    /// stays clamped at zero.
    #[test]
    fn cusum_constant_series_never_fires(
        level in 0.0f64..1e9,
        n in 50usize..400,
    ) {
        let mut c = Cusum::default();
        for _ in 0..n {
            prop_assert!(c.observe(level).is_none());
        }
        prop_assert!(!c.firing());
        prop_assert_eq!(c.stat(), 0.0);
    }

    /// A constant series keeps the EWMA fast and slow means exactly
    /// equal, so the drift statistic is identically zero and the
    /// detector can never fire.
    #[test]
    fn ewma_constant_series_never_fires(
        level in -1e9f64..1e9,
        n in 10usize..400,
    ) {
        let mut d = EwmaDrift::default();
        for _ in 0..n {
            prop_assert!(d.observe(level).is_none());
            prop_assert_eq!(d.stat(), 0.0);
        }
        prop_assert!(!d.firing());
    }

    /// Below-baseline excursions can never fire the CUSUM either: the
    /// one-sided statistic clamps at zero on the way down.
    #[test]
    fn cusum_is_one_sided(
        baseline in 10.0f64..1e6,
        dips in proptest::collection::vec(0.0f64..1.0, 50..200),
    ) {
        let mut c = Cusum::default();
        for _ in 0..WatchPolicy::WARMUP {
            c.observe(baseline);
        }
        for d in dips {
            prop_assert!(c.observe(baseline * d).is_none());
        }
        prop_assert!(!c.firing());
    }
}
