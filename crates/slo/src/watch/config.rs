//! Watchdog thresholds for the invariant monitors and the statistical
//! anomaly detectors.
//!
//! They are fixed: tuned so every healthy seeded drill, fleet run, and
//! admission storm in this workspace stays completely silent (the
//! no-false-positive pin in `tests/watch_chaos.rs` and the proptests
//! enforce this), while each seeded fault family crosses its detector
//! within the cycle bounds documented in DESIGN.md §10.

/// The watchdog's thresholds, as associated constants. The type has no
/// fields; [`crate::watch::WatchEvaluator::new`] takes one for callers written
/// against it.
#[derive(Debug, Default)]
pub struct WatchPolicy;

impl WatchPolicy {
    /// Slack on the delivery-conservation bound (W0101): delivered may
    /// exceed `min(demand, approved)` by this fraction before the
    /// monitor fires. Matches the drill's own settling bound (the
    /// Fig 12 test allows conform ≤ entitled × 1.25).
    pub const DELIVERY_EPSILON: f64 = 0.25;
    /// Cycles the approved rate must hold steady before W0101 is
    /// enforced — a contract rollover (the drill's minute-30 cut) gets
    /// this many cycles of metering reaction time.
    pub const SETTLE_CYCLES: u64 = 10;
    /// Slack on the marked/conforming fraction range checks (W0104).
    pub const FRACTION_EPSILON: f64 = 0.01;
    /// Fast EWMA smoothing factor for the drift detector.
    pub const EWMA_FAST_ALPHA: f64 = 0.3;
    /// Slow EWMA smoothing factor for the drift detector.
    pub const EWMA_SLOW_ALPHA: f64 = 0.05;
    /// Relative fast-vs-slow divergence at which the drift detector
    /// (W0106) fires.
    pub const DRIFT_THRESHOLD: f64 = 0.2;
    /// CUSUM slack `k`: per-sample deviations below this (relative to
    /// the frozen baseline) are absorbed, and the statistic drains at
    /// this rate once the series recovers.
    pub const CUSUM_SLACK: f64 = 0.5;
    /// CUSUM decision threshold `h`: the detector fires when the
    /// accumulated statistic reaches it. The statistic is capped at
    /// `2h`, which bounds the post-recovery clear time.
    pub const CUSUM_THRESHOLD: f64 = 8.0;
    /// Samples used to freeze each CUSUM baseline mean before the
    /// statistic accumulates.
    pub const WARMUP: u64 = 20;
    /// Consecutive calm observations required before a firing detector
    /// clears.
    pub const HYSTERESIS: usize = 5;
    /// A firing detector's statistic must stay at or below
    /// `CLEAR_FRACTION × threshold` through the hysteresis run. Strictly
    /// below 1, so a monotone statistic can never flap (refiring needs
    /// a level the series already fell below).
    pub const CLEAR_FRACTION: f64 = 0.5;

    /// Short detector-parameter label for reports, e.g.
    /// `ewma(0.3/0.05)>0.2 cusum(k=0.5,h=8)`.
    #[must_use]
    pub fn detector_label() -> String {
        format!(
            "ewma({}/{})>{} cusum(k={},h={})",
            Self::EWMA_FAST_ALPHA,
            Self::EWMA_SLOW_ALPHA,
            Self::DRIFT_THRESHOLD,
            Self::CUSUM_SLACK,
            Self::CUSUM_THRESHOLD
        )
    }
}

// The threshold geometry the detectors rely on.
const _: () = {
    assert!(WatchPolicy::CLEAR_FRACTION > 0.0 && WatchPolicy::CLEAR_FRACTION < 1.0);
    assert!(WatchPolicy::EWMA_SLOW_ALPHA > 0.0);
    assert!(WatchPolicy::EWMA_SLOW_ALPHA < WatchPolicy::EWMA_FAST_ALPHA);
    assert!(WatchPolicy::EWMA_FAST_ALPHA <= 1.0);
    assert!(WatchPolicy::WARMUP >= 1 && WatchPolicy::HYSTERESIS >= 1);
    assert!(WatchPolicy::DELIVERY_EPSILON >= 0.0 && WatchPolicy::FRACTION_EPSILON >= 0.0);
    assert!(WatchPolicy::DRIFT_THRESHOLD > 0.0);
    assert!(WatchPolicy::CUSUM_SLACK > 0.0 && WatchPolicy::CUSUM_THRESHOLD > 0.0);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_label_is_stable() {
        assert_eq!(
            WatchPolicy::detector_label(),
            "ewma(0.3/0.05)>0.2 cusum(k=0.5,h=8)"
        );
    }
}
