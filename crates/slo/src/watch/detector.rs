//! Statistical anomaly detectors: CUSUM changepoint and EWMA drift,
//! each stepping the fire/clear machine the burn alerts use
//! ([`AlertMachine`]).
//!
//! A detector fires when its statistic reaches its threshold and
//! clears only after the statistic has stayed at or below
//! `CLEAR_FRACTION × threshold` for a full hysteresis run. The clear
//! level sits strictly below the fire level, so for any *monotone*
//! statistic series the machine provably never flaps (fire → clear →
//! fire needs the statistic to rise back above a level it already fell
//! below) — the proptests in `tests/detector_props.rs` pin this,
//! mirroring the burn-alert no-flap obligation.

use crate::watch::config::WatchPolicy;
use crate::{AlertKind, AlertMachine};

/// One detector state transition, with the statistic that caused it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WatchTransition {
    /// Fire or clear.
    pub kind: AlertKind,
    /// The detector statistic at the transition.
    pub stat: f64,
}

/// Step `machine` on one statistic sample against `threshold`.
fn step(machine: &mut AlertMachine, stat: f64, threshold: f64) -> Option<WatchTransition> {
    let fire = stat >= threshold;
    let calm = stat <= WatchPolicy::CLEAR_FRACTION * threshold;
    let kind = machine.step(fire, calm, WatchPolicy::HYSTERESIS)?;
    Some(WatchTransition { kind, stat })
}

/// One-sided CUSUM changepoint detector over a positive-mean series.
///
/// The baseline mean `μ₀` is frozen from the first `warmup` samples;
/// after that each sample contributes its baseline-relative excess
/// minus the slack `k`:
/// `S ← clamp(S + (x − μ₀)/max(μ₀, 1) − k, 0, 2h)`.
/// A constant (or below-baseline) series keeps `S` at zero forever, so
/// it can never fire; once the series recovers after an excursion, `S`
/// drains at ≥ `k` per sample from its `2h` cap, which bounds the
/// clear time by `⌈1.5h/k⌉ + hysteresis` samples.
#[derive(Clone, Debug, Default)]
pub struct Cusum {
    seen: u64,
    baseline_sum: f64,
    mu0: Option<f64>,
    stat: f64,
    machine: AlertMachine,
}

impl Cusum {
    /// Fold one sample; returns a fire/clear transition if one
    /// happened.
    pub fn observe(&mut self, x: f64) -> Option<WatchTransition> {
        if !x.is_finite() {
            return None;
        }
        self.seen += 1;
        let Some(mu0) = self.mu0 else {
            self.baseline_sum += x;
            if self.seen >= WatchPolicy::WARMUP {
                self.mu0 = Some(self.baseline_sum / self.seen as f64);
            }
            return None;
        };
        let scale = mu0.abs().max(1.0);
        let h = WatchPolicy::CUSUM_THRESHOLD;
        self.stat = (self.stat + (x - mu0) / scale - WatchPolicy::CUSUM_SLACK).clamp(0.0, 2.0 * h);
        step(&mut self.machine, self.stat, h)
    }

    /// Current statistic `S`.
    #[must_use]
    pub fn stat(&self) -> f64 {
        self.stat
    }

    /// Whether the detector is currently firing.
    #[must_use]
    pub fn firing(&self) -> bool {
        self.machine.firing()
    }
}

/// EWMA drift detector: a fast and a slow exponentially-weighted mean
/// over the same series; the statistic is their divergence relative to
/// the slow mean, `|fast − slow| / max(|slow|, 1)`. A constant series
/// keeps both means equal (statistic exactly zero), so it can never
/// fire.
#[derive(Clone, Debug, Default)]
pub struct EwmaDrift {
    fast: Option<f64>,
    slow: Option<f64>,
    stat: f64,
    machine: AlertMachine,
}

impl EwmaDrift {
    /// Fold one sample; returns a fire/clear transition if one
    /// happened.
    pub fn observe(&mut self, x: f64) -> Option<WatchTransition> {
        if !x.is_finite() {
            return None;
        }
        let fast = match self.fast {
            Some(f) => f + WatchPolicy::EWMA_FAST_ALPHA * (x - f),
            None => x,
        };
        let slow = match self.slow {
            Some(s) => s + WatchPolicy::EWMA_SLOW_ALPHA * (x - s),
            None => x,
        };
        self.fast = Some(fast);
        self.slow = Some(slow);
        self.stat = (fast - slow).abs() / slow.abs().max(1.0);
        step(&mut self.machine, self.stat, WatchPolicy::DRIFT_THRESHOLD)
    }

    /// Current drift statistic.
    #[must_use]
    pub fn stat(&self) -> f64 {
        self.stat
    }

    /// Whether the detector is currently firing.
    #[must_use]
    pub fn firing(&self) -> bool {
        self.machine.firing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_statistic_fires_at_the_threshold_and_clears_at_half_of_it() {
        let mut m = AlertMachine::default();
        let mut kinds = Vec::new();
        for s in [0.0, 2.0, 11.0, 12.0, 9.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0] {
            if let Some(t) = step(&mut m, s, 10.0) {
                kinds.push(t.kind);
            }
        }
        assert_eq!(kinds, vec![AlertKind::Fire, AlertKind::Clear]);
        assert!(!m.firing());
    }

    #[test]
    fn cusum_constant_series_never_fires() {
        let mut c = Cusum::default();
        for _ in 0..500 {
            assert!(c.observe(30_000.0).is_none());
        }
        assert_eq!(c.stat(), 0.0);
        assert!(!c.firing());
    }

    #[test]
    fn cusum_step_change_fires_and_recovery_clears() {
        let mut c = Cusum::default();
        for _ in 0..WatchPolicy::WARMUP {
            c.observe(100.0);
        }
        // Step to 3× baseline: each sample adds 2 − k = 1.5 to S.
        let mut fired_at = None;
        for i in 0..20 {
            if let Some(t) = c.observe(300.0) {
                assert_eq!(t.kind, AlertKind::Fire);
                fired_at = Some(i);
                break;
            }
        }
        // h = 8, per-sample gain 1.5 → fires on the 6th sample.
        assert_eq!(fired_at, Some(5));
        // Recovery: S drains from its 2h cap at k per sample, then the
        // hysteresis run completes. Bound: 2h/k + hysteresis = 37.
        let mut cleared_at = None;
        for i in 0..60 {
            if let Some(t) = c.observe(100.0) {
                assert_eq!(t.kind, AlertKind::Clear);
                cleared_at = Some(i);
                break;
            }
        }
        let cleared = cleared_at.expect("clears after recovery");
        assert!(cleared <= 37, "cleared at {cleared}");
        assert!(!c.firing());
    }

    #[test]
    fn ewma_constant_series_has_zero_drift() {
        let mut d = EwmaDrift::default();
        for _ in 0..200 {
            assert!(d.observe(1.0).is_none());
            assert_eq!(d.stat(), 0.0);
        }
    }

    #[test]
    fn ewma_level_shift_fires_and_clears_after_reconvergence() {
        let mut d = EwmaDrift::default();
        for _ in 0..50 {
            d.observe(1.0);
        }
        let mut kinds = Vec::new();
        for _ in 0..30 {
            if let Some(t) = d.observe(0.0) {
                kinds.push(t.kind);
            }
        }
        assert_eq!(kinds, vec![AlertKind::Fire], "level shift fires once");
        // The means reconverge on the new level; drift shrinks to zero
        // and the machine clears exactly once.
        for _ in 0..200 {
            if let Some(t) = d.observe(0.0) {
                kinds.push(t.kind);
            }
        }
        assert_eq!(kinds, vec![AlertKind::Fire, AlertKind::Clear]);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut c = Cusum::default();
        let mut d = EwmaDrift::default();
        for _ in 0..100 {
            assert!(c.observe(f64::NAN).is_none());
            assert!(d.observe(f64::INFINITY).is_none());
        }
        assert!(!c.firing());
        assert!(!d.firing());
    }
}
