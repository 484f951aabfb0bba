//! Multi-window burn-rate alerting.
//!
//! The *burn rate* of a window is the fraction of bad intervals in it
//! divided by the error budget (`1 − target`): burn 1 means the budget
//! is being spent exactly at the rate that exhausts it by period end;
//! burn 14 over a 5-cycle window means a sharp incident. Following SRE
//! multi-burn-rate practice an alert fires only when **both** the fast
//! and the slow window exceed their thresholds — the fast window gives
//! low detection latency, the slow window keeps one-cycle blips from
//! paging — and clears only after the fast burn has stayed below
//! `clear_fraction × threshold` for a full hysteresis run of cycles.
//!
//! The clear threshold sits strictly below the fire threshold, so for
//! any *monotone* burn series the state machine can never flap
//! (fire → clear → fire): refiring needs the burn to rise back above a
//! level it already fell below. The proptests pin this.

use crate::config::SloPolicy;

/// A fixed-capacity ring of good/bad interval outcomes.
#[derive(Clone, Debug)]
pub struct BurnWindow {
    buf: Vec<bool>,
    cap: usize,
    next: usize,
    filled: usize,
    bad: usize,
}

impl BurnWindow {
    /// New window over `cap` cycles (`cap` ≥ 1 enforced by
    /// [`SloPolicy::validate`]; a zero cap is clamped to 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        BurnWindow {
            buf: vec![false; cap],
            cap,
            next: 0,
            filled: 0,
            bad: 0,
        }
    }

    /// Record one interval outcome, evicting the oldest when full.
    pub fn push(&mut self, bad: bool) {
        if self.filled == self.cap {
            if self.buf[self.next] {
                self.bad -= 1;
            }
        } else {
            self.filled += 1;
        }
        self.buf[self.next] = bad;
        if bad {
            self.bad += 1;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Fraction of bad intervals among those recorded so far (0 while
    /// empty). Until the window fills, the denominator is the *window
    /// capacity*, not the fill level: a half-full window of all-bad
    /// cycles burns at half rate, so short traces cannot over-alarm.
    #[must_use]
    pub fn bad_fraction(&self) -> f64 {
        self.bad as f64 / self.cap as f64
    }

    /// Number of recorded intervals (saturates at the capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.filled
    }

    /// Whether no interval has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }
}

/// Whether an alert transition fires or clears.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// Both windows crossed their burn thresholds.
    Fire,
    /// The fast burn stayed calm for a full hysteresis window.
    Clear,
}

impl AlertKind {
    /// Stable lowercase form used in trace labels and reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AlertKind::Fire => "fire",
            AlertKind::Clear => "clear",
        }
    }
}

/// One state transition of a [`BurnAlert`], with the burns that
/// caused it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AlertTransition {
    /// Fire or clear.
    pub kind: AlertKind,
    /// Fast-window burn rate at the transition.
    pub fast_burn: f64,
    /// Slow-window burn rate at the transition.
    pub slow_burn: f64,
}

/// The fire/clear state machine every alert in the workspace steps:
/// the burn alerts here and the watchdog's CUSUM and EWMA detectors.
///
/// A calm machine fires on the first step whose `fire` predicate
/// holds; a firing machine clears after `hysteresis` consecutive steps
/// whose `calm` predicate holds, and a step that is not calm restarts
/// that run. Each driver's calm level sits strictly below its fire
/// level, so a monotone series cannot flap.
#[derive(Clone, Debug, Default)]
pub struct AlertMachine {
    firing: bool,
    calm: usize,
}

impl AlertMachine {
    /// Advance one step; returns the transition it caused, if any.
    pub fn step(&mut self, fire: bool, calm: bool, hysteresis: usize) -> Option<AlertKind> {
        if !self.firing {
            self.firing = fire;
            return fire.then_some(AlertKind::Fire);
        }
        if !calm {
            self.calm = 0;
            return None;
        }
        self.calm += 1;
        if self.calm < hysteresis {
            return None;
        }
        *self = AlertMachine::default();
        Some(AlertKind::Clear)
    }

    /// Whether the machine is firing.
    #[must_use]
    pub fn firing(&self) -> bool {
        self.firing
    }
}

/// The two-window burn-rate alert for one `(entity, QoS)` series.
#[derive(Clone, Debug)]
pub struct BurnAlert {
    fast: BurnWindow,
    slow: BurnWindow,
    budget: f64,
    fast_threshold: f64,
    slow_threshold: f64,
    clear_fraction: f64,
    hysteresis: usize,
    machine: AlertMachine,
}

impl BurnAlert {
    /// New alert for an SLO `target` under `policy`. The error budget
    /// is `1 − target`, floored at a tiny epsilon so a 1.0 target
    /// degenerates to "any bad interval burns infinitely fast" without
    /// dividing by zero.
    #[must_use]
    pub fn new(policy: &SloPolicy, target: f64) -> Self {
        BurnAlert {
            fast: BurnWindow::new(policy.fast_window),
            slow: BurnWindow::new(policy.slow_window),
            budget: (1.0 - target.clamp(0.0, 1.0)).max(1e-9),
            fast_threshold: policy.fast_burn,
            slow_threshold: policy.slow_burn,
            clear_fraction: policy.clear_fraction,
            hysteresis: policy.hysteresis,
            machine: AlertMachine::default(),
        }
    }

    /// Record one interval outcome; returns the transition it caused,
    /// if any.
    pub fn observe(&mut self, bad: bool) -> Option<AlertTransition> {
        self.fast.push(bad);
        self.slow.push(bad);
        let fast = self.fast.bad_fraction() / self.budget;
        let slow = self.slow.bad_fraction() / self.budget;
        self.observe_burn(fast, slow)
    }

    /// Advance the state machine on precomputed burn rates: fire when
    /// both burns reach their thresholds, calm while the fast burn is at
    /// or below `clear_fraction × fast threshold`. This is the raw
    /// transition logic [`observe`](Self::observe) delegates to;
    /// exposed so offline series (and the no-flap proptests) can drive
    /// the machine directly.
    pub fn observe_burn(&mut self, fast_burn: f64, slow_burn: f64) -> Option<AlertTransition> {
        let fire = fast_burn >= self.fast_threshold && slow_burn >= self.slow_threshold;
        let calm = fast_burn <= self.clear_fraction * self.fast_threshold;
        let kind = self.machine.step(fire, calm, self.hysteresis)?;
        Some(AlertTransition {
            kind,
            fast_burn,
            slow_burn,
        })
    }

    /// Whether the alert is currently firing.
    #[must_use]
    pub fn firing(&self) -> bool {
        self.machine.firing()
    }

    /// Current fast-window burn rate.
    #[must_use]
    pub fn fast_burn(&self) -> f64 {
        self.fast.bad_fraction() / self.budget
    }

    /// Current slow-window burn rate.
    #[must_use]
    pub fn slow_burn(&self) -> f64 {
        self.slow.bad_fraction() / self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SloPolicy {
        SloPolicy::default()
    }

    #[test]
    fn window_ring_tracks_bad_fraction() {
        let mut w = BurnWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.bad_fraction(), 0.0);
        w.push(true);
        w.push(false);
        // Partial fill divides by capacity: 1 bad of cap 4.
        assert_eq!(w.bad_fraction(), 0.25);
        w.push(true);
        w.push(true);
        assert_eq!(w.len(), 4);
        assert_eq!(w.bad_fraction(), 0.75);
        // Eviction: the first (bad) sample rolls off.
        w.push(false);
        assert_eq!(w.bad_fraction(), 0.5);
    }

    #[test]
    fn a_calm_run_restarts_on_a_step_that_is_not_calm() {
        let mut m = AlertMachine::default();
        assert_eq!(m.step(true, false, 5), Some(AlertKind::Fire));
        // 4 calm steps, one that is not, then 4 more: no clear yet.
        for calm in [true, true, true, true, false, true, true, true, true] {
            assert_eq!(m.step(false, calm, 5), None);
        }
        assert!(m.firing());
        assert_eq!(m.step(false, true, 5), Some(AlertKind::Clear), "5th calm step");
        assert!(!m.firing());
    }

    #[test]
    fn sustained_outage_fires_and_recovery_clears() {
        // target 0.99 → budget 0.01; all-bad fast window burns at 100×.
        let mut alert = BurnAlert::new(&policy(), 0.99);
        let mut fired_at = None;
        for i in 0..60 {
            if let Some(t) = alert.observe(true) {
                assert_eq!(t.kind, AlertKind::Fire);
                fired_at = Some(i);
                break;
            }
        }
        // Slow window (cap 60) gates: needs slow burn ≥ 2 → ≥ 2% of 60
        // cycles bad → fires on the 2nd bad cycle.
        assert_eq!(fired_at, Some(1));
        assert!(alert.firing());
        // Recovery: fast window (cap 5) flushes in 5 cycles, then the
        // hysteresis run of 5 calm cycles must complete.
        let mut cleared_at = None;
        for i in 0..40 {
            if let Some(t) = alert.observe(false) {
                assert_eq!(t.kind, AlertKind::Clear);
                cleared_at = Some(i);
                break;
            }
        }
        let cleared = cleared_at.expect("alert clears after recovery");
        assert!((6..=12).contains(&cleared), "cleared at {cleared}");
        assert!(!alert.firing());
    }

    #[test]
    fn single_blip_does_not_fire() {
        let mut alert = BurnAlert::new(&policy(), 0.99);
        // 1 bad cycle in 60: the fast burn spikes to 20 (≥ the 14×
        // threshold) but the slow window never reaches 2× — multi-window
        // gating keeps the blip from paging.
        for i in 0..60 {
            let bad = i == 10;
            assert!(alert.observe(bad).is_none(), "fired on a blip at {i}");
        }
        assert!(!alert.firing());
    }

    #[test]
    fn refire_needs_a_fresh_crossing() {
        let mut alert = BurnAlert::new(&policy(), 0.99);
        let mut kinds = Vec::new();
        for _ in 0..30 {
            if let Some(t) = alert.observe(true) {
                kinds.push(t.kind);
            }
        }
        for _ in 0..30 {
            if let Some(t) = alert.observe(false) {
                kinds.push(t.kind);
            }
        }
        for _ in 0..30 {
            if let Some(t) = alert.observe(true) {
                kinds.push(t.kind);
            }
        }
        assert_eq!(
            kinds,
            vec![AlertKind::Fire, AlertKind::Clear, AlertKind::Fire],
            "a genuine second outage refires after a clean clear"
        );
    }

    #[test]
    fn perfect_target_budget_is_floored() {
        let mut alert = BurnAlert::new(&policy(), 1.0);
        // One bad interval at a 1.0 target burns astronomically; both
        // windows cross immediately and the machine still functions.
        assert!(alert.observe(true).is_some());
    }
}
