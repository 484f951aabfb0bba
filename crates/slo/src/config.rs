//! The SLO evaluation policy: window sizes, burn thresholds,
//! hysteresis, delivery tolerance, and the utilization audit bands.
//!
//! [`SloPolicy::validate`] reports nonsense configurations with the
//! same stable `E06xx` codes the static analyzer uses, so a bad
//! `entitlectl slo` flag set and a bad lint-bundle section read
//! identically.

use entitlement_core::Code;

/// One policy-validation finding: a stable code, the knobs it is
/// about, and a human message.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyIssue {
    /// Stable diagnostic code (`E0601`–`E0603`).
    pub code: Code,
    /// The [`SloPolicy`] fields the finding is about, by name: one for
    /// a knob out of its own range, two for a pair out of order. The
    /// CLI names their flags; the analyzer locates the finding at the
    /// first.
    pub knobs: &'static [&'static str],
    /// Human-readable description of the violation.
    pub message: String,
}

/// The knobs of the windowed SLO evaluator.
///
/// Defaults follow SRE multi-burn-rate practice scaled to the drill's
/// 30-second cycles: a 5-cycle fast window at 14× budget burn catches
/// sharp outages in minutes, a 60-cycle slow window at 2× filters
/// blips; hysteresis holds a firing alert until the fast burn has
/// stayed below `clear_fraction` of its threshold for a full
/// `hysteresis` run of cycles.
#[derive(Clone, Debug, PartialEq)]
pub struct SloPolicy {
    /// Fast burn window, in cycles.
    pub fast_window: usize,
    /// Slow burn window, in cycles. Must exceed `fast_window`.
    pub slow_window: usize,
    /// Fire when the fast-window burn rate reaches this multiple of
    /// the error budget (and the slow window agrees).
    pub fast_burn: f64,
    /// Slow-window burn-rate threshold.
    pub slow_burn: f64,
    /// A firing alert starts clearing once the fast burn drops to
    /// `clear_fraction * fast_burn`; must lie in (0, 1).
    pub clear_fraction: f64,
    /// Consecutive calm cycles required before a firing alert clears.
    pub hysteresis: usize,
    /// Fractional slack on the delivery check: an interval is good when
    /// `delivered ≥ min(demand, approved) · (1 − delivery_tolerance)`.
    /// Absorbs the metering convergence window after a contract cut.
    pub delivery_tolerance: f64,
    /// Mean demand / approved below this ⇒ **over-entitled** (the
    /// reservation is mostly headroom the paper would reclaim).
    pub under_utilization: f64,
    /// Mean demand / approved above this ⇒ **under-entitled** (demand
    /// presses against the approval; renegotiate upward).
    pub over_utilization: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            fast_window: 5,
            slow_window: 60,
            fast_burn: 14.0,
            slow_burn: 2.0,
            clear_fraction: 0.5,
            hysteresis: 5,
            delivery_tolerance: 0.15,
            under_utilization: 0.5,
            over_utilization: 0.95,
        }
    }
}

impl SloPolicy {
    /// The label describing this policy's alert windows, e.g.
    /// `fast5/slow60` — what a violated entity is reported with.
    #[must_use]
    pub fn window_label(&self) -> String {
        format!("fast{}/slow{}", self.fast_window, self.slow_window)
    }

    /// Validate the policy. An empty vec means usable; otherwise every
    /// finding carries its stable code:
    ///
    /// * `E0601` — a window (or the hysteresis) is zero, or the
    ///   delivery tolerance lies outside `[0, 1)`;
    /// * `E0602` — the fast window is not strictly shorter than the
    ///   slow window;
    /// * `E0603` — a burn threshold does not exceed 1 (burning slower
    ///   than the budget is not an incident), or the clear fraction
    ///   lies outside (0, 1).
    #[must_use]
    pub fn validate(&self) -> Vec<PolicyIssue> {
        let mut out = Vec::new();
        let mut issue = |code, knobs, message| {
            out.push(PolicyIssue {
                code,
                knobs,
                message,
            })
        };
        if self.fast_window == 0 || self.slow_window == 0 {
            issue(
                Code::E0601,
                &["fast_window", "slow_window"],
                format!(
                    "burn windows must be positive cycle counts (fast {}, slow {})",
                    self.fast_window, self.slow_window
                ),
            );
        }
        if self.hysteresis == 0 {
            issue(
                Code::E0601,
                &["hysteresis"],
                "hysteresis must be a positive cycle count".to_string(),
            );
        }
        if !self.delivery_tolerance.is_finite()
            || self.delivery_tolerance < 0.0
            || self.delivery_tolerance >= 1.0
        {
            issue(
                Code::E0601,
                &["delivery_tolerance"],
                format!(
                    "delivery tolerance {} outside [0, 1)",
                    self.delivery_tolerance
                ),
            );
        }
        if self.fast_window >= self.slow_window {
            issue(
                Code::E0602,
                &["fast_window", "slow_window"],
                format!(
                    "fast window ({} cycles) must be strictly shorter than the slow \
                     window ({} cycles)",
                    self.fast_window, self.slow_window
                ),
            );
        }
        for (name, knob, v) in [
            ("fast", &["fast_burn"], self.fast_burn),
            ("slow", &["slow_burn"], self.slow_burn),
        ] {
            if !v.is_finite() || v <= 1.0 {
                issue(
                    Code::E0603,
                    knob,
                    format!(
                        "{name} burn threshold {v} must exceed 1 (1× burn just spends \
                         the budget exactly)"
                    ),
                );
            }
        }
        if !self.clear_fraction.is_finite()
            || self.clear_fraction <= 0.0
            || self.clear_fraction >= 1.0
        {
            issue(
                Code::E0603,
                &["clear_fraction"],
                format!("clear fraction {} outside (0, 1)", self.clear_fraction),
            );
        }
        if !(self.under_utilization.is_finite()
            && self.over_utilization.is_finite()
            && self.under_utilization >= 0.0
            && self.under_utilization < self.over_utilization)
        {
            issue(
                Code::E0601,
                &["under_utilization", "over_utilization"],
                format!(
                    "audit bands must satisfy 0 ≤ under ({}) < over ({})",
                    self.under_utilization, self.over_utilization
                ),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        assert!(SloPolicy::default().validate().is_empty());
    }

    #[test]
    fn zero_window_fires_e0601() {
        let p = SloPolicy {
            fast_window: 0,
            ..Default::default()
        };
        let issues = p.validate();
        assert!(issues.iter().any(|i| i.code == Code::E0601), "{issues:?}");
    }

    #[test]
    fn fast_window_not_below_slow_fires_e0602() {
        let p = SloPolicy {
            fast_window: 60,
            slow_window: 60,
            ..Default::default()
        };
        assert!(p.validate().iter().any(|i| i.code == Code::E0602));
        let p = SloPolicy {
            fast_window: 90,
            slow_window: 60,
            ..Default::default()
        };
        assert!(p.validate().iter().any(|i| i.code == Code::E0602));
    }

    #[test]
    fn burn_threshold_at_or_below_one_fires_e0603() {
        for bad in [1.0, 0.5, 0.0, -3.0, f64::NAN] {
            let p = SloPolicy {
                fast_burn: bad,
                ..Default::default()
            };
            assert!(
                p.validate().iter().any(|i| i.code == Code::E0603),
                "fast_burn {bad}"
            );
        }
        let p = SloPolicy {
            slow_burn: 1.0,
            ..Default::default()
        };
        assert!(p.validate().iter().any(|i| i.code == Code::E0603));
    }

    #[test]
    fn tolerance_and_clear_fraction_ranges() {
        let p = SloPolicy {
            delivery_tolerance: 1.0,
            ..Default::default()
        };
        assert!(p.validate().iter().any(|i| i.code == Code::E0601));
        let p = SloPolicy {
            clear_fraction: 1.0,
            ..Default::default()
        };
        assert!(p.validate().iter().any(|i| i.code == Code::E0603));
    }

    #[test]
    fn window_label_names_both_windows() {
        assert_eq!(SloPolicy::default().window_label(), "fast5/slow60");
    }
}
