//! How much to remark (paper §5.2).
//!
//! Each agent independently computes the fraction of service traffic to
//! remark non-conforming, given the observed service rate and the
//! contract rate. Two algorithms:
//!
//! **Stateless** (eq. 4–5):
//! `NonConformRatio = (TotalRate − EntitledRate) / TotalRate`.
//! Works in steady state but breaks under congestion: the remarked
//! traffic gets dropped, the next cycle's TotalRate collapses to the
//! conforming part, the ratio resets, and the rate oscillates (Fig 23)
//! with an average *above* the entitlement (Fig 24).
//!
//! **Stateful** (eq. 6–7): track `PrevConformRatio` and use only the
//! aggregate **conforming** rate:
//! `ConformRatio = EntitledRate / ConformRate × PrevConformRatio`.
//! When all traffic returns into conformance (`TotalRate <
//! 0.9 × EntitledRate`), the ratio recovers exponentially
//! (`ConformRatio = 2 × PrevConformRatio`) — rapid but not immediate
//! un-throttling to avoid fluctuation. Just under the entitlement it
//! grows by `EntitledRate / TotalRate` instead ([`RECOVERY_BAND`]).

use entitlement_core::Rate;
use serde::{Deserialize, Serialize};

/// Totals in `[RECOVERY_BAND, 1) × entitled` grow the stateful ratio
/// by entitled/total instead of eq. 7's ×recovery (DESIGN §6): a ratio
/// that lands a marking group short of the entitlement would otherwise
/// double and overshoot it, every other cycle.
pub const RECOVERY_BAND: f64 = 0.9;

/// A metering algorithm: maps observed rates to a conform ratio in
/// `[0, 1]` (the fraction of traffic to leave conforming).
pub trait Meter {
    /// Update with this cycle's observations and return the new
    /// ConformRatio.
    fn update(&mut self, total_rate: Rate, conform_rate: Rate, entitled: Rate) -> f64;

    /// The current ConformRatio without updating.
    fn conform_ratio(&self) -> f64;

    /// Reset to the initial (all-conforming) state.
    fn reset(&mut self);
}

/// The stateless metering algorithm (eq. 4–5).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StatelessMeter {
    ratio: f64,
}

impl StatelessMeter {
    /// New meter, initially passing everything as conforming.
    pub fn new() -> Self {
        StatelessMeter { ratio: 1.0 }
    }
}

impl Meter for StatelessMeter {
    fn update(&mut self, total_rate: Rate, _conform_rate: Rate, entitled: Rate) -> f64 {
        let non_conform = if total_rate.is_zero() {
            0.0
        } else {
            ((total_rate - entitled).clamp_zero() / total_rate).clamp(0.0, 1.0)
        };
        self.ratio = 1.0 - non_conform;
        self.ratio
    }

    fn conform_ratio(&self) -> f64 {
        self.ratio
    }

    fn reset(&mut self) {
        self.ratio = 1.0;
    }
}

/// The stateful metering algorithm (eq. 6–7).
///
/// ```
/// use entitlement_core::Rate;
/// use entitlement_enforcement::{Meter, StatefulMeter};
///
/// let mut meter = StatefulMeter::new();
/// // A service sends 10 Tbps against a 5 Tbps contract: throttle half.
/// let cr = meter.update(Rate::tbps(10.0), Rate::tbps(10.0), Rate::tbps(5.0));
/// assert!((cr - 0.5).abs() < 1e-12);
/// // Next cycle the conforming rate sits at the contract: hold steady.
/// let cr = meter.update(Rate::tbps(10.0), Rate::tbps(5.0), Rate::tbps(5.0));
/// assert!((cr - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatefulMeter {
    prev_conform_ratio: f64,
    /// Recovery multiplier when traffic is back in conformance
    /// (paper: 2.0). Ablation benches sweep this.
    pub recovery_factor: f64,
}

impl Default for StatefulMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl StatefulMeter {
    /// New meter with the paper's 2× recovery.
    pub fn new() -> Self {
        StatefulMeter {
            prev_conform_ratio: 1.0,
            recovery_factor: 2.0,
        }
    }

    /// New meter with a custom recovery factor.
    pub fn with_recovery(recovery_factor: f64) -> Self {
        StatefulMeter {
            prev_conform_ratio: 1.0,
            recovery_factor,
        }
    }

    /// The stateful update as a pure function over raw bps values.
    ///
    /// [`Meter::update`] delegates here, and the sharded fleet engine's
    /// struct-of-arrays metering pass calls it directly per host — both
    /// paths run the exact same float operations in the same order, so
    /// a fleet host and a standalone [`StatefulMeter`] fed identical
    /// inputs produce bit-identical conform ratios.
    ///
    /// A non-finite `total_bps`, `conform_bps` or `entitled_bps` is
    /// unmeasurable, not zero and not huge: the update holds `prev`,
    /// the fail-static rule agents follow for an unreachable store.
    /// (Left to the arithmetic, a NaN conforming rate loses every
    /// `min` and doubles the ratio each cycle until an over-entitled
    /// service is fully unmarked.)
    #[must_use]
    pub fn update_value(
        prev: f64,
        total_bps: f64,
        conform_bps: f64,
        entitled_bps: f64,
        recovery_factor: f64,
    ) -> f64 {
        if !(total_bps.is_finite() && conform_bps.is_finite() && entitled_bps.is_finite()) {
            return prev;
        }
        let new_ratio = if total_bps < RECOVERY_BAND * entitled_bps {
            // Back in conformance: exponential un-throttle.
            (prev * recovery_factor).min(1.0)
        } else if total_bps < entitled_bps {
            // Just under the entitlement: grow by the headroom left, so
            // a group-granular undershoot is not read as recovery.
            (prev * (entitled_bps / total_bps).min(recovery_factor)).min(1.0)
        } else if conform_bps < 1.0 {
            // Nothing conforming observed (same sub-bit/s threshold as
            // `Rate::is_zero`): probe with the previous ratio.
            prev
        } else {
            ((entitled_bps / conform_bps) * prev)
                .min(prev * recovery_factor)
                .clamp(0.0, 1.0)
        };
        new_ratio.max(1e-4) // never wedge at 0
    }
}

impl Meter for StatefulMeter {
    fn update(&mut self, total_rate: Rate, conform_rate: Rate, entitled: Rate) -> f64 {
        // Strictly below the entitlement triggers recovery (eq. 7's
        // ×recovery only below the band). At exact equality the service
        // is *at* its limit, not under it — doubling there would
        // oscillate between full throttle and none (in
        // practice TCP probing keeps the observed total slightly above
        // the entitlement whenever demand exceeds it, so the boundary is
        // rarely hit; the strict comparison makes the idealized §7.4
        // simulation behave like production).
        //
        // The ratio update can also *raise* the conform ratio (the
        // service was remarking more than necessary). The per-cycle
        // increase is capped at the recovery factor: if conforming
        // traffic is unexpectedly low because the network is congested
        // (not because of over-marking), an unbounded jump to 1.0 would
        // dump the full demand back into the conforming queue and
        // oscillate.
        self.prev_conform_ratio = Self::update_value(
            self.prev_conform_ratio,
            total_rate.as_bps(),
            conform_rate.as_bps(),
            entitled.as_bps(),
            self.recovery_factor,
        );
        self.prev_conform_ratio
    }

    fn conform_ratio(&self) -> f64 {
        self.prev_conform_ratio
    }

    fn reset(&mut self) {
        self.prev_conform_ratio = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stateless_matches_paper_example() {
        // §5.2: Ads entitled 5 Tbps, observed 6 Tbps → NonConformRatio
        // 1/6, ConformRatio 5/6.
        let mut m = StatelessMeter::new();
        let cr = m.update(Rate::tbps(6.0), Rate::tbps(6.0), Rate::tbps(5.0));
        assert!((cr - 5.0 / 6.0).abs() < 1e-12);
        assert!((m.conform_ratio() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn stateless_under_entitlement_passes_all() {
        let mut m = StatelessMeter::new();
        let cr = m.update(Rate::tbps(3.0), Rate::tbps(3.0), Rate::tbps(5.0));
        assert_eq!(cr, 1.0);
    }

    #[test]
    fn stateless_zero_total_is_fully_conforming() {
        let mut m = StatelessMeter::new();
        assert_eq!(m.update(Rate::ZERO, Rate::ZERO, Rate::tbps(1.0)), 1.0);
    }

    #[test]
    fn stateful_decreases_when_conforming_exceeds_entitlement() {
        let mut m = StatefulMeter::new();
        // Total 10T, all currently conforming, entitled 5T.
        let cr1 = m.update(Rate::tbps(10.0), Rate::tbps(10.0), Rate::tbps(5.0));
        assert!((cr1 - 0.5).abs() < 1e-12);
        // Next cycle: conforming is now 5T (half marked), still at limit.
        let cr2 = m.update(Rate::tbps(10.0), Rate::tbps(5.0), Rate::tbps(5.0));
        assert!((cr2 - 0.5).abs() < 1e-12, "steady state holds: {cr2}");
    }

    #[test]
    fn stateful_recovers_exponentially() {
        let mut m = StatefulMeter::new();
        m.update(Rate::tbps(10.0), Rate::tbps(10.0), Rate::tbps(5.0)); // 0.5
        m.update(Rate::tbps(10.0), Rate::tbps(5.0), Rate::tbps(5.0)); // hold
        // Demand drops into conformance.
        let cr = m.update(Rate::tbps(4.0), Rate::tbps(4.0), Rate::tbps(5.0));
        assert!((cr - 1.0).abs() < 1e-12, "0.5 × 2 = 1.0, got {cr}");
    }

    #[test]
    fn stateful_recovery_is_gradual_from_deep_throttle() {
        let mut m = StatefulMeter::with_recovery(2.0);
        // Throttle deeply.
        m.update(Rate::tbps(20.0), Rate::tbps(20.0), Rate::tbps(2.0)); // 0.1
        let cr1 = m.update(Rate::tbps(1.0), Rate::tbps(1.0), Rate::tbps(2.0));
        assert!((cr1 - 0.2).abs() < 1e-12, "first recovery step: {cr1}");
        let cr2 = m.update(Rate::tbps(1.0), Rate::tbps(1.0), Rate::tbps(2.0));
        assert!((cr2 - 0.4).abs() < 1e-12, "second step: {cr2}");
    }

    #[test]
    fn stateful_unaffected_by_nonconforming_loss() {
        // The stateful insight: use ConformRate, not TotalRate. Drop all
        // non-conforming traffic; conform rate stays at the entitlement,
        // so the ratio must hold steady instead of resetting.
        let mut m = StatefulMeter::new();
        m.update(Rate::tbps(10.0), Rate::tbps(10.0), Rate::tbps(5.0)); // 0.5
        // Network drops the 5T non-conforming: observed total = 5T
        // conforming only... but total (5T) ≤ entitled (5T) triggers
        // recovery to 1.0, then the next over-limit cycle re-throttles.
        // With demand still at 10T the observed total stays above 5T
        // (conforming 5T + probing non-conforming), so the stable branch
        // is the ratio-hold one:
        let cr = m.update(Rate::tbps(5.2), Rate::tbps(5.0), Rate::tbps(5.0));
        assert!((cr - 0.5).abs() < 1e-9, "holds at 0.5, got {cr}");
    }

    #[test]
    fn stateful_never_wedges_at_zero() {
        let mut m = StatefulMeter::new();
        for _ in 0..100 {
            m.update(Rate::tbps(100.0), Rate::tbps(100.0), Rate::bps(1.0));
        }
        assert!(m.conform_ratio() > 0.0);
        // And it can recover.
        for _ in 0..60 {
            m.update(Rate::bps(0.5), Rate::bps(0.5), Rate::bps(1.0));
        }
        assert!((m.conform_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_non_finite_aggregate_holds_the_ratio() {
        // One host publishing NaN poisons the store's sum. The parent
        // read that as "recover": 0.25 -> 0.5 -> 1.0, fully unmarked.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (total, conform, entitled) in [
                (2e12, bad, 1e12),
                (bad, 1e12, 1e12),
                (bad, bad, 1e12),
                (2e12, 1e12, bad),
            ] {
                let held = StatefulMeter::update_value(0.25, total, conform, entitled, 2.0);
                assert_eq!(
                    held.to_bits(),
                    0.25f64.to_bits(),
                    "total {total} conform {conform} entitled {entitled}"
                );
            }
        }
        // Through the trait: the meter neither recovers on NaN nor
        // wedges at the floor on an infinite aggregate.
        let mut m = StatefulMeter::new();
        m.update(Rate::tbps(4.0), Rate::tbps(4.0), Rate::tbps(1.0)); // 0.25
        for _ in 0..8 {
            m.update(Rate::tbps(2.0), Rate::bps(f64::NAN), Rate::tbps(1.0));
            m.update(
                Rate::bps(f64::INFINITY),
                Rate::bps(f64::INFINITY),
                Rate::tbps(1.0),
            );
        }
        assert_eq!(m.conform_ratio(), 0.25);
    }

    #[test]
    fn finite_inputs_keep_their_bits() {
        // The three branches and the floor, against the arithmetic
        // written out by hand.
        let up = |prev, t, c, e| StatefulMeter::update_value(prev, t, c, e, 2.0);
        assert_eq!(
            up(0.3, 1e12, 1e12, 2e12).to_bits(),
            (0.3f64 * 2.0).to_bits()
        );
        assert_eq!(up(0.3, 2e12, 0.5, 1e12).to_bits(), 0.3f64.to_bits());
        assert_eq!(
            up(0.3, 3e12, 1.7e12, 1e12).to_bits(),
            ((1e12 / 1.7e12) * 0.3f64).to_bits()
        );
        assert_eq!(up(1e-4, 1e15, 1e15, 1.0).to_bits(), 1e-4f64.to_bits());
    }

    #[test]
    fn reset_restores_full_conformance() {
        let mut m = StatefulMeter::new();
        m.update(Rate::tbps(10.0), Rate::tbps(10.0), Rate::tbps(1.0));
        assert!(m.conform_ratio() < 1.0);
        m.reset();
        assert_eq!(m.conform_ratio(), 1.0);
        let mut s = StatelessMeter::new();
        s.update(Rate::tbps(10.0), Rate::tbps(10.0), Rate::tbps(1.0));
        s.reset();
        assert_eq!(s.conform_ratio(), 1.0);
    }
}
