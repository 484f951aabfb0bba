//! Bandwidth availability curves.

use entitlement_core::Rate;
use serde::{Deserialize, Serialize};

/// The availability curve of one pipe: a probability-weighted set of
/// admitted volumes across failure scenarios.
///
/// `availability(b) = Σ { p(scenario) : admitted(scenario) ≥ b }`
///
/// ```
/// use entitlement_core::Rate;
/// use entitlement_risk::AvailabilityCurve;
///
/// // Healthy 95% of the time (full 10 G), degraded to 4 G otherwise.
/// let curve = AvailabilityCurve::from_samples(vec![
///     (Rate::gbps(10.0), 0.95),
///     (Rate::gbps(4.0), 0.05),
/// ]);
/// // A 99% SLO can only be promised 4 G; a 95% SLO gets the full 10 G.
/// assert_eq!(curve.bandwidth_at(0.99), Rate::gbps(4.0));
/// assert_eq!(curve.bandwidth_at(0.95), Rate::gbps(10.0));
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AvailabilityCurve {
    /// `(admitted volume, scenario probability)` samples; unsorted on
    /// input, sorted descending by volume internally.
    samples: Vec<(Rate, f64)>,
}

impl AvailabilityCurve {
    /// Build from raw `(admitted, probability)` samples.
    pub fn from_samples(mut samples: Vec<(Rate, f64)>) -> Self {
        samples.sort_by(|a, b| b.0.as_bps().total_cmp(&a.0.as_bps()));
        AvailabilityCurve { samples }
    }

    /// Probability that at least `rate` is admitted.
    pub fn availability_of(&self, rate: Rate) -> f64 {
        self.samples
            .iter()
            .take_while(|(r, _)| r.as_bps() >= rate.as_bps() - 1e-6)
            .map(|(_, p)| p)
            .sum()
    }

    /// The largest volume whose availability meets `slo` — the value the
    /// approval engine grants. Returns [`Rate::ZERO`] when even zero
    /// volume can't meet the target (empty curve).
    pub fn bandwidth_at(&self, slo: f64) -> Rate {
        let mut acc = 0.0;
        for &(rate, p) in &self.samples {
            acc += p;
            if acc >= slo - 1e-12 {
                return rate;
            }
        }
        // The SLO demands more probability mass than the scenarios carry
        // (or the curve is empty): nothing can be guaranteed.
        Rate::ZERO
    }

    /// Total probability mass (≈ 1 for a full scenario set).
    pub fn total_mass(&self) -> f64 {
        self.samples.iter().map(|(_, p)| p).sum()
    }

    /// The samples, sorted by volume descending.
    pub fn samples(&self) -> &[(Rate, f64)] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> AvailabilityCurve {
        // 90% of the time full 10G, 8% degraded to 6G, 2% down to 1G.
        AvailabilityCurve::from_samples(vec![
            (Rate::gbps(6.0), 0.08),
            (Rate::gbps(10.0), 0.90),
            (Rate::gbps(1.0), 0.02),
        ])
    }

    #[test]
    fn availability_is_cumulative_from_top() {
        let c = curve();
        assert!((c.availability_of(Rate::gbps(10.0)) - 0.90).abs() < 1e-12);
        assert!((c.availability_of(Rate::gbps(6.0)) - 0.98).abs() < 1e-12);
        assert!((c.availability_of(Rate::gbps(1.0)) - 1.00).abs() < 1e-12);
        assert!((c.availability_of(Rate::gbps(0.5)) - 1.00).abs() < 1e-12);
        assert_eq!(c.availability_of(Rate::gbps(11.0)), 0.0);
    }

    #[test]
    fn bandwidth_at_slo() {
        let c = curve();
        // 0.9 SLO → the full 10G qualifies.
        assert!((c.bandwidth_at(0.90).as_gbps() - 10.0).abs() < 1e-9);
        // 0.95 → must degrade to 6G.
        assert!((c.bandwidth_at(0.95).as_gbps() - 6.0).abs() < 1e-9);
        // 0.999 → only 1G survives everything.
        assert!((c.bandwidth_at(0.999).as_gbps() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monotonicity_of_grant_in_slo() {
        let c = curve();
        let mut prev = f64::INFINITY;
        for slo in [0.5, 0.9, 0.95, 0.99, 0.9999] {
            let b = c.bandwidth_at(slo).as_bps();
            assert!(b <= prev, "grant must not grow with stricter SLO");
            prev = b;
        }
    }

    #[test]
    fn empty_curve_grants_zero() {
        let c = AvailabilityCurve::from_samples(vec![]);
        assert_eq!(c.bandwidth_at(0.99), Rate::ZERO);
        assert_eq!(c.total_mass(), 0.0);
    }

    #[test]
    fn impossible_slo_grants_zero() {
        // Scenarios only account for 0.9 of mass.
        let c = AvailabilityCurve::from_samples(vec![(Rate::gbps(5.0), 0.9)]);
        assert_eq!(c.bandwidth_at(0.99), Rate::ZERO);
    }
}
