//! Fig 20: efficiency of the segmented hose — the CDF, across hoses, of
//! the reduction in representative-TM count needed to reach 75% hose
//! coverage. Paper: "in 90% of the cases, Segmented Hose needs 60% fewer
//! TMs".

use std::fmt::Write as _;
use entitlement_core::stats::percentile;
use entitlement_core::{DetRng, Direction, NpgId, QosClass, Rate, RegionId};
use entitlement_hose::segment::FlowSeries;
use entitlement_hose::{segment_flow_series, tms_for_coverage, HoseRequest};
use serde::{Deserialize, Serialize};

/// Result across hose cases.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SegmentedBenefit {
    /// Per-case TM-count reduction `1 - n_segmented / n_general`.
    pub reductions: Vec<f64>,
    /// Per-case (general TM count, segmented TM count).
    pub counts: Vec<(usize, usize)>,
}

/// Destinations per hose.
const DESTINATIONS: usize = 6;

/// Coverage target (paper: 0.75).
const TARGET: f64 = 0.75;

/// Sweep seed.
const SEED: u64 = 0xF20;

/// Sweep configuration. Every case is segmented by Algorithm 1 (two
/// segments); the n-way ablation lives in `ablations`.
#[derive(Clone, Debug)]
pub struct BenefitConfig {
    /// Number of hose cases.
    pub cases: usize,
    /// TM budget cap per case.
    pub max_tms: usize,
    /// Probe count for the coverage estimate.
    pub probes: usize,
}

impl Default for BenefitConfig {
    fn default() -> Self {
        BenefitConfig {
            cases: 40,
            max_tms: 4000,
            probes: 250,
        }
    }
}

/// Build a concentrated flow series: a few dominant destinations (like
/// the Fig 7 storage service) with stable-but-wiggling shares.
pub fn synth_flow_series(rng: &mut DetRng, destinations: usize, t_len: usize) -> FlowSeries {
    let mut flows = FlowSeries::new();
    // Zipf-ish base volumes.
    for d in 0..destinations {
        let base = 1000.0 / ((d + 1) as f64).powf(rng.range(0.8, 1.6));
        let phase = rng.f64();
        let amp = rng.range(0.05, 0.2);
        let series: Vec<f64> = (0..t_len)
            .map(|t| {
                base * (1.0
                    + amp * (2.0 * std::f64::consts::PI * (t as f64 / t_len as f64 + phase)).sin())
            })
            .collect();
        flows.insert(RegionId(1 + d as u16), series);
    }
    flows
}

/// Run the sweep.
pub fn run(config: &BenefitConfig) -> SegmentedBenefit {
    let mut rng = DetRng::new(SEED);
    let mut reductions = Vec::new();
    let mut counts = Vec::new();
    for case in 0..config.cases {
        let flows = synth_flow_series(&mut rng, DESTINATIONS, 24);
        let total = Rate::gbps(900.0);
        let Ok(seg) = segment_flow_series(
            NpgId(case as u32),
            QosClass::C1,
            RegionId(0),
            Direction::Egress,
            total,
            &flows,
        ) else {
            continue;
        };
        let general = HoseRequest::general(
            NpgId(case as u32),
            QosClass::C1,
            RegionId(0),
            Direction::Egress,
            total,
            flows.keys().copied(),
        );
        let seed = SEED ^ ((case as u64) << 16);
        let n_seg = tms_for_coverage(&seg, TARGET, config.max_tms, config.probes, seed);
        let n_gen = tms_for_coverage(&general, TARGET, config.max_tms, config.probes, seed);
        if let (Some(ns), Some(ng)) = (n_seg, n_gen) {
            reductions.push(1.0 - ns as f64 / ng as f64);
            counts.push((ng, ns));
        }
    }
    SegmentedBenefit { reductions, counts }
}

impl SegmentedBenefit {
    /// The reduction achieved in at least `fraction` of cases (e.g. the
    /// paper's "in 90% of cases ≥ 60% fewer TMs" is `at_fraction(0.9)`).
    pub fn at_fraction(&self, fraction: f64) -> f64 {
        // Reduction exceeded by `fraction` of cases = (1-f) percentile.
        percentile(&self.reductions, (1.0 - fraction) * 100.0)
    }

    /// Render the CDF of reductions.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## Fig 20: TM-count reduction from segmentation (CDF)");
        let _ = writeln!(out, "cases resolved: {}", self.reductions.len());
        for decile in [10.0, 25.0, 50.0, 75.0, 90.0] {
            let _ = writeln!(out, 
                "p{decile:<4} reduction: {:.1}%",
                percentile(&self.reductions, decile) * 100.0
            );
        }
        let _ = writeln!(out, 
            "reduction achieved in 90% of cases: {:.1}% (paper: ~60%)",
            self.at_fraction(0.9) * 100.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmentation_cuts_tm_counts_in_most_cases() {
        let out = run(&BenefitConfig {
            cases: 12,
            probes: 150,
            max_tms: 3000,
        });
        assert!(out.reductions.len() >= 8, "most cases resolve");
        let median = percentile(&out.reductions, 50.0);
        assert!(
            median > 0.3,
            "median TM reduction {median} should be substantial"
        );
        // The paper's headline: large reduction in ~90% of cases.
        let at90 = out.at_fraction(0.9);
        assert!(at90 > 0.1, "90th-percentile-of-cases reduction {at90}");
    }

    #[test]
    fn flow_series_is_concentrated() {
        let mut rng = DetRng::new(1);
        let flows = synth_flow_series(&mut rng, 6, 24);
        assert_eq!(flows.len(), 6);
        let totals: Vec<f64> = flows.values().map(|v| v.iter().sum()).collect();
        let max = totals.iter().copied().fold(0.0, f64::max);
        let min = totals.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min > 2.0, "head/tail spread {}", max / min);
    }
}
