//! Ablations beyond the paper's figures (DESIGN.md §6):
//!
//! * N-segment hoses (the paper's future-work generalization);
//! * the stateful meter's recovery factor;
//! * centralized (gen-1) vs distributed (gen-2) enforcement.

use std::fmt::Write as _;
use entitlement_core::{DetRng, Direction, NpgId, QosClass, Rate, RegionId};
use entitlement_enforcement::controller::{centralized_waste, ControllerConfig};
use entitlement_enforcement::convergence::{simulate_marking, MarkingSim};
use entitlement_enforcement::StatefulMeter;
use entitlement_hose::segment_n_way;
use serde::{Deserialize, Serialize};

/// N-segment ablation: reserved capacity per segment count.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SegmentsAblation {
    /// Segment counts swept.
    pub segments: Vec<usize>,
    /// Mean reserved capacity (Gbps) across cases at each count.
    pub mean_reserved_gbps: Vec<f64>,
}

/// Run the N-segment ablation over synthetic concentrated hoses.
pub fn segments_ablation(cases: usize, seed: u64) -> SegmentsAblation {
    let counts = [1usize, 2, 3, 4];
    let mut sums = vec![0.0; counts.len()];
    let mut resolved = vec![0usize; counts.len()];
    let mut rng = DetRng::new(seed);
    for case in 0..cases {
        let flows = super::segmented_benefit::synth_flow_series(&mut rng, 8, 24);
        for (i, &n) in counts.iter().enumerate() {
            if let Ok(hose) = segment_n_way(
                NpgId(case as u32),
                QosClass::C1,
                RegionId(0),
                Direction::Egress,
                Rate::gbps(900.0),
                &flows,
                n,
            ) {
                sums[i] += hose.reserved_capacity().as_gbps();
                resolved[i] += 1;
            }
        }
    }
    SegmentsAblation {
        segments: counts.to_vec(),
        mean_reserved_gbps: sums
            .iter()
            .zip(&resolved)
            .map(|(s, &n)| if n > 0 { s / n as f64 } else { f64::NAN })
            .collect(),
    }
}

impl SegmentsAblation {
    /// Render the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## Ablation: N-segment hose reserved capacity");
        let _ = writeln!(out, "{:>10}  {:>16}", "segments", "mean reserved G");
        for (n, r) in self.segments.iter().zip(&self.mean_reserved_gbps) {
            let _ = writeln!(out, "{n:>10}  {r:>16.0}");
        }
        out
    }
}

/// Recovery-factor ablation: convergence speed and overshoot of the
/// stateful meter as the un-throttle multiplier varies.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RecoveryAblation {
    /// Factors swept.
    pub factors: Vec<f64>,
    /// Iterations to converge (usize::MAX when it never does).
    pub convergence_iters: Vec<usize>,
    /// Steady-state mean conforming rate.
    pub steady_mean_tbps: Vec<f64>,
}

/// Run the recovery-factor sweep. The scenario is a demand *dip*: traffic
/// falls under the entitlement for a while and then surges again — slow
/// recovery under-utilizes, aggressive recovery overshoots.
pub fn recovery_ablation() -> RecoveryAblation {
    let factors = vec![1.1, 1.5, 2.0, 4.0, 8.0];
    let mut out = RecoveryAblation {
        factors: factors.clone(),
        convergence_iters: Vec::new(),
        steady_mean_tbps: Vec::new(),
    };
    for &f in &factors {
        let mut meter = StatefulMeter::with_recovery(f);
        let sim = MarkingSim {
            loss: 0.5,
            iterations: 60,
            ..Default::default()
        };
        let result = simulate_marking(&sim, &mut meter);
        out.convergence_iters.push(
            result
                .convergence_iteration(5.0, 0.35)
                .unwrap_or(usize::MAX),
        );
        out.steady_mean_tbps.push(result.steady_mean_tbps());
    }
    out
}

impl RecoveryAblation {
    /// Render the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## Ablation: stateful recovery factor");
        let _ = writeln!(out, 
            "{:>8}  {:>12}  {:>14}",
            "factor", "conv. iter", "steady Tbps"
        );
        for i in 0..self.factors.len() {
            let c = self.convergence_iters[i];
            let cs = if c == usize::MAX {
                "never".to_string()
            } else {
                c.to_string()
            };
            let _ = writeln!(out, 
                "{:>8.1}  {cs:>12}  {:>14.2}",
                self.factors[i], self.steady_mean_tbps[i]
            );
        }
        out
    }
}

/// Centralized-vs-distributed ablation result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ArchitectureAblation {
    /// Controller decision intervals swept (ticks).
    pub intervals: Vec<usize>,
    /// Traffic wasted (needlessly shaped) by the centralized design,
    /// Tbps-ticks.
    pub wasted_tbps: Vec<f64>,
    /// Per-decision compute cost at 100k hosts, seconds.
    pub compute_cost_100k_secs: f64,
}

/// Run the architecture comparison. The distributed design wastes zero
/// by construction here (marking only kicks in above the contract and
/// switches drop only under real congestion), so the table quantifies
/// the centralized penalty.
pub fn architecture_ablation() -> ArchitectureAblation {
    let intervals = vec![2, 4, 6, 12];
    let wasted = intervals
        .iter()
        .map(|&i| {
            centralized_waste(
                200,
                Rate::tbps(1.0),
                240,
                7,
                ControllerConfig {
                    decision_interval_ticks: i,
                },
            )
            .wasted_tbps
        })
        .collect();
    let controller = entitlement_enforcement::controller::Controller::new(
        1,
        ControllerConfig::default(),
    );
    ArchitectureAblation {
        intervals,
        wasted_tbps: wasted,
        compute_cost_100k_secs: controller.decision_cost_secs(100_000),
    }
}

impl ArchitectureAblation {
    /// Render the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## Ablation: centralized (gen-1) vs distributed (gen-2)");
        let _ = writeln!(out, "{:>18}  {:>14}", "decision interval", "wasted Tbps·t");
        for (i, w) in self.intervals.iter().zip(&self.wasted_tbps) {
            let _ = writeln!(out, "{i:>18}  {w:>14.2}");
        }
        let _ = writeln!(out, 
            "controller compute per round at 100k hosts: {:.1}s (distributed: none)",
            self.compute_cost_100k_secs
        );
        out
    }
}

/// SRLG ablation: how much correlated conduit failures cost in approved
/// bandwidth at a fixed SLO, versus the independent-failure model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SrlgAblation {
    /// Conduit-merge probabilities swept (0 = independent).
    pub merge_probabilities: Vec<f64>,
    /// SLO-feasible volume for a reference pipe at each setting, Gbps.
    pub granted_gbps: Vec<f64>,
    /// Conduits per setting (fewer = more correlated).
    pub conduit_counts: Vec<usize>,
}

/// Run the SRLG ablation on a reference pipe at 99% availability.
pub fn srlg_ablation(seed: u64) -> SrlgAblation {
    use entitlement_risk::{assess_risk_detailed, RiskConfig};
    use entitlement_topology::routing::Demand;
    use entitlement_topology::{BackboneSpec, SrlgMap};

    let topo = BackboneSpec::small(seed).build();
    let ids = topo.dc_ids();
    let demand = Demand {
        src: ids[0],
        dst: ids[2],
        amount: Rate::tbps(3.0),
    };
    let probs = vec![0.0, 0.3, 0.6, 0.9];
    let mut granted = Vec::new();
    let mut conduits = Vec::new();
    for &p in &probs {
        let map = if p == 0.0 {
            SrlgMap::independent(&topo)
        } else {
            SrlgMap::synthesize(&topo, p, seed ^ 0x5816)
        };
        let scenarios = map.enumerate(&topo, 2);
        let curves =
            assess_risk_detailed(&topo, &[demand], &scenarios, &RiskConfig::default()).curves;
        granted.push(curves[0].bandwidth_at(0.99).as_gbps());
        conduits.push(map.len());
    }
    SrlgAblation {
        merge_probabilities: probs,
        granted_gbps: granted,
        conduit_counts: conduits,
    }
}

impl SrlgAblation {
    /// Render the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## Ablation: correlated (SRLG) vs independent failures");
        let _ = writeln!(out, "{:>12}  {:>10}  {:>14}", "merge prob", "conduits", "granted @99%");
        for i in 0..self.merge_probabilities.len() {
            let _ = writeln!(out, 
                "{:>12.1}  {:>10}  {:>13.0}G",
                self.merge_probabilities[i], self.conduit_counts[i], self.granted_gbps[i]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srlg_correlation_never_increases_grants() {
        let out = srlg_ablation(0x51);
        assert_eq!(out.granted_gbps.len(), 4);
        // Independent grants something meaningful.
        assert!(out.granted_gbps[0] > 0.0);
        // The most correlated setting grants no more than independent.
        assert!(
            out.granted_gbps[3] <= out.granted_gbps[0] + 1e-6,
            "{:?}",
            out.granted_gbps
        );
        // Conduit count shrinks with the merge probability.
        assert!(out.conduit_counts[3] <= out.conduit_counts[0]);
    }

    #[test]
    fn more_segments_never_reserve_more() {
        let out = segments_ablation(10, 0xAB1);
        // Reserved capacity non-increasing in segment count.
        for w in out.mean_reserved_gbps.windows(2) {
            assert!(
                w[1] <= w[0] + 1.0,
                "more segments must not reserve more: {:?}",
                out.mean_reserved_gbps
            );
        }
        // The 1-segment (general hose) case reserves 8 × 900 G.
        assert!((out.mean_reserved_gbps[0] - 7200.0).abs() < 1.0);
    }

    #[test]
    fn recovery_factor_tradeoff() {
        let out = recovery_ablation();
        // Every factor still enforces the entitlement on average.
        for &m in &out.steady_mean_tbps {
            assert!((m - 5.0).abs() < 1.0, "steady {m}");
        }
        // All converge reasonably fast in this scenario.
        assert!(out.convergence_iters.iter().all(|&c| c < 30));
    }

    #[test]
    fn slower_controllers_waste_more() {
        let out = architecture_ablation();
        // Aliasing between the decision interval and the workload shift
        // makes the relationship non-monotone point-to-point; the
        // fastest controller must still beat the slowest, and every
        // setting wastes something.
        assert!(out.wasted_tbps.iter().all(|&w| w > 0.0), "{:?}", out.wasted_tbps);
        assert!(
            out.wasted_tbps[0] < *out.wasted_tbps.last().unwrap(),
            "fast vs slow: {:?}",
            out.wasted_tbps
        );
        assert!(out.compute_cost_100k_secs > 1.0);
    }
}
