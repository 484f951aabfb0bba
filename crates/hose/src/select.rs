//! Greedy representative-TM selection.
//!
//! Random boundary sampling (the [`crate::tmgen`] baseline) needs many
//! TMs because samples overlap. The planning system the paper builds on
//! (\[1\]) *selects* a small representative set that still "covers a
//! significant portion of the Hose polytope". This module implements the
//! classic greedy max-coverage selection: from a large candidate pool,
//! repeatedly pick the TM that newly dominates the most probe points.
//! Greedy max-coverage carries the (1 − 1/e) approximation guarantee, so
//! the selected set is provably close to the best possible of its size.

use crate::coverage::{dominates, probe_points, DOMINATION_TOLERANCE};
use crate::polytope::HosePoint;
use crate::request::HoseRequest;
use crate::tmgen::{generate_tms, TmGenConfig};
use serde::{Deserialize, Serialize};

/// Selection configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SelectConfig {
    /// Candidate pool size (random boundary samples to choose from).
    pub candidates: usize,
    /// Probe points used to score coverage.
    pub probes: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for SelectConfig {
    fn default() -> Self {
        SelectConfig {
            candidates: 2000,
            probes: 500,
            seed: 0x5E1E,
        }
    }
}

/// Result of a greedy selection.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Selection {
    /// The chosen TMs, in selection order.
    pub tms: Vec<HosePoint>,
    /// Coverage after each selection (monotone).
    pub coverage_curve: Vec<f64>,
}

/// Greedily select up to `k` TMs maximizing probe coverage; stops early
/// when `target` coverage is reached or no candidate adds anything.
pub fn greedy_select(
    hose: &HoseRequest,
    k: usize,
    target: f64,
    config: &SelectConfig,
) -> Selection {
    let candidates = generate_tms(
        hose,
        &TmGenConfig {
            count: config.candidates,
            seed: config.seed,
        },
    );
    let probes = probe_points(hose, config.probes, config.seed ^ 0x9E3779B9);

    // covered_by[c] = bitmask-ish vec of probes candidate c dominates.
    let covered_by: Vec<Vec<usize>> = candidates
        .iter()
        .map(|tm| {
            probes
                .iter()
                .enumerate()
                .filter(|(_, p)| dominates(tm, p, DOMINATION_TOLERANCE))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    let mut probe_covered = vec![false; probes.len()];
    let mut chosen: Vec<usize> = Vec::new();
    let mut curve = Vec::new();
    let mut covered_count = 0usize;

    for _ in 0..k {
        // Candidate with the largest marginal gain.
        let best = (0..candidates.len())
            .filter(|c| !chosen.contains(c))
            .map(|c| {
                let gain = covered_by[c]
                    .iter()
                    .filter(|&&p| !probe_covered[p])
                    .count();
                (c, gain)
            })
            .max_by_key(|&(c, gain)| (gain, std::cmp::Reverse(c)));
        let Some((c, gain)) = best else { break };
        if gain == 0 {
            break;
        }
        for &p in &covered_by[c] {
            if !probe_covered[p] {
                probe_covered[p] = true;
                covered_count += 1;
            }
        }
        chosen.push(c);
        let cov = covered_count as f64 / probes.len() as f64;
        curve.push(cov);
        if cov >= target {
            break;
        }
    }
    Selection {
        tms: chosen.into_iter().map(|c| candidates[c].clone()).collect(),
        coverage_curve: curve,
    }
}

/// The number of greedily-selected TMs needed for `target` coverage
/// (`None` when the candidate pool cannot reach it).
pub fn selected_tms_for_coverage(
    hose: &HoseRequest,
    target: f64,
    config: &SelectConfig,
) -> Option<usize> {
    let sel = greedy_select(hose, config.candidates, target, config);
    if sel.coverage_curve.last().copied().unwrap_or(0.0) >= target {
        Some(sel.tms.len())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::tms_for_coverage;
    use entitlement_core::{Direction, NpgId, QosClass, Rate, RegionId};

    fn hose(dests: u16) -> HoseRequest {
        HoseRequest::general(
            NpgId(1),
            QosClass::C1,
            RegionId(0),
            Direction::Egress,
            Rate::gbps(900.0),
            (1..=dests).map(RegionId),
        )
    }

    #[test]
    fn curve_is_monotone_with_diminishing_gains() {
        let sel = greedy_select(&hose(5), 50, 1.0, &SelectConfig {
            candidates: 500,
            probes: 300,
            ..Default::default()
        });
        assert!(!sel.tms.is_empty());
        for w in sel.coverage_curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // Greedy property: marginal gains never increase.
        let mut prev_gain = f64::INFINITY;
        let mut last = 0.0;
        for &c in &sel.coverage_curve {
            let gain = c - last;
            assert!(gain <= prev_gain + 1e-9, "greedy gains must shrink");
            prev_gain = gain;
            last = c;
        }
    }

    #[test]
    fn greedy_beats_random_sampling_substantially() {
        let h = hose(6);
        let target = 0.75;
        let random_n =
            tms_for_coverage(&h, target, 4000, 400, 0x5E1E).expect("random reaches target");
        let greedy_n = selected_tms_for_coverage(
            &h,
            target,
            &SelectConfig {
                candidates: 2000,
                probes: 400,
                seed: 0x5E1E,
            },
        )
        .expect("greedy reaches target");
        assert!(
            (greedy_n as f64) < (random_n as f64) * 0.25,
            "greedy {greedy_n} vs random {random_n}"
        );
    }

    #[test]
    fn selection_respects_budget_and_target() {
        let sel = greedy_select(&hose(4), 3, 1.0, &SelectConfig {
            candidates: 300,
            probes: 200,
            ..Default::default()
        });
        assert!(sel.tms.len() <= 3);
        let sel2 = greedy_select(&hose(4), 100, 0.3, &SelectConfig {
            candidates: 300,
            probes: 200,
            ..Default::default()
        });
        // Stopped at the target, not the budget.
        assert!(sel2.coverage_curve.last().unwrap() >= &0.3);
        assert!(sel2.tms.len() < 100);
    }

    #[test]
    fn deterministic() {
        let a = greedy_select(&hose(5), 10, 1.0, &SelectConfig::default());
        let b = greedy_select(&hose(5), 10, 1.0, &SelectConfig::default());
        assert_eq!(a.tms, b.tms);
    }
}
