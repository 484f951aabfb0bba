//! Failure scenarios: fiber cuts and their probabilities.
//!
//! Providing long-term SLO guarantees "cannot just rely on the current
//! bandwidth usage, but needs to consider possible network changes and
//! failures in advance" (paper §3.1). The Risk Simulation System consumes
//! a weighted set of failure scenarios; this module builds that set two
//! ways:
//!
//! * exhaustive enumeration of the empty, single-cut, and dual-cut
//!   scenarios with their steady-state probabilities (links fail
//!   independently with probability `1 - availability`); and
//! * Monte-Carlo sampling for topologies where exhaustive enumeration is
//!   too coarse or too expensive.
//!
//! Fiber cuts sever both directions of a duplex pair, so scenarios are
//! expressed in terms of *fiber groups*: the set of directed links sharing
//! an (unordered) endpoint pair.

use crate::graph::{LinkId, Topology};
use entitlement_core::{DetRng, RegionId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One failure scenario: a set of dead links plus its probability weight.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureScenario {
    /// Links down in this scenario (all directions of the cut fibers).
    pub dead_links: Vec<LinkId>,
    /// Steady-state probability of observing this scenario.
    pub probability: f64,
    /// Human-readable label, e.g. "ok", "cut(r0-r3)".
    pub label: String,
}

impl FailureScenario {
    /// The no-failure scenario with the given probability.
    pub fn healthy(probability: f64) -> Self {
        FailureScenario {
            dead_links: Vec::new(),
            probability,
            label: "ok".into(),
        }
    }

    /// The dead-link set as a trace label: `l3+l7`, or `none` for the
    /// healthy scenario.
    #[must_use]
    pub fn links_label(&self) -> String {
        if self.dead_links.is_empty() {
            return "none".to_string();
        }
        let mut out = String::new();
        for (i, l) in self.dead_links.iter().enumerate() {
            if i > 0 {
                out.push('+');
            }
            let _ = write!(out, "{l}");
        }
        out
    }
}

/// A weighted collection of failure scenarios.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ScenarioSet {
    /// The scenarios; probabilities sum to ~1 for enumerated sets and to
    /// exactly 1/n each for sampled sets.
    pub scenarios: Vec<FailureScenario>,
}

/// A fiber group: all directed links between one unordered region pair.
/// A physical cut takes the whole group down.
#[derive(Clone, Debug)]
pub struct FiberGroup {
    /// Unordered endpoint pair.
    pub endpoints: (RegionId, RegionId),
    /// Directed links riding this fiber.
    pub links: Vec<LinkId>,
    /// Availability of the group (taken from its first link; generator
    /// assigns identical availability per duplex pair).
    pub availability: f64,
}

/// Group directed links into fiber groups by unordered endpoint pair.
pub fn fiber_groups(topo: &Topology) -> Vec<FiberGroup> {
    let mut map: BTreeMap<(RegionId, RegionId), FiberGroup> = BTreeMap::new();
    for link in topo.links() {
        let key = if link.src <= link.dst {
            (link.src, link.dst)
        } else {
            (link.dst, link.src)
        };
        map.entry(key)
            .or_insert_with(|| FiberGroup {
                endpoints: key,
                links: Vec::new(),
                availability: link.availability,
            })
            .links
            .push(link.id);
    }
    map.into_values().collect()
}

/// One independently failing unit of risk — a fiber group or a
/// conduit: the links it takes down and its availability.
pub(crate) struct RiskUnit<'a> {
    pub(crate) links: &'a [LinkId],
    pub(crate) availability: f64,
    /// The unit's name in scenario labels; a dual cut joins two with `+`.
    pub(crate) label: String,
}

/// The enumeration kernel under [`ScenarioSet::enumerate`] and
/// [`crate::srlg::SrlgMap::enumerate`]: the healthy scenario, every
/// single and (for `max_cuts` 2) every pair of unit cuts with exact
/// joint probabilities under independent unit failure, and the
/// residual mass as one blackout scenario.
pub(crate) fn enumerate_units(topo: &Topology, units: &[RiskUnit], max_cuts: usize) -> ScenarioSet {
    assert!(max_cuts <= 2, "enumeration supports up to dual cuts");
    let up_prob: f64 = units.iter().map(|u| u.availability).product();
    let mut scenarios = vec![FailureScenario::healthy(up_prob)];

    if max_cuts >= 1 {
        for (i, u) in units.iter().enumerate() {
            let p = up_prob / u.availability * (1.0 - u.availability);
            scenarios.push(FailureScenario {
                dead_links: u.links.to_vec(),
                probability: p,
                label: u.label.clone(),
            });
            if max_cuts >= 2 {
                for u2 in &units[i + 1..] {
                    let p2 = up_prob / (u.availability * u2.availability)
                        * (1.0 - u.availability)
                        * (1.0 - u2.availability);
                    let mut dead = u.links.to_vec();
                    dead.extend_from_slice(u2.links);
                    scenarios.push(FailureScenario {
                        dead_links: dead,
                        probability: p2,
                        label: format!("{}+{}", u.label, u2.label),
                    });
                }
            }
        }
    }

    // Residual mass: treat as total blackout (conservative).
    let covered: f64 = scenarios.iter().map(|s| s.probability).sum();
    let residual = (1.0 - covered).max(0.0);
    if residual > 1e-12 {
        scenarios.push(FailureScenario {
            dead_links: topo.links().iter().map(|l| l.id).collect(),
            probability: residual,
            label: "blackout(residual)".into(),
        });
    }
    ScenarioSet { scenarios }
}

impl ScenarioSet {
    /// Exhaustively enumerate scenarios with up to `max_cuts` simultaneous
    /// fiber cuts (0, 1, or 2 supported — beyond dual cuts the probability
    /// mass is negligible for availability targets down to 0.95).
    ///
    /// Probabilities are exact joint probabilities under independent link
    /// failure; the residual mass of >`max_cuts` scenarios is folded into
    /// a synthetic "blackout" scenario that kills everything, which makes
    /// availability estimates conservative rather than optimistic.
    pub fn enumerate(topo: &Topology, max_cuts: usize) -> ScenarioSet {
        let groups = fiber_groups(topo);
        let units: Vec<RiskUnit> = groups
            .iter()
            .map(|g| RiskUnit {
                links: &g.links,
                availability: g.availability,
                label: format!("cut({}-{})", g.endpoints.0, g.endpoints.1),
            })
            .collect();
        enumerate_units(topo, &units, max_cuts)
    }

    /// Monte-Carlo sample `n` scenarios: each fiber group is independently
    /// down with probability `1 - availability`. Every sampled scenario
    /// has weight `1/n`.
    pub fn sample(topo: &Topology, n: usize, seed: u64) -> ScenarioSet {
        let groups = fiber_groups(topo);
        let mut rng = DetRng::new(seed);
        let mut scenarios = Vec::with_capacity(n);
        for i in 0..n {
            let mut dead = Vec::new();
            let mut cuts = 0usize;
            for g in &groups {
                if rng.chance(1.0 - g.availability) {
                    dead.extend_from_slice(&g.links);
                    cuts += 1;
                }
            }
            scenarios.push(FailureScenario {
                dead_links: dead,
                probability: 1.0 / n as f64,
                label: if cuts == 0 {
                    "ok".into()
                } else {
                    format!("mc{i}:{cuts}cuts")
                },
            });
        }
        ScenarioSet { scenarios }
    }

    /// Total probability mass (should be ~1).
    pub fn total_probability(&self) -> f64 {
        self.scenarios.iter().map(|s| s.probability).sum()
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BackboneSpec;

    #[test]
    fn link_sets_render_for_labels() {
        let cut = |dead_links: Vec<LinkId>| FailureScenario {
            dead_links,
            ..FailureScenario::healthy(1.0)
        };
        assert_eq!(cut(vec![]).links_label(), "none");
        assert_eq!(cut(vec![LinkId(3)]).links_label(), "l3");
        assert_eq!(cut(vec![LinkId(3), LinkId(7)]).links_label(), "l3+l7");
    }

    #[test]
    fn fiber_groups_pair_duplex_links() {
        let topo = BackboneSpec::small(9).build();
        let groups = fiber_groups(&topo);
        // The generator only creates duplex pairs, so every group has 2 links.
        assert!(groups.iter().all(|g| g.links.len() == 2));
        assert_eq!(
            groups.iter().map(|g| g.links.len()).sum::<usize>(),
            topo.link_count()
        );
    }

    #[test]
    fn enumeration_mass_sums_to_one() {
        let topo = BackboneSpec::small(13).build();
        for max_cuts in 0..=2 {
            let set = ScenarioSet::enumerate(&topo, max_cuts);
            assert!(
                (set.total_probability() - 1.0).abs() < 1e-9,
                "mass {} at max_cuts {max_cuts}",
                set.total_probability()
            );
        }
    }

    #[test]
    fn enumeration_counts() {
        let topo = BackboneSpec::small(13).build();
        let g = fiber_groups(&topo).len();
        let single = ScenarioSet::enumerate(&topo, 1);
        // healthy + g singles + residual blackout.
        assert_eq!(single.len(), g + 2);
        let dual = ScenarioSet::enumerate(&topo, 2);
        assert_eq!(dual.len(), 1 + g + g * (g - 1) / 2 + 1);
    }

    #[test]
    fn healthy_scenario_dominates() {
        let topo = BackboneSpec::small(17).build();
        let set = ScenarioSet::enumerate(&topo, 2);
        let healthy = &set.scenarios[0];
        assert!(healthy.dead_links.is_empty());
        assert!(
            healthy.probability > 0.5,
            "backbone should be mostly healthy, got {}",
            healthy.probability
        );
        for s in &set.scenarios[1..] {
            assert!(s.probability <= healthy.probability);
        }
    }

    #[test]
    fn sampling_is_deterministic_and_weighted() {
        let topo = BackboneSpec::small(19).build();
        let a = ScenarioSet::sample(&topo, 100, 5);
        let b = ScenarioSet::sample(&topo, 100, 5);
        assert_eq!(a.scenarios, b.scenarios);
        assert!((a.total_probability() - 1.0).abs() < 1e-9);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn sampled_cut_rate_tracks_availability() {
        let topo = BackboneSpec::small(23).build();
        let groups = fiber_groups(&topo);
        let expected_cuts: f64 = groups.iter().map(|g| 1.0 - g.availability).sum();
        let n = 20_000;
        let set = ScenarioSet::sample(&topo, n, 7);
        let mean_cuts: f64 = set
            .scenarios
            .iter()
            .map(|s| s.dead_links.len() as f64 / 2.0)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean_cuts - expected_cuts).abs() < 0.05 * expected_cuts.max(0.05),
            "mean {mean_cuts} vs expected {expected_cuts}"
        );
    }
}
