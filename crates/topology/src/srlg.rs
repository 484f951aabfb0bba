//! Shared-risk link groups (SRLGs).
//!
//! Long-haul fibers frequently share physical conduits: one backhoe
//! severs several logical links at once. The risk analysis that backs
//! SLO-aware approval (paper §4.3, reference \[24\]) must therefore model
//! *correlated* failures — treating shared-conduit links as independent
//! over-estimates availability exactly where it matters.
//!
//! This module groups a topology's fiber pairs into conduits and builds
//! failure scenarios at conduit granularity. The synthetic conduit
//! assignment merges geographically parallel fiber groups (links whose
//! endpoints are near each other on the generator's map share a right of
//! way with some probability).

use crate::failure::{enumerate_units, fiber_groups, FiberGroup, RiskUnit, ScenarioSet};
use crate::graph::{LinkId, Topology};
use entitlement_core::DetRng;
use serde::{Deserialize, Serialize};

/// A conduit: a set of fiber groups sharing physical risk.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Conduit {
    /// Conduit id.
    pub id: u32,
    /// All directed links riding this conduit.
    pub links: Vec<LinkId>,
    /// Probability the conduit is up (min of member availabilities —
    /// the conduit is cut whenever its most fragile member would be).
    pub availability: f64,
}

/// The conduit assignment for a topology.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SrlgMap {
    /// The conduits, each with at least one fiber group.
    pub conduits: Vec<Conduit>,
}

impl SrlgMap {
    /// Trivial assignment: one conduit per fiber group (independent
    /// failures — identical to the base model).
    pub fn independent(topo: &Topology) -> SrlgMap {
        let groups = fiber_groups(topo);
        SrlgMap {
            conduits: groups
                .into_iter()
                .enumerate()
                .map(|(i, g)| Conduit {
                    id: i as u32,
                    links: g.links,
                    availability: g.availability,
                })
                .collect(),
        }
    }

    /// Synthetic assignment: each pair of fiber groups sharing an
    /// endpoint region is merged into one conduit with probability
    /// `merge_probability` (fibers leaving the same site often share the
    /// last-mile right of way).
    pub fn synthesize(topo: &Topology, merge_probability: f64, seed: u64) -> SrlgMap {
        let groups: Vec<FiberGroup> = fiber_groups(topo);
        let mut rng = DetRng::new(seed);
        // Union-find over fiber groups.
        let mut parent: Vec<usize> = (0..groups.len()).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        for i in 0..groups.len() {
            for j in (i + 1)..groups.len() {
                let (a, b) = (&groups[i].endpoints, &groups[j].endpoints);
                let shares_site = a.0 == b.0 || a.0 == b.1 || a.1 == b.0 || a.1 == b.1;
                if shares_site && rng.chance(merge_probability) {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for i in 0..groups.len() {
            let r = find(&mut parent, i);
            by_root.entry(r).or_default().push(i);
        }
        SrlgMap {
            conduits: by_root
                .into_values()
                .enumerate()
                .map(|(id, members)| Conduit {
                    id: id as u32,
                    links: members
                        .iter()
                        .flat_map(|&m| groups[m].links.iter().copied())
                        .collect(),
                    availability: members
                        .iter()
                        .map(|&m| groups[m].availability)
                        .fold(1.0, f64::min),
                })
                .collect(),
        }
    }

    /// Number of conduits.
    pub fn len(&self) -> usize {
        self.conduits.len()
    }

    /// Whether there are no conduits.
    pub fn is_empty(&self) -> bool {
        self.conduits.is_empty()
    }

    /// Enumerate failure scenarios at conduit granularity with up to
    /// `max_cuts` simultaneous conduit cuts (0–2), mirroring
    /// [`ScenarioSet::enumerate`] including the conservative residual
    /// blackout.
    pub fn enumerate(&self, topo: &Topology, max_cuts: usize) -> ScenarioSet {
        let units: Vec<RiskUnit> = self
            .conduits
            .iter()
            .map(|c| RiskUnit {
                links: &c.links,
                availability: c.availability,
                label: format!("conduit{}", c.id),
            })
            .collect();
        enumerate_units(topo, &units, max_cuts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BackboneSpec;
    use crate::maxflow::max_flow;
    use entitlement_core::Rate;

    #[test]
    fn independent_map_matches_fiber_groups() {
        let topo = BackboneSpec::small(51).build();
        let map = SrlgMap::independent(&topo);
        assert_eq!(map.len(), fiber_groups(&topo).len());
        let link_total: usize = map.conduits.iter().map(|c| c.links.len()).sum();
        assert_eq!(link_total, topo.link_count());
    }

    #[test]
    fn synthesis_merges_some_conduits() {
        let topo = BackboneSpec::small(51).build();
        let map = SrlgMap::synthesize(&topo, 0.5, 7);
        assert!(map.len() < fiber_groups(&topo).len(), "some merges happened");
        // Every link still assigned exactly once.
        let mut all: Vec<LinkId> = map.conduits.iter().flat_map(|c| c.links.clone()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), topo.link_count());
    }

    #[test]
    fn zero_probability_means_independent() {
        let topo = BackboneSpec::small(51).build();
        let map = SrlgMap::synthesize(&topo, 0.0, 7);
        assert_eq!(map.len(), fiber_groups(&topo).len());
    }

    #[test]
    fn the_independent_map_enumerates_the_base_model() {
        for seed in [51, 53, 57] {
            let topo = BackboneSpec::small(seed).build();
            for cuts in 0..=2 {
                let base = ScenarioSet::enumerate(&topo, cuts);
                let srlg = SrlgMap::independent(&topo).enumerate(&topo, cuts);
                assert_eq!(srlg.len(), base.len(), "seed {seed} cuts {cuts}");
                for (a, b) in srlg.scenarios.iter().zip(&base.scenarios) {
                    assert_eq!(a.dead_links, b.dead_links, "seed {seed} cuts {cuts}");
                    assert_eq!(
                        a.probability.to_bits(),
                        b.probability.to_bits(),
                        "seed {seed} cuts {cuts}: {} vs {}",
                        a.label,
                        b.label
                    );
                }
            }
        }
    }

    #[test]
    fn scenario_mass_sums_to_one() {
        let topo = BackboneSpec::small(53).build();
        let map = SrlgMap::synthesize(&topo, 0.4, 9);
        for cuts in 0..=2 {
            let set = map.enumerate(&topo, cuts);
            assert!((set.total_probability() - 1.0).abs() < 1e-9, "cuts {cuts}");
        }
    }

    #[test]
    fn correlated_failures_reduce_availability() {
        // The headline property: for the same pipe, the SRLG-correlated
        // model reports availability ≤ the independent model at any
        // given volume, because one cut can now take multiple paths.
        let topo = BackboneSpec::small(57).build();
        let ids = topo.dc_ids();
        let (s, d) = (ids[0], ids[2]);
        let volume = Rate::gbps(100.0);

        let availability = |set: &ScenarioSet| -> f64 {
            set.scenarios
                .iter()
                .filter(|sc| max_flow(&topo, s, d, &sc.dead_links).as_bps() >= volume.as_bps())
                .map(|sc| sc.probability)
                .sum()
        };
        let independent = availability(&SrlgMap::independent(&topo).enumerate(&topo, 2));
        let correlated = availability(&SrlgMap::synthesize(&topo, 0.8, 3).enumerate(&topo, 2));
        assert!(
            correlated <= independent + 1e-9,
            "correlated {correlated} must not beat independent {independent}"
        );
        assert!(independent > 0.9, "sanity: the pipe is mostly available");
    }

    #[test]
    fn conduit_availability_is_weakest_member() {
        let topo = BackboneSpec::small(59).build();
        let map = SrlgMap::synthesize(&topo, 0.9, 11);
        let groups = fiber_groups(&topo);
        for conduit in &map.conduits {
            // Find member groups by link membership.
            let members: Vec<&FiberGroup> = groups
                .iter()
                .filter(|g| g.links.iter().all(|l| conduit.links.contains(l)))
                .collect();
            if members.is_empty() {
                continue;
            }
            let min = members.iter().map(|g| g.availability).fold(1.0, f64::min);
            assert!((conduit.availability - min).abs() < 1e-12);
        }
    }
}
