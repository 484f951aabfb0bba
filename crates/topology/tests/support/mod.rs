//! Worlds the route-plan tests share: the generated backbones with
//! their lengths as generated, snapped to a grid or all equal, the
//! benchmark's two worlds, and the scenario and pair sets asked of
//! them. Included by `plan_props.rs` here and by the workspace root's
//! `tests/path_memo.rs`.

#![allow(dead_code)]

use entitlement_core::RegionId;
use entitlement_topology::{BackboneSpec, FailureScenario, LinkId, ScenarioSet, Topology};

/// `topo` with every fiber length snapped up to a multiple of `step`
/// km (so many routes tie exactly) and every link `availability`
/// available (so Monte-Carlo draws cut something).
pub fn snapped(topo: &Topology, step: f64, availability: f64) -> Topology {
    let mut out = Topology::new();
    for r in topo.regions() {
        out.add_region(r.name.clone(), r.is_dc, r.capacity_scale);
    }
    for l in topo.links() {
        let length = (l.length_km / step).ceil().max(1.0) * step;
        out.add_link(l.src, l.dst, l.capacity, availability, length)
            .unwrap();
    }
    out
}

/// Every scenario of `set` with `fault` dead on top, as the market
/// builds its effective set after `apply_fault`.
pub fn faulted(set: &ScenarioSet, fault: &[LinkId]) -> ScenarioSet {
    ScenarioSet {
        scenarios: set
            .scenarios
            .iter()
            .map(|s| {
                let mut dead = s.dead_links.clone();
                dead.extend(fault.iter().filter(|l| !s.dead_links.contains(l)));
                FailureScenario {
                    dead_links: dead,
                    ..s.clone()
                }
            })
            .collect(),
    }
}

/// Every directed pair of distinct regions.
pub fn all_pairs(topo: &Topology) -> Vec<(RegionId, RegionId)> {
    let ids = topo.region_ids();
    ids.iter()
        .flat_map(|&s| ids.iter().map(move |&d| (s, d)))
        .filter(|(s, d)| s != d)
        .collect()
}

/// Every directed pair of distinct DCs.
pub fn dc_pairs(topo: &Topology) -> Vec<(RegionId, RegionId)> {
    let dcs = topo.dc_ids();
    dcs.iter()
        .flat_map(|&s| dcs.iter().map(move |&d| (s, d)))
        .filter(|(s, d)| s != d)
        .collect()
}

/// A small generated backbone of `shape` (3-5 DCs x 0-3 PoPs), with
/// the generator's lengths (`snap` 0) or lengths snapped to 250 km,
/// 1 000 km or one common length.
pub fn backbone(seed: u64, shape: usize, snap: usize) -> Topology {
    let generated = BackboneSpec {
        dc_count: 3 + shape / 4,
        pop_count: shape % 4,
        seed,
        ..BackboneSpec::small(seed)
    }
    .build();
    match snap {
        0 => generated,
        1 => snapped(&generated, 250.0, 0.93),
        2 => snapped(&generated, 1000.0, 0.93),
        _ => snapped(&generated, 1e6, 0.85), // every link the same length
    }
}

/// The benchmark's approval world: 6 DCs, 3 PoPs.
pub fn approval_world() -> Topology {
    BackboneSpec {
        dc_count: 6,
        pop_count: 3,
        seed: 2,
        ..Default::default()
    }
    .build()
}

/// The benchmark's admit world: 10 DCs, 5 PoPs, 90 DC pairs.
pub fn admit_world() -> Topology {
    BackboneSpec {
        dc_count: 10,
        pop_count: 5,
        ..BackboneSpec::small(2)
    }
    .build()
}
