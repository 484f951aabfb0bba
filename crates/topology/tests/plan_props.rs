//! The route plan's one contract: whatever it serves for a
//! `(pair, scenario)` is exactly what a Yen run on that scenario's dead
//! links returns — same links, same order, same `length_km` bits —
//! including on topologies built to tie, where the alias rule has to
//! fall back to a search of its own.

use entitlement_core::{DetRng, RegionId};
use entitlement_topology::failure::fiber_groups;
use entitlement_topology::{
    k_shortest_paths, BackboneSpec, FailureScenario, LinkId, RoutePlan, ScenarioSet, Topology,
};
use proptest::prelude::*;

/// `topo` with every fiber length snapped up to a multiple of `step`
/// km (so many routes tie exactly) and every link `availability`
/// available (so Monte-Carlo draws cut something).
fn snapped(topo: &Topology, step: f64, availability: f64) -> Topology {
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
fn faulted(set: &ScenarioSet, fault: &[LinkId]) -> ScenarioSet {
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

fn assert_plan_is_yen(topo: &Topology, scenarios: &ScenarioSet, k: usize, what: &str) {
    let ids = topo.region_ids();
    let pairs: Vec<(RegionId, RegionId)> = ids
        .iter()
        .flat_map(|&s| ids.iter().map(move |&d| (s, d)))
        .filter(|(s, d)| s != d)
        .collect();
    let mut plan = RoutePlan::build(topo, scenarios, k);
    assert_eq!(plan.scenario_count(), scenarios.len());
    plan.ensure(topo, pairs.iter().copied());
    assert!(plan.covers(pairs.iter().copied()));
    for (i, scenario) in scenarios.scenarios.iter().enumerate() {
        for &(s, d) in &pairs {
            let served: Vec<(Vec<LinkId>, u64)> = plan
                .paths(s, d, plan.unique_of(i))
                .map(|p| (p.links.to_vec(), p.length_km.to_bits()))
                .collect();
            let searched: Vec<(Vec<LinkId>, u64)> =
                k_shortest_paths(topo, s, d, k, &scenario.dead_links)
                    .unwrap_or_default()
                    .into_iter()
                    .map(|p| (p.links, p.length_km.to_bits()))
                    .collect();
            assert_eq!(
                served, searched,
                "{what}: {s}->{d} under `{}` (k = {k})",
                scenario.label
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_served_path_set_is_the_yen_answer(
        seed in 0u64..10_000,
        // 3-5 DCs x 0-3 PoPs.
        shape in 0usize..12,
        k in 1usize..6,
        // 0 keeps the generator's lengths; otherwise snap to this many km.
        snap in 0usize..4,
    ) {
        let generated = BackboneSpec {
            dc_count: 3 + shape / 4,
            pop_count: shape % 4,
            seed,
            ..BackboneSpec::small(seed)
        }
        .build();
        let topo = match snap {
            0 => generated,
            1 => snapped(&generated, 250.0, 0.93),
            2 => snapped(&generated, 1000.0, 0.93),
            _ => snapped(&generated, 1e6, 0.85), // every link the same length
        };
        let mut rng = DetRng::new(seed ^ 0xFA17);
        let groups = fiber_groups(&topo);
        let fault = groups[rng.usize(groups.len())].links.clone();

        for max_cuts in [1, 2] {
            let set = ScenarioSet::enumerate(&topo, max_cuts);
            assert_plan_is_yen(&topo, &set, k, "enumerated");
            if max_cuts == 1 {
                assert_plan_is_yen(&topo, &faulted(&set, &fault), k, "enumerated + fault");
            }
        }
        let sampled = ScenarioSet::sample(&topo, 60, seed);
        assert_plan_is_yen(&topo, &sampled, k, "sampled");
        assert_plan_is_yen(&topo, &faulted(&sampled, &fault), k, "sampled + fault");
    }
}

/// Every directed pair of distinct DCs.
fn dc_pairs(topo: &Topology) -> Vec<(RegionId, RegionId)> {
    let dcs = topo.dc_ids();
    dcs.iter()
        .flat_map(|&s| dcs.iter().map(move |&d| (s, d)))
        .filter(|(s, d)| s != d)
        .collect()
}

#[test]
fn most_single_cuts_ride_the_healthy_paths() {
    let topo = BackboneSpec {
        dc_count: 10,
        pop_count: 5,
        ..BackboneSpec::small(2)
    }
    .build();
    let scenarios = ScenarioSet::enumerate(&topo, 1);
    let pairs = dc_pairs(&topo);
    let mut plan = RoutePlan::build(&topo, &scenarios, 4);
    plan.ensure(&topo, pairs.iter().copied());
    let lookups = pairs.len() * scenarios.len();
    assert!(
        plan.path_sets() * 2 < lookups,
        "{} searches for {lookups} (pair, scenario) lookups",
        plan.path_sets()
    );
    assert!(plan.heap_bytes() < 300_000, "{} bytes", plan.heap_bytes());
}

#[test]
fn monte_carlo_sets_deduplicate_heavily_and_enumerated_ones_not_at_all() {
    let topo = BackboneSpec::small(3).build();
    let enumerated = ScenarioSet::enumerate(&topo, 2);
    let plan = RoutePlan::build(&topo, &enumerated, 4);
    assert_eq!(plan.unique_len(), enumerated.len());
    assert_eq!(
        plan.representatives(),
        (0..enumerated.len()).collect::<Vec<_>>()
    );

    let sampled = ScenarioSet::sample(&topo, 2000, 0xDED0);
    let plan = RoutePlan::build(&topo, &sampled, 4);
    assert!(
        plan.unique_len() < sampled.len() / 2,
        "expected heavy duplication, got {} unique of {}",
        plan.unique_len(),
        sampled.len()
    );
    // Every scenario maps to the first scenario with its failure set.
    for (i, s) in sampled.scenarios.iter().enumerate() {
        let first = &sampled.scenarios[plan.representatives()[plan.unique_of(i)]];
        let (mut a, mut b) = (s.dead_links.clone(), first.dead_links.clone());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}

#[test]
fn covers_tracks_what_ensure_filled() {
    let topo = BackboneSpec::small(3).build();
    let scenarios = ScenarioSet::enumerate(&topo, 1);
    let ids = topo.region_ids();
    let mut plan = RoutePlan::build(&topo, &scenarios, 4);
    assert!(!plan.covers([(ids[0], ids[1])]));
    assert!(
        plan.covers([(ids[0], ids[0])]),
        "a self pair needs no route"
    );
    plan.ensure(&topo, [(ids[0], ids[1])]);
    assert!(plan.covers([(ids[0], ids[1])]));
    assert!(!plan.covers([(ids[1], ids[0])]), "pairs are directed");
    assert!(plan.paths(ids[0], ids[1], 0).count() > 0);
}

/// The alias rule's one gap, built by hand. Healthy, the second path is
/// picked from a three-way tie: the spur at `s` finds `s-c-d-t` (region
/// `d` pops before `y`), the spur at `a` finds `s-a-b-t`, and
/// `s-a-b-t` wins on link ids. Cutting `c->d` touches neither chosen
/// path — but now the spur at `s` finds `s-x-y-t`, whose link ids beat
/// `s-a-b-t`. A plan that aliased this scenario would serve the wrong
/// second path.
#[test]
fn a_tie_decided_by_a_dead_link_gets_its_own_search() {
    use entitlement_core::Rate;
    let mut topo = Topology::new();
    let [s, a, b, c, d, x, y, t] =
        ["s", "a", "b", "c", "d", "x", "y", "t"].map(|n| topo.add_region(n, true, 1.0));
    let mut link = |from, to| {
        topo.add_link(from, to, Rate::gbps(10.0), 0.99, 100.0)
            .unwrap()
    };
    let via_x = [link(s, x), link(x, y), link(y, t)];
    let direct = [link(s, a), link(a, t)];
    let via_b = [direct[0], link(a, b), link(b, t)];
    let via_d = [link(s, c), link(c, d), link(d, t)];

    let healthy = k_shortest_paths(&topo, s, t, 2, &[]).unwrap();
    assert_eq!(healthy[0].links, direct);
    assert_eq!(healthy[1].links, via_b);
    let cut = k_shortest_paths(&topo, s, t, 2, &via_d[1..2]).unwrap();
    assert_eq!(
        cut[1].links, via_x,
        "the cut changes a path it does not touch"
    );

    let scenarios = ScenarioSet {
        scenarios: vec![
            FailureScenario::healthy(0.9),
            FailureScenario {
                dead_links: via_d[1..2].to_vec(),
                probability: 0.1,
                label: "cut(c-d)".into(),
            },
        ],
    };
    assert_plan_is_yen(&topo, &scenarios, 2, "hand-built tie");
}

/// An approval round keeps one plan for all its hoses, so at worst the
/// plan holds every DC pair of the backbone under every dual cut, not
/// one hose's. That worst case is a number — on the small backbone 20
/// pairs x 107 failure sets, 1 712 stored path sets, 300 032 bytes —
/// and the budget is that measurement plus a sixth.
#[test]
fn a_round_lifetime_plan_of_every_dc_pair_fits_its_budget() {
    let topo = BackboneSpec::small(41).build();
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let pairs = dc_pairs(&topo);
    let mut plan = RoutePlan::build(&topo, &scenarios, 4);
    plan.ensure(&topo, pairs.iter().copied());
    assert_eq!((pairs.len(), plan.unique_len()), (20, 107));
    assert!(plan.heap_bytes() < 350_000, "{} bytes", plan.heap_bytes());
}
