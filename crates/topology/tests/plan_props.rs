//! The route plan's one contract: whatever it serves for a
//! `(pair, scenario)` is exactly what a Yen run on that scenario's dead
//! links returns — same links, same order, same `length_km` bits —
//! including on topologies built to tie, where reading the answer off
//! the pair's pool has to fall back to a search of its own. "A Yen run"
//! is the library's `k_shortest_paths` and, independently, PR 15's
//! search kept below as `reference_yen`.

use entitlement_core::{DetRng, EntitlementError, RegionId};
use entitlement_topology::failure::fiber_groups;
use entitlement_topology::{
    k_shortest_paths, BackboneSpec, FailureScenario, LinkId, Path, RoutePlan, ScenarioSet,
    Topology, PLAN_KEYS,
};
use proptest::prelude::*;

mod support;

use support::{admit_world, all_pairs, approval_world, backbone, dc_pairs, faulted};

/// A search's answer as links plus `length_km` bits; no path when the
/// search errs.
fn bits(paths: Result<Vec<Path>, EntitlementError>) -> Vec<(Vec<LinkId>, u64)> {
    paths
        .unwrap_or_default()
        .into_iter()
        .map(|p| (p.links, p.length_km.to_bits()))
        .collect()
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
        shape in 0usize..12,
        k in 1usize..6,
        snap in 0usize..4,
    ) {
        let topo = backbone(seed, shape, snap);
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

/// PR 15's `path::yen` and its Dijkstra, kept verbatim as a reference
/// the library shares no code with. Two mechanical edits: dead links
/// are a slice instead of the crate-private bit mask, and the near-tie
/// bookkeeping only the retired alias rule read is gone.
mod reference {
    use entitlement_core::{EntitlementError, RegionId, Result};
    use entitlement_topology::{LinkId, Path, Topology};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct HeapItem {
        dist: f64,
        region: RegionId,
    }

    impl Eq for HeapItem {}

    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on distance; tie-break on region for determinism.
            other
                .dist
                .partial_cmp(&self.dist)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.region.cmp(&self.region))
        }
    }

    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    fn shortest_path_filtered(
        topo: &Topology,
        src: RegionId,
        dst: RegionId,
        link_ok: impl Fn(LinkId) -> bool,
        banned_regions: &[RegionId],
    ) -> Result<Path> {
        let n = topo.region_count();
        if src.index() >= n {
            return Err(EntitlementError::UnknownRegion(src));
        }
        if dst.index() >= n {
            return Err(EntitlementError::UnknownRegion(dst));
        }
        if src == dst {
            return Ok(Path {
                links: Vec::new(),
                length_km: 0.0,
            });
        }
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<LinkId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = 0.0;
        heap.push(HeapItem {
            dist: 0.0,
            region: src,
        });
        while let Some(HeapItem { dist: d, region }) = heap.pop() {
            if d > dist[region.index()] {
                continue;
            }
            if region == dst {
                break;
            }
            for &lid in topo.outgoing(region) {
                if !link_ok(lid) {
                    continue;
                }
                let Some(link) = topo.link(lid) else { continue };
                if banned_regions.contains(&link.dst) && link.dst != dst {
                    continue;
                }
                let nd = d + link.length_km;
                if nd < dist[link.dst.index()] {
                    dist[link.dst.index()] = nd;
                    prev[link.dst.index()] = Some(lid);
                    heap.push(HeapItem {
                        dist: nd,
                        region: link.dst,
                    });
                }
            }
        }
        if dist[dst.index()].is_infinite() {
            return Err(EntitlementError::Disconnected(src, dst));
        }
        // Reconstruct.
        let mut links = Vec::new();
        let mut cur = dst;
        while cur != src {
            let Some(link) = prev[cur.index()].and_then(|lid| topo.link(lid)) else {
                return Err(EntitlementError::Disconnected(src, dst));
            };
            links.push(link.id);
            cur = link.src;
        }
        links.reverse();
        Ok(Path {
            links,
            length_km: dist[dst.index()],
        })
    }

    pub fn reference_yen(
        topo: &Topology,
        src: RegionId,
        dst: RegionId,
        k: usize,
        dead: &[LinkId],
    ) -> Result<Vec<Path>> {
        let length_of = |links: &[LinkId]| -> f64 {
            links
                .iter()
                .filter_map(|l| topo.link(*l))
                .map(|l| l.length_km)
                .sum()
        };
        let mut last = shortest_path_filtered(topo, src, dst, |lid| !dead.contains(&lid), &[])?;
        let mut paths = vec![last.clone()];
        let mut candidates: Vec<Path> = Vec::new();

        while paths.len() < k {
            // Spur from every node of the previous path.
            let mut spur_node = src;
            let mut banned_regions: Vec<RegionId> = Vec::new();
            for i in 0..last.links.len() {
                let root_links = &last.links[..i];
                // Ban links that would recreate an already-found path with the
                // same root.
                let banned_links: Vec<LinkId> = paths
                    .iter()
                    .filter(|p| p.links.len() > i && p.links[..i] == *root_links)
                    .map(|p| p.links[i])
                    .collect();
                let spur = shortest_path_filtered(
                    topo,
                    spur_node,
                    dst,
                    |lid| !dead.contains(&lid) && !banned_links.contains(&lid),
                    // The root's regions stay banned to keep paths loopless.
                    &banned_regions,
                );
                if let Ok(spur_path) = spur {
                    let mut links: Vec<LinkId> = root_links.to_vec();
                    links.extend_from_slice(&spur_path.links);
                    let length_km = length_of(&links);
                    let cand = Path { links, length_km };
                    if !paths.contains(&cand) && !candidates.contains(&cand) {
                        candidates.push(cand);
                    }
                }
                banned_regions.push(spur_node);
                if let Some(link) = topo.link(last.links[i]) {
                    spur_node = link.dst;
                }
            }
            if candidates.is_empty() {
                break;
            }
            // Take the shortest candidate (stable tie-break on link ids).
            candidates.sort_by(|a, b| {
                a.length_km
                    .partial_cmp(&b.length_km)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| a.links.cmp(&b.links))
            });
            last = candidates.remove(0);
            paths.push(last.clone());
        }
        Ok(paths)
    }
}

use reference::reference_yen;

/// [`assert_plan_is_yen`] against [`reference_yen`] instead of the
/// library's own search.
fn assert_plan_is_reference(topo: &Topology, scenarios: &ScenarioSet, k: usize, what: &str) {
    let pairs = all_pairs(topo);
    let mut plan = RoutePlan::build(topo, scenarios, k);
    plan.ensure(topo, pairs.iter().copied());
    for u in 0..plan.unique_len() {
        let dead = &scenarios.scenarios[plan.representatives()[u]].dead_links;
        for &(s, d) in &pairs {
            let served: Vec<(Vec<LinkId>, u64)> = plan
                .paths(s, d, u)
                .map(|p| (p.links.to_vec(), p.length_km.to_bits()))
                .collect();
            assert_eq!(
                served,
                bits(reference_yen(topo, s, d, k, dead)),
                "{what}: {s}->{d} under {dead:?} (k = {k})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `k_shortest_paths` selects what the reference selects, on exact
    /// ties and all-equal lengths too, and deeper than the plan's pool.
    #[test]
    fn the_search_is_the_reference_yen(
        seed in 0u64..10_000,
        shape in 0usize..12,
        k in 1usize..13,
        snap in 0usize..4,
    ) {
        let topo = backbone(seed, shape, snap);
        let mut scenarios = ScenarioSet::enumerate(&topo, 1).scenarios;
        scenarios.extend(ScenarioSet::sample(&topo, 12, seed).scenarios);
        for scenario in &scenarios {
            for (s, d) in all_pairs(&topo) {
                let ours = k_shortest_paths(&topo, s, d, k, &scenario.dead_links);
                let theirs = reference_yen(&topo, s, d, k, &scenario.dead_links);
                assert_eq!(ours.is_err(), theirs.is_err(), "{s}->{d} under `{}`", scenario.label);
                assert_eq!(bits(ours), bits(theirs), "{s}->{d} under `{}` (k = {k})", scenario.label);
            }
        }
    }

    /// Whatever the plan serves is the reference's answer under every
    /// failure set, whether read off the pool or searched on its own.
    #[test]
    fn every_served_path_set_is_the_reference_answer(
        seed in 0u64..10_000,
        shape in 0usize..12,
        k in 1usize..13,
        snap in 0usize..4,
    ) {
        let topo = backbone(seed, shape, snap);
        let groups = fiber_groups(&topo);
        let fault = groups[DetRng::new(seed ^ 0xFA17).usize(groups.len())].links.clone();
        for max_cuts in [1, 2] {
            let set = ScenarioSet::enumerate(&topo, max_cuts);
            assert_plan_is_reference(&topo, &set, k, "enumerated");
            if max_cuts == 1 {
                assert_plan_is_reference(&topo, &faulted(&set, &fault), k, "enumerated + fault");
            }
        }
        assert_plan_is_reference(&topo, &ScenarioSet::sample(&topo, 40, seed), k, "sampled");
    }
}

/// `k = 0` asks for no path, and gets none — not the shortest one.
#[test]
fn zero_paths_means_no_path() {
    let topo = BackboneSpec::small(3).build();
    let ids = topo.region_ids();
    assert_eq!(
        k_shortest_paths(&topo, ids[0], ids[1], 0, &[]).unwrap(),
        vec![]
    );

    let scenarios = ScenarioSet::enumerate(&topo, 1);
    let mut plan = RoutePlan::build(&topo, &scenarios, 0);
    plan.ensure(&topo, [(ids[0], ids[1])]);
    assert_eq!(plan.paths(ids[0], ids[1], 0).count(), 0);
    let demand = entitlement_topology::routing::Demand {
        src: ids[0],
        dst: ids[1],
        amount: entitlement_core::Rate::gbps(1.0),
    };
    let placed = plan.route(&topo, 0, &[demand]);
    assert!(
        placed.admitted_total.is_zero(),
        "routed {:?}",
        placed.admitted
    );
}

#[test]
fn most_single_cuts_ride_the_healthy_paths() {
    let topo = admit_world();
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

/// The topology's pool memo beside the plans that read it: one pool
/// per ordered pair a plan asked for, and no more however many plans,
/// failure sets or `k` ask again (a deeper `k` replaces the pair's pool
/// in place). At `k` = 4 the admit world's 90 DC pairs hold 69 392
/// bytes and the approval world's 30 hold 21 824; the budgets are those
/// measurements plus a sixth.
#[test]
fn the_pool_memo_holds_one_pool_per_pair_within_its_budget() {
    for (topo, budget) in [(admit_world(), 81_000), (approval_world(), 25_500)] {
        let pairs = dc_pairs(&topo);
        let fill = |max_cuts, k| {
            let scenarios = ScenarioSet::enumerate(&topo, max_cuts);
            RoutePlan::build(&topo, &scenarios, k).ensure(&topo, pairs.iter().copied());
            assert_eq!(topo.pooled_pairs(), pairs.len(), "max_cuts {max_cuts}, k {k}");
        };
        fill(1, 4);
        fill(2, 4);
        assert!(topo.pool_bytes() < budget, "{} bytes", topo.pool_bytes());
        fill(1, 1);
        fill(1, 12);
        fill(1, 4);
    }
}

/// The memo's plan rows beside its pools: at `k` = 4 the admit world's
/// 90 DC pairs under its 28 single-cut failure sets hold 150 264 bytes
/// of rows, and the approval world's 30 under 17 hold 36 424; the
/// budgets are those measurements plus a sixth. A plan's bytes count
/// the rows it references. However many keys are asked for, the memo
/// keeps [`PLAN_KEYS`] of them.
#[test]
fn the_row_memo_keeps_at_most_plan_keys_within_its_budget() {
    let worlds = [
        (admit_world(), (90, 28), 175_500),
        (approval_world(), (30, 17), 42_500),
    ];
    for (topo, shape, budget) in worlds {
        let pairs = dc_pairs(&topo);
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        for (n, k) in (4..4 + 2 * PLAN_KEYS).enumerate() {
            let mut plan = RoutePlan::build(&topo, &scenarios, k);
            plan.ensure(&topo, pairs.iter().copied());
            assert_eq!(topo.plan_keys(), (n + 1).min(PLAN_KEYS), "k {k}");
            if n == 0 {
                assert_eq!((pairs.len(), plan.unique_len()), shape);
                assert!(topo.row_bytes() < budget, "{} bytes", topo.row_bytes());
                assert!(plan.heap_bytes() > topo.row_bytes());
            }
        }
    }
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

/// A tie decided by a dead link, built by hand (the gap that retired
/// PR 15's alias rule). Healthy, the second path is picked from a
/// three-way tie: the spur at `s` finds `s-c-d-t` (region `d` pops
/// before `y`), the spur at `a` finds `s-a-b-t`, and `s-a-b-t` wins on
/// link ids. Cutting `c->d` touches neither chosen path — but now the
/// spur at `s` finds `s-x-y-t`, whose link ids beat `s-a-b-t`. A plan
/// that served this scenario the healthy paths would serve the wrong
/// second path; the pool rule sees the second and third survivors tied
/// and gives the scenario a search of its own.
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
/// pairs x 107 failure sets, 1 712 stored path sets, 224 504 bytes with
/// the rows at exact capacity — and the budget is that measurement plus
/// a sixth.
#[test]
fn a_round_lifetime_plan_of_every_dc_pair_fits_its_budget() {
    let topo = BackboneSpec::small(41).build();
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let pairs = dc_pairs(&topo);
    let mut plan = RoutePlan::build(&topo, &scenarios, 4);
    plan.ensure(&topo, pairs.iter().copied());
    assert_eq!((pairs.len(), plan.unique_len()), (20, 107));
    assert_eq!(plan.path_sets(), 1_712);
    assert!(plan.heap_bytes() < 262_000, "{} bytes", plan.heap_bytes());
}
