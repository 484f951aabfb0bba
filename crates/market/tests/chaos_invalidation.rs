//! Chaos integration: burst admission across a link cut.
//!
//! The invariant under test is the fail-closed rule — after a topology
//! fault, **no admit may be served pre-fault headroom**. The fault
//! schedule comes from a deterministic `entitlement_chaos::FaultPlan`
//! with a `LinkCut` window; the market must route every first-touch
//! admit after the cut down the sweep path (degraded scenarios), and
//! again after the cut heals (headroom may have grown back).

use entitlement_approval::ApprovalConfig;
use entitlement_chaos::{Fault, FaultKind, FaultPlan, TimeWindow};
use entitlement_core::{QosBand, QosBucket, QosClass, Quarter};
use entitlement_market::{
    generate_storm, pair_headroom_probe, AdmitPath, AdmitRequest, EntitlementMarket, IndexKey,
    SliceGrid, StormConfig,
};
use entitlement_topology::{k_shortest_paths, BackboneSpec, LinkId, ScenarioSet};

fn market() -> EntitlementMarket {
    let topo = BackboneSpec::small(0x1360).build();
    EntitlementMarket::new(
        topo,
        SliceGrid::quarterly(Quarter(0), 30),
        ApprovalConfig {
            tms_per_hose: 2,
            max_cuts: 1,
            ..Default::default()
        },
    )
}

fn buckets() -> Vec<QosBucket> {
    vec![QosBucket {
        class: QosClass::C3,
        band: QosBand::Low,
    }]
}

#[test]
fn admits_fail_closed_to_sweep_across_a_link_cut() {
    let plan = FaultPlan {
        seed: 19,
        faults: vec![Fault {
            window: TimeWindow::new(1000, 5000),
            kind: FaultKind::LinkCut { links: vec![0, 3] },
        }],
    };

    let mut market = market();
    market.warm(&buckets(), &entitlement_obs::Obs::disabled());
    let storm = generate_storm(
        &market,
        &buckets(),
        &StormConfig {
            requests: 60,
            seed: 7,
            npgs: 4,
            max_ask_gbps: 2.0,
        },
    );

    // Phase 1 (t=0, before the window): everything rides the warm index.
    let mut cut_applied = false;
    let mut first_touch_after_cut = 0usize;
    let mut index_before_refresh = 0usize;
    let mut seen_keys: Vec<String> = Vec::new();
    for (i, req) in storm.iter().enumerate() {
        // Advance logical time 100 ms per request: the cut lands
        // mid-storm, exactly the "burst admission during failure" case.
        let now_ms = i as u64 * 100;
        let cuts = plan.cut_links(now_ms);
        if !cuts.is_empty() && !cut_applied {
            market.apply_fault(&cuts.iter().map(|&l| LinkId(l)).collect::<Vec<_>>());
            cut_applied = true;
            seen_keys.clear();
            assert_eq!(
                market.index().fresh_len(),
                0,
                "the cut must invalidate every slot before any admit"
            );
        }
        let d = market.admit(req);
        if cut_applied {
            let key = format!("{:?}>{:?}/{}/{}", req.src, req.dst, req.bucket, req.slice);
            if !seen_keys.contains(&key) {
                first_touch_after_cut += 1;
                if d.path == AdmitPath::Index {
                    index_before_refresh += 1;
                }
                seen_keys.push(key);
            }
        } else {
            assert_eq!(d.path, AdmitPath::Index, "warm slot before the cut");
        }
    }
    assert!(cut_applied, "the fault window must land inside the storm");
    assert!(first_touch_after_cut > 0, "storm must touch keys post-cut");
    assert_eq!(
        index_before_refresh, 0,
        "{index_before_refresh} first-touch admits were served stale pre-cut headroom"
    );
}

#[test]
fn healing_the_cut_invalidates_again() {
    let mut market = market();
    market.warm(&buckets(), &entitlement_obs::Obs::disabled());
    market.apply_fault(&[LinkId(0)]);
    assert_eq!(market.index().fresh_len(), 0);
    let storm = generate_storm(
        &market,
        &buckets(),
        &StormConfig {
            requests: 5,
            seed: 1,
            npgs: 2,
            max_ask_gbps: 1.0,
        },
    );
    let d = market.admit(&storm[0]);
    assert_eq!(d.path, AdmitPath::Sweep, "first touch after fault sweeps");
    let d = market.admit(&storm[0]);
    assert_eq!(d.path, AdmitPath::Index, "refreshed slot serves again");

    // Healing restores capacity — which also must not be served from
    // the degraded-era slots.
    market.clear_faults();
    assert_eq!(market.index().fresh_len(), 0, "heal invalidates too");
    let d = market.admit(&storm[0]);
    assert_eq!(d.path, AdmitPath::Sweep);
}

/// The scenario set a market with these dead links sweeps: the
/// enumeration with the fault added to every scenario.
fn effective(market: &EntitlementMarket) -> ScenarioSet {
    let mut set = ScenarioSet::enumerate(market.topology(), 1);
    for s in &mut set.scenarios {
        for l in market.dead_links() {
            if !s.dead_links.contains(l) {
                s.dead_links.push(*l);
            }
        }
    }
    set
}

/// Serve `storm` on both markets in lockstep. Every first touch of a
/// key must sweep, decide bit-for-bit what the never-warmed market
/// decides, and install exactly the headroom a from-scratch sweep of
/// the current scenario set computes; and every path the warmed
/// market's plan then holds must be the one a fresh search under the
/// current dead links finds — none crossing a dead link.
fn assert_sweeps_like_a_cold_market(
    warmed: &mut EntitlementMarket,
    cold: &mut EntitlementMarket,
    storm: &[AdmitRequest],
) {
    let scenarios = effective(warmed);
    let k = ApprovalConfig::default().k_paths;
    let mut seen: Vec<IndexKey> = Vec::new();
    for req in storm {
        let (a, b) = (warmed.admit(req), cold.admit(req));
        assert_eq!(a.path, b.path);
        assert_eq!(a.granted.as_bps().to_bits(), b.granted.as_bps().to_bits());
        assert_eq!(
            a.residual_before.as_bps().to_bits(),
            b.residual_before.as_bps().to_bits()
        );
        let key = IndexKey {
            src: req.src,
            dst: req.dst,
            bucket: req.bucket,
            slice: req.slice,
        };
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        assert_eq!(a.path, AdmitPath::Sweep, "first touch of {key:?}");
        let from_scratch = pair_headroom_probe(
            warmed.topology(),
            &scenarios,
            &[],
            req.src,
            req.dst,
            EntitlementMarket::slo_for(req.bucket),
            k,
            &entitlement_obs::Obs::disabled(),
        )
        .headroom;
        let installed = warmed.index().provenance(&key).unwrap().headroom;
        assert_eq!(installed.as_bps().to_bits(), from_scratch.as_bps().to_bits());
    }
    let plan = warmed.route_plan();
    for (i, scenario) in scenarios.scenarios.iter().enumerate() {
        for key in &seen {
            let served: Vec<Vec<LinkId>> = plan
                .paths(key.src, key.dst, plan.unique_of(i))
                .map(|p| p.links.to_vec())
                .collect();
            let searched: Vec<Vec<LinkId>> =
                k_shortest_paths(warmed.topology(), key.src, key.dst, k, &scenario.dead_links)
                    .unwrap_or_default()
                    .into_iter()
                    .map(|p| p.links)
                    .collect();
            assert_eq!(served, searched, "{key:?} under `{}`", scenario.label);
            assert!(
                served.iter().flatten().all(|l| !scenario.dead_links.contains(l)),
                "{key:?} rides a dead link under `{}`",
                scenario.label
            );
        }
    }
}

#[test]
fn a_fault_and_its_heal_each_replace_the_route_plan() {
    let mut warmed = market();
    warmed.warm(&buckets(), &entitlement_obs::Obs::disabled());
    let healthy_sets = warmed.route_plan().path_sets();
    assert!(healthy_sets > 0, "warm-up routed every DC pair");
    let mut cold = market();
    let storm = generate_storm(
        &warmed,
        &buckets(),
        &StormConfig {
            requests: 40,
            seed: 11,
            npgs: 4,
            max_ask_gbps: 2.0,
        },
    );
    // A whole fiber: both directions of the first duplex pair.
    let cut = [LinkId(0), LinkId(1)];

    warmed.apply_fault(&cut);
    cold.apply_fault(&cut);
    assert_eq!(warmed.route_plan().path_sets(), 0, "the cut empties the plan");
    assert_sweeps_like_a_cold_market(&mut warmed, &mut cold, &storm);

    warmed.clear_faults();
    cold.clear_faults();
    assert_eq!(warmed.route_plan().path_sets(), 0, "so does the heal");
    assert_sweeps_like_a_cold_market(&mut warmed, &mut cold, &storm);
}

/// Every slot a warm-up installs, as bits: per DC pair and slice, the
/// headroom left and the provenance's headroom, scenario and links.
fn warm_slots(market: &EntitlementMarket) -> Vec<(u64, u64, String, String)> {
    let dcs = market.topology().dc_ids();
    let mut slots = Vec::new();
    for &src in &dcs {
        for &dst in dcs.iter().filter(|&&d| d != src) {
            for slice in market.grid().slices() {
                for bucket in buckets() {
                    let key = IndexKey {
                        src,
                        dst,
                        bucket,
                        slice,
                    };
                    let left = market.index().fresh_remaining(&key).unwrap();
                    let why = market.index().provenance(&key).unwrap();
                    slots.push((
                        left.as_bps().to_bits(),
                        why.headroom.as_bps().to_bits(),
                        why.binding_scenario.clone(),
                        why.binding_links.clone(),
                    ));
                }
            }
        }
    }
    slots
}

/// A heal rebuilds the healthy plan, and the rows the healthy plan
/// filled before the cut are still on the topology: re-warming every
/// DC pair searches nothing and fills nothing, and installs exactly
/// what a freshly warmed market installs. Cutting the same links again
/// finds the faulted rows the first cut filled.
#[test]
fn a_heal_and_a_repeated_cut_reuse_the_rows_already_filled() {
    let obs = entitlement_obs::Obs::disabled();
    let mut fresh = market();
    fresh.warm(&buckets(), &obs);
    let mut healed = market();
    healed.warm(&buckets(), &obs);
    let cut = [LinkId(0), LinkId(1)];
    healed.apply_fault(&cut);
    healed.warm(&buckets(), &obs);
    let faulted = warm_slots(&healed);

    healed.clear_faults();
    let before = healed.topology().route_work();
    healed.warm(&buckets(), &obs);
    assert_eq!(healed.topology().route_work(), before, "the heal re-warms off the memo");
    assert_eq!(warm_slots(&healed), warm_slots(&fresh));

    healed.apply_fault(&cut);
    healed.warm(&buckets(), &obs);
    assert_eq!(healed.topology().route_work(), before, "the repeated cut too");
    assert_eq!(warm_slots(&healed), faulted);
}
