//! The memo of path pools and plan rows a `Topology` keeps for its
//! route plans: a plan on a topology whose memo is warm serves exactly
//! what a plan on a freshly built one does, also for a key the memo
//! forgot; the memo never outlives a change to the graph and never
//! reaches equality, `Debug` or the wire; and rounds approved on one
//! topology — again, or at the same time — read the bits a fresh
//! topology gives, searching and filling each pool and row once.

#[path = "../crates/topology/tests/support/mod.rs"]
mod support;

use entitlement_core::{DetRng, Direction, NpgId, QosBand, QosClass, Rate, RegionId, SloTarget};
use entitlement_topology::failure::fiber_groups;
use entitlement_topology::{BackboneSpec, LinkId, RoutePlan, ScenarioSet, Topology, PLAN_KEYS};
use network_entitlement::analyzer::LintBundle;
use network_entitlement::approval::{
    approve_requests, ApprovalConfig, ApprovalMode, ApprovalRequest, HoseApproval,
};
use network_entitlement::hose::HoseRequest;
use proptest::prelude::*;
use support::{admit_world, all_pairs, approval_world, backbone, dc_pairs, faulted};

/// Every path set a plan of `scenarios` at `k` serves, every pair of
/// `topo` ensured: per (pair, unique failure set) its paths as links
/// plus `length_km` bits.
fn served(topo: &Topology, scenarios: &ScenarioSet, k: usize) -> Vec<Vec<(Vec<LinkId>, u64)>> {
    let pairs = all_pairs(topo);
    let mut plan = RoutePlan::build(topo, scenarios, k);
    plan.ensure(topo, pairs.iter().copied());
    pairs
        .iter()
        .flat_map(|&(s, d)| (0..plan.unique_len()).map(move |u| (s, d, u)))
        .map(|(s, d, u)| {
            plan.paths(s, d, u)
                .map(|p| (p.links.to_vec(), p.length_km.to_bits()))
                .collect()
        })
        .collect()
}

/// `topo` built again from its regions and links: equal, with an empty
/// memo of its own.
fn rebuilt(topo: &Topology) -> Topology {
    let mut out = Topology::new();
    for r in topo.regions() {
        out.add_region(r.name.clone(), r.is_dc, r.capacity_scale);
    }
    for l in topo.links() {
        out.add_link(l.src, l.dst, l.capacity, l.availability, l.length_km)
            .unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Warm the memo with rows of another `k`, another `max_cuts` and
    /// a faulted key, then ask: the pools are shallower or deeper than
    /// the asking plan needs, its rows are filled now or were filled by
    /// an earlier plan of its key, and it still serves what a plan on a
    /// fresh topology serves, healthy and with a fault in every
    /// scenario, under single and dual cuts.
    #[test]
    fn a_warm_memo_serves_what_a_fresh_topology_serves(
        seed in 0u64..10_000,
        shape in 0usize..12,
        snap in 0usize..4,
        (k, warm_k) in (1usize..13, 1usize..13),
    ) {
        let warm = backbone(seed, shape, snap);
        let groups = fiber_groups(&warm);
        let fault = groups[DetRng::new(seed ^ 0xFA17).usize(groups.len())].links.clone();
        let sets = [1, 2].map(|max_cuts| ScenarioSet::enumerate(&warm, max_cuts));
        for max_cuts in [1, 2] {
            let (set, other) = (&sets[max_cuts - 1], &sets[2 - max_cuts]);
            for scenarios in [faulted(set, &fault), set.clone()] {
                served(&warm, &scenarios, warm_k);
                served(&warm, other, k);
                served(&warm, &faulted(other, &fault), k);
                let fresh = backbone(seed, shape, snap);
                prop_assert_eq!(
                    served(&warm, &scenarios, k),
                    served(&fresh, &scenarios, k),
                    "max_cuts {}, k {} after k {}", max_cuts, k, warm_k
                );
            }
        }
        prop_assert_eq!(warm.pooled_pairs(), all_pairs(&warm).len());
        prop_assert!(warm.plan_keys() <= PLAN_KEYS);
    }
}

/// One key more than the memo keeps: the first key's rows are
/// forgotten, a plan that holds them still serves them, and asking for
/// the key again fills it anew — from the pools, with no pool search —
/// to what a fresh topology serves.
#[test]
fn a_forgotten_key_is_filled_again_to_what_a_fresh_topology_serves() {
    let topo = approval_world();
    let single = ScenarioSet::enumerate(&topo, 1);
    let pairs = all_pairs(&topo);
    let mut first = RoutePlan::build(&topo, &single, 1);
    first.ensure(&topo, pairs.iter().copied());
    let held = served(&topo, &single, 1);
    for k in 2..=PLAN_KEYS + 1 {
        served(&topo, &single, k);
        assert_eq!(topo.plan_keys(), k.min(PLAN_KEYS));
    }
    let before = topo.route_work();
    assert_eq!(
        served(&topo, &single, 1),
        served(&rebuilt(&topo), &single, 1)
    );
    let after = topo.route_work();
    assert_eq!(after.pool_searches, before.pool_searches);
    assert_eq!(after.row_fills - before.row_fills, pairs.len() as u64);
    assert_eq!(topo.plan_keys(), PLAN_KEYS);

    let still: Vec<Vec<(Vec<LinkId>, u64)>> = pairs
        .iter()
        .flat_map(|&(s, d)| (0..first.unique_len()).map(move |u| (s, d, u)))
        .map(|(s, d, u)| {
            first
                .paths(s, d, u)
                .map(|p| (p.links.to_vec(), p.length_km.to_bits()))
                .collect()
        })
        .collect();
    assert_eq!(still, held, "a plan keeps the rows of a forgotten key");
}

/// What the memo does for rounds on the benchmark's approval world: a
/// first round on a cold topology searches the 13 pairs it touches and
/// fills their rows; the same round approved again searches and fills
/// nothing. Every DC pair under the 17 single-cut failure sets at k = 4
/// — what one repetition of the benchmark's twelve rounds asks — is 30
/// pool searches, 48 searches of a failure set's own and 30 row fills,
/// once per topology.
#[test]
fn a_round_approved_again_searches_and_fills_nothing() {
    let topo = approval_world();
    let config = ApprovalConfig {
        tms_per_hose: 4,
        max_cuts: 1,
        ..Default::default()
    };
    let requests = round(&topo);
    let first = decision_bits(&approve_requests(&topo, &requests, &config));
    let work = topo.route_work();
    assert_eq!(
        (work.pool_searches, work.own_searches, work.row_fills),
        (13, 20, 13),
        "first round"
    );
    let second = decision_bits(&approve_requests(&topo, &requests, &config));
    assert_eq!(second, first);
    assert_eq!(topo.route_work(), work, "second round");

    let fresh = approval_world();
    let mut plan = RoutePlan::build(&fresh, &ScenarioSet::enumerate(&fresh, 1), 4);
    plan.ensure(&fresh, dc_pairs(&fresh));
    let work = fresh.route_work();
    assert_eq!(
        (work.pool_searches, work.own_searches, work.row_fills),
        (30, 48, 30)
    );
    let mut again = RoutePlan::build(&fresh, &ScenarioSet::enumerate(&fresh, 1), 4);
    again.ensure(&fresh, dc_pairs(&fresh));
    assert_eq!(fresh.route_work(), work);
}

/// FNV-1a-64 of every `(pair, failure set)` path set a fully ensured
/// plan serves: per set its path count, per path its links and
/// `length_km` bits.
fn served_digest(topo: &Topology, scenarios: &ScenarioSet, k: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for set in served(topo, scenarios, k) {
        word(set.len() as u64);
        for (links, length_bits) in set {
            word(links.len() as u64);
            links.iter().for_each(|l| word(l.index() as u64));
            word(length_bits);
        }
    }
    h
}

/// The path sets of the benchmark's two worlds, pinned on the parent
/// of the pool rewrite: the approval world (6 DCs, 3 PoPs) under single
/// and dual cuts, the admit world (10 DCs, 5 PoPs) under single cuts,
/// healthy and with its first fiber faulted in every scenario. Each is
/// served twice by the same topology: cold, then off its warm memo.
#[test]
fn served_path_sets_match_the_pinned_digests() {
    let approval = approval_world();
    let admit = admit_world();
    let single = ScenarioSet::enumerate(&admit, 1);
    let fault = fiber_groups(&admit)[0].links.clone();
    for memo in ["cold", "warm"] {
        let got = [
            served_digest(&approval, &ScenarioSet::enumerate(&approval, 1), 4),
            served_digest(&approval, &ScenarioSet::enumerate(&approval, 2), 4),
            served_digest(&admit, &single, 4),
            served_digest(&admit, &faulted(&single, &fault), 4),
        ];
        assert_eq!(
            got,
            [
                0x4a77_b6cc_04ef_3754,
                0x1c2f_ef0f_8e8e_04a6,
                0xa8d2_3a55_5a8d_b1ff,
                0x6662_d6ce_36b8_14ea,
            ],
            "{memo}: {got:#018x?}"
        );
    }
}

/// Four hoses in four buckets on the small backbone, two sharing a
/// source, so every later bucket sweeps on the background the earlier
/// ones left (the round `properties.rs` pins).
fn round(topo: &Topology) -> Vec<ApprovalRequest> {
    let dcs = topo.dc_ids();
    let slo = SloTarget::new(0.99).unwrap();
    let request = |npg: u32, qos, band, region: usize, direction, tbps: f64| ApprovalRequest {
        hose: HoseRequest::general(
            NpgId(npg),
            qos,
            dcs[region],
            direction,
            Rate::tbps(tbps),
            dcs.iter().copied().filter(|&r| r != dcs[region]),
        ),
        band,
        slo,
    };
    vec![
        request(4, QosClass::C3, QosBand::Low, 0, Direction::Egress, 6.0),
        request(1, QosClass::C1, QosBand::Low, 0, Direction::Egress, 3.0),
        request(3, QosClass::C2, QosBand::High, 1, Direction::Ingress, 5.0),
        request(2, QosClass::C1, QosBand::High, 2, Direction::Egress, 0.4),
    ]
}

/// A round's decisions as bits: per hose its total, every realization's
/// sum and the counter-proposal.
fn decision_bits(out: &[HoseApproval]) -> Vec<u64> {
    out.iter()
        .flat_map(|a| {
            std::iter::once(a.approved_total)
                .chain(a.per_realization.iter().copied())
                .chain(std::iter::once(a.counter_proposal))
        })
        .map(|r| r.as_bps().to_bits())
        .collect()
}

fn configs() -> impl Iterator<Item = ApprovalConfig> {
    [ApprovalMode::Partial, ApprovalMode::StrictBatch]
        .into_iter()
        .flat_map(|mode| {
            [1, 2].map(|max_cuts| ApprovalConfig {
                tms_per_hose: 4,
                max_cuts,
                mode,
                ..Default::default()
            })
        })
}

/// The second round on a topology reads every row the first one
/// filled, and decides exactly what a round on a fresh topology does.
#[test]
fn one_round_approved_twice_on_one_topology_is_a_fresh_round() {
    let topo = BackboneSpec::small(41).build();
    let requests = round(&topo);
    for config in configs() {
        let fresh = decision_bits(&approve_requests(&rebuilt(&topo), &requests, &config));
        let first = decision_bits(&approve_requests(&topo, &requests, &config));
        let second = decision_bits(&approve_requests(&topo, &requests, &config));
        assert_eq!(first, fresh, "{config:?}");
        assert_eq!(second, fresh, "{config:?}");
    }
}

/// Two rounds at once on one cold topology race to fill its memo (a
/// barrier releases them together); both read the bits a serial round
/// on a fresh topology does, and between them they search and fill
/// what that one round does: each pool and each `(key, pair)` row once.
#[test]
fn concurrent_rounds_on_one_topology_read_the_serial_bits() {
    let topo = BackboneSpec::small(41).build();
    let requests = round(&topo);
    for config in configs() {
        let alone = rebuilt(&topo);
        let serial = decision_bits(&approve_requests(&alone, &requests, &config));
        let shared = rebuilt(&topo);
        let start = std::sync::Barrier::new(2);
        let approve = || {
            start.wait();
            approve_requests(&shared, &requests, &config)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(approve);
            let b = s.spawn(approve);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(decision_bits(&a), serial, "{config:?}");
        assert_eq!(decision_bits(&b), serial, "{config:?}");
        assert_eq!(shared.route_work(), alone.route_work(), "{config:?}");
    }
}

/// A 1 km fiber between the first and last DC: the shortest path of
/// that pair from now on, so a memo that outlived the change would
/// serve the old paths.
fn add_shortcut(topo: &mut Topology) -> LinkId {
    let dcs = topo.dc_ids();
    topo.add_link(dcs[0], dcs[dcs.len() - 1], Rate::gbps(100.0), 0.999, 1.0)
        .unwrap()
}

/// The shortest path from the first to the last DC.
fn first_path(topo: &Topology) -> Vec<LinkId> {
    let dcs = topo.dc_ids();
    let (src, dst) = (dcs[0], dcs[dcs.len() - 1]);
    let mut plan = RoutePlan::build(topo, &ScenarioSet::enumerate(topo, 1), 4);
    plan.ensure(topo, [(src, dst)]);
    let first = plan.paths(src, dst, 0).next().map(|p| p.links.to_vec());
    first.unwrap_or_default()
}

#[test]
fn adding_a_link_or_a_region_to_a_warm_topology_starts_a_fresh_memo() {
    let mut topo = approval_world();
    let single = |topo: &Topology| ScenarioSet::enumerate(topo, 1);
    served(&topo, &single(&topo), 4);
    assert_eq!(topo.pooled_pairs(), all_pairs(&topo).len());

    let mut fresh = rebuilt(&topo);
    let shortcut = add_shortcut(&mut topo);
    add_shortcut(&mut fresh);
    assert_eq!((topo.pooled_pairs(), topo.plan_keys()), (0, 0));
    assert_eq!(topo.route_work(), Default::default());
    assert_eq!(first_path(&topo), [shortcut]);
    assert_eq!(
        served(&topo, &single(&topo), 4),
        served(&fresh, &single(&fresh), 4)
    );

    // A region with 1 km fibers to the first and last DC: a two-hop
    // detour that beats every old path between them bar the shortcut.
    let dcs = topo.dc_ids();
    for t in [&mut topo, &mut fresh] {
        let hub = t.add_region("hub", false, 1.0);
        t.add_duplex(dcs[0], hub, Rate::gbps(100.0), 0.999, 1.0)
            .unwrap();
        t.add_duplex(hub, dcs[dcs.len() - 1], Rate::gbps(100.0), 0.999, 1.0)
            .unwrap();
    }
    assert_eq!((topo.pooled_pairs(), topo.plan_keys()), (0, 0));
    let cut_shortcut = ScenarioSet::enumerate(&topo, 1);
    assert_eq!(
        served(&topo, &faulted(&cut_shortcut, &[shortcut]), 4),
        served(&fresh, &faulted(&cut_shortcut, &[shortcut]), 4)
    );
    assert_eq!(
        served(&topo, &cut_shortcut, 4),
        served(&fresh, &cut_shortcut, 4)
    );
}

#[test]
fn mutating_a_clone_leaves_the_original_intact() {
    let original = approval_world();
    let single = ScenarioSet::enumerate(&original, 1);
    let before = served(&original, &single, 4);
    let before_first = first_path(&original);
    let pooled = original.pooled_pairs();

    let mut clone = original.clone();
    assert_eq!(clone.pooled_pairs(), pooled, "a clone shares the memo");
    let shortcut = add_shortcut(&mut clone);
    assert_eq!(first_path(&clone), [shortcut]);

    assert_eq!(first_path(&original), before_first);
    assert_eq!(served(&original, &single, 4), before);
    assert_eq!(original.pooled_pairs(), pooled);
}

/// FNV-1a-64 of `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Equality, `Debug` and the JSON form see regions, links and adjacency
/// alone: a warm topology is equal to a cold one and writes the same
/// bytes — the bytes the derived impls wrote before the memo existed
/// (length and FNV-1a of the small backbone's JSON, pinned on the
/// parent of the memo). Every analyzer fixture still parses, and one
/// with a topology writes it alike cold and warm.
#[test]
fn a_warm_topology_is_equal_to_a_cold_one_and_identical_on_the_wire() {
    let cold = BackboneSpec::small(3).build();
    let warm = BackboneSpec::small(3).build();
    served(&warm, &ScenarioSet::enumerate(&warm, 1), 4);
    assert!(warm.pooled_pairs() > 0 && cold.pooled_pairs() == 0);
    assert_eq!(warm, cold);
    assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
    let json = serde_json::to_string(&warm).unwrap();
    assert_eq!(json, serde_json::to_string(&cold).unwrap());
    assert_eq!(
        (json.len(), fnv(json.as_bytes())),
        (4060, 0x6744_a942_e0b4_bde4),
        "{:#018x}",
        fnv(json.as_bytes())
    );
    let back: Topology = serde_json::from_str(&json).unwrap();
    assert_eq!((back == cold, back.pooled_pairs()), (true, 0));

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/analyzer/fixtures");
    let mut topologies = 0;
    for dir in ["broken", "clean", "warn"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let file = entry.unwrap().path();
            let text = std::fs::read_to_string(&file).unwrap();
            let bundle =
                LintBundle::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            if let Some(topo) = bundle.topology {
                let cold = serde_json::to_string(&topo).unwrap();
                served(&topo, &ScenarioSet::enumerate(&topo, 1), 4);
                let warm = serde_json::to_string(&topo).unwrap();
                assert_eq!(warm, cold, "{}", file.display());
                topologies += 1;
            }
        }
    }
    assert!(topologies > 0);
}

/// A pair naming a region the topology does not have is served no
/// paths, and the memo stores nothing for it.
#[test]
fn an_unknown_region_is_served_no_paths() {
    let topo = approval_world();
    let ids = topo.region_ids();
    let ghost = RegionId::from_index(ids.len() + 7);
    let scenarios = ScenarioSet::enumerate(&topo, 1);
    let mut plan = RoutePlan::build(&topo, &scenarios, 4);
    plan.ensure(&topo, [(ids[0], ghost), (ghost, ids[1]), (ids[0], ids[1])]);
    for u in 0..plan.unique_len() {
        assert_eq!(plan.paths(ids[0], ghost, u).count(), 0);
        assert_eq!(plan.paths(ghost, ids[1], u).count(), 0);
    }
    assert!(plan.paths(ids[0], ids[1], 0).count() > 0);
    assert_eq!(topo.pooled_pairs(), 1);
}
