//! Property-based tests (proptest) on the core invariants DESIGN.md §7
//! calls out.

use network_entitlement::core::stats;
use network_entitlement::core::{DetRng, Direction, NpgId, QosClass, Rate, RegionId, SloTarget};
use network_entitlement::enforcement::convergence::{simulate_marking, MarkingSim};
use network_entitlement::enforcement::{Marker, Meter, StatefulMeter, StatelessMeter};
use network_entitlement::hose::balance::balance_hoses;
use network_entitlement::hose::polytope::HosePolytope;
use network_entitlement::hose::segment::{alpha_minus, alpha_plus, two_segments, FlowSeries};
use network_entitlement::hose::{generate_tms, TmGenConfig};
use network_entitlement::risk::AvailabilityCurve;
use network_entitlement::topology::routing::Demand;
use network_entitlement::topology::{max_flow, route_matrix, BackboneSpec, LinkId, Topology};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Random flow series over 2..8 destinations and 4..16 time points.
fn flow_series_strategy() -> impl Strategy<Value = FlowSeries> {
    (2usize..8, 4usize..16, any::<u64>()).prop_map(|(dests, t_len, seed)| {
        let mut rng = DetRng::new(seed);
        let mut flows = FlowSeries::new();
        for d in 0..dests {
            flows.insert(
                RegionId(1 + d as u16),
                (0..t_len).map(|_| rng.range(1.0, 1000.0)).collect(),
            );
        }
        flows
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 1 always yields a disjoint, exhaustive 2-partition, and
    /// the α identities of equation (3) hold for it.
    #[test]
    fn segmentation_partitions_and_alpha_identity(flows in flow_series_strategy()) {
        let (a, b) = two_segments(&flows).unwrap();
        prop_assert!(!a.is_empty() && !b.is_empty());
        prop_assert!(a.is_disjoint(&b));
        prop_assert_eq!(a.len() + b.len(), flows.len());
        let identity = alpha_plus(&flows, &a) + alpha_minus(&flows, &b);
        prop_assert!((identity - 1.0).abs() < 1e-9, "α⁺(S)+α⁻(S′)={}", identity);
    }

    /// Every generated representative TM lies inside its hose polytope,
    /// regardless of segmentation.
    #[test]
    fn generated_tms_lie_in_polytope(flows in flow_series_strategy(), seed in any::<u64>()) {
        let total = Rate::gbps(500.0);
        let hose = network_entitlement::hose::segment_flow_series(
            NpgId(0), QosClass::C1, RegionId(0), Direction::Egress, total, &flows,
        ).unwrap();
        let poly = HosePolytope::new(hose.clone()).unwrap();
        let tms = generate_tms(&hose, &TmGenConfig { count: 20, seed });
        for tm in &tms {
            prop_assert!(poly.contains(tm, 1e-9));
        }
    }

    /// Ingress/egress balancing conserves totals and only ever adds.
    #[test]
    fn balancing_conserves(
        eg in proptest::collection::btree_map(0u16..8, 0.0f64..500.0, 1..6),
        ing in proptest::collection::btree_map(8u16..16, 0.0f64..500.0, 1..6),
    ) {
        let eg: BTreeMap<RegionId, Rate> =
            eg.into_iter().map(|(r, g)| (RegionId(r), Rate::gbps(g))).collect();
        let ing: BTreeMap<RegionId, Rate> =
            ing.into_iter().map(|(r, g)| (RegionId(r), Rate::gbps(g))).collect();
        let out = balance_hoses(&eg, &ing);
        let eg_total: Rate = out.egress.values().copied().sum();
        let ing_total: Rate = out.ingress.values().copied().sum();
        prop_assert!((eg_total.as_bps() - ing_total.as_bps()).abs() < 1.0);
        // Inflation only: no region's demand ever shrinks.
        for (r, &v) in &eg {
            prop_assert!(out.egress[r].as_bps() >= v.as_bps() - 1e-9);
        }
        for (r, &v) in &ing {
            prop_assert!(out.ingress[r].as_bps() >= v.as_bps() - 1e-9);
        }
    }

    /// Greedy multipath routing never admits more than max-flow, on
    /// arbitrary generated backbones.
    #[test]
    fn routing_bounded_by_max_flow(seed in any::<u64>(), demand_t in 0.1f64..50.0) {
        let topo = BackboneSpec::small(seed).build();
        let ids = topo.dc_ids();
        let (s, d) = (ids[0], ids[ids.len() - 1]);
        let mf = max_flow(&topo, s, d, &[]);
        let out = route_matrix(
            &topo,
            &[Demand { src: s, dst: d, amount: Rate::tbps(demand_t) }],
            &[],
            4,
        );
        prop_assert!(out.admitted[0].as_bps() <= mf.as_bps() * (1.0 + 1e-9));
        prop_assert!(out.admitted[0].as_bps() <= Rate::tbps(demand_t).as_bps() * (1.0 + 1e-9));
    }

    /// Both meters always emit a conform ratio in [0, 1], and the
    /// stateful meter's steady conforming rate never exceeds the
    /// entitlement by more than one recovery step.
    #[test]
    fn meter_outputs_are_ratios(
        total in 0.0f64..20.0,
        conform in 0.0f64..20.0,
        entitled in 0.1f64..20.0,
    ) {
        let mut sl = StatelessMeter::new();
        let mut sf = StatefulMeter::new();
        for _ in 0..5 {
            let a = sl.update(Rate::tbps(total), Rate::tbps(conform.min(total)), Rate::tbps(entitled));
            let b = sf.update(Rate::tbps(total), Rate::tbps(conform.min(total)), Rate::tbps(entitled));
            prop_assert!((0.0..=1.0).contains(&a));
            prop_assert!((0.0..=1.0).contains(&b));
        }
    }

    /// The stateful algorithm converges to the entitlement for any loss
    /// level and any demand above the entitlement.
    #[test]
    fn stateful_converges_for_any_loss(loss in 0.0f64..=1.0, demand in 6.0f64..30.0) {
        let sim = MarkingSim {
            demand: Rate::tbps(demand),
            entitled: Rate::tbps(5.0),
            loss,
            iterations: 60,
            probe_floor: 0.02,
        };
        let result = simulate_marking(&sim, &mut StatefulMeter::new());
        let steady = result.steady_mean_tbps();
        prop_assert!(
            (steady - 5.0).abs() < 0.6,
            "loss {loss} demand {demand}: steady {steady}"
        );
    }

    /// Marking commands respect the requested fraction and are stable.
    #[test]
    fn marking_fraction_tracks_ratio(cr in 0.0f64..=1.0) {
        let marker = Marker::new(network_entitlement::enforcement::MarkingStrategy::FlowBased);
        let cmd = marker.command(cr, 1000);
        let frac = cmd.marked_fraction(1000);
        prop_assert!((frac - (1.0 - cr)).abs() < 0.011, "cr {cr} -> frac {frac}");
    }

    /// Availability curves: the granted volume is monotone non-increasing
    /// in the SLO, for arbitrary sample sets.
    #[test]
    fn curve_grant_monotone(samples in proptest::collection::vec((0.0f64..10.0, 0.001f64..0.2), 1..20)) {
        let total: f64 = samples.iter().map(|(_, p)| p).sum();
        let curve = AvailabilityCurve::from_samples(
            samples.iter().map(|&(g, p)| (Rate::gbps(g), p / total)).collect(),
        );
        let mut prev = f64::INFINITY;
        for slo in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let b = curve.bandwidth_at(slo).as_bps();
            prop_assert!(b <= prev + 1e-9);
            prev = b;
        }
    }

    /// sMAPE stays within [0, 2] and is symmetric for arbitrary
    /// non-negative series.
    #[test]
    fn smape_bounds(pairs in proptest::collection::vec((0.0f64..1e12, 0.0f64..1e12), 1..30)) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let f: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let s1 = stats::smape(&a, &f);
        let s2 = stats::smape(&f, &a);
        prop_assert!((0.0..=2.0).contains(&s1));
        prop_assert!((s1 - s2).abs() < 1e-12);
    }

    /// SLO targets validate exactly the (0, 1] range.
    #[test]
    fn slo_validation(v in -1.0f64..2.0) {
        let ok = SloTarget::new(v).is_ok();
        prop_assert_eq!(ok, v > 0.0 && v <= 1.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Packet simulator conservation: every queue transmits no more than
    /// it accepted, and strict priority means a premium queue never loses
    /// a larger fraction than a lower one under any load mix.
    #[test]
    fn packetsim_conservation_and_priority(
        conf_g in 1.0f64..14.0,
        nonconf_g in 1.0f64..14.0,
        seed in any::<u64>(),
    ) {
        use network_entitlement::simnet::{simulate_port, PacketSource, PortConfig};
        use network_entitlement::core::qos::Dscp;

        let out = simulate_port(
            &[
                PacketSource {
                    dscp: Dscp::for_class(QosClass::C1),
                    rate: Rate::gbps(conf_g),
                    packet_bytes: 1500,
                },
                PacketSource {
                    dscp: Dscp::NON_CONFORMING,
                    rate: Rate::gbps(nonconf_g),
                    packet_bytes: 1500,
                },
            ],
            &PortConfig {
                duration_secs: 0.2,
                seed,
            },
        );
        for q in &out.queues {
            prop_assert!(q.transmitted <= q.accepted);
        }
        let premium = out.for_dscp(Dscp::for_class(QosClass::C1));
        let scavenger = out.for_dscp(Dscp::NON_CONFORMING);
        prop_assert!(
            premium.loss() <= scavenger.loss() + 0.02,
            "premium {} vs scavenger {}",
            premium.loss(),
            scavenger.loss()
        );
    }

    /// Routed fluid network invariants on arbitrary backbones: delivered
    /// never exceeds sent, sent never exceeds offered (plus retransmit
    /// overhead), link utilization stays within [0, 1].
    #[test]
    fn netfluid_conservation(seed in any::<u64>(), scale in 0.5f64..10.0) {
        use network_entitlement::simnet::netfluid::{NetWorld, ServiceFlow};

        let topo = BackboneSpec::small(seed).build();
        let dcs = topo.dc_ids();
        let flows: Vec<ServiceFlow> = (0..3)
            .map(|i| ServiceFlow {
                npg: NpgId(i),
                qos: QosClass::C2,
                src: dcs[0],
                dst: dcs[2],
                base_rate: Rate::gbps(100.0 * scale),
                pattern: network_entitlement::workload::TrafficPattern::Flat,
            })
            .collect();
        let mut net = NetWorld::new(topo, flows).unwrap();
        net.set_marking(NpgId(1), 0.5);
        for k in 0..5 {
            let tick = net.step(k as f64 * 30.0);
            for o in &tick.flows {
                prop_assert!(o.conf_delivered.as_bps() <= o.conf_sent.as_bps() + 1.0);
                prop_assert!(o.nonconf_delivered.as_bps() <= o.nonconf_sent.as_bps() + 1.0);
                let sent = o.conf_sent.as_bps() + o.nonconf_sent.as_bps();
                prop_assert!(sent <= o.offered.as_bps() * 1.06 + 1.0);
                prop_assert!((0.0..=1.0).contains(&o.conf_loss));
                prop_assert!((0.0..=1.0).contains(&o.nonconf_loss));
            }
            for &u in tick.link_utilization.values() {
                prop_assert!((0.0..=1.0).contains(&u));
            }
        }
    }

    /// Max-min fairness invariants for the ingress coordinator: no
    /// source exceeds its demand, the total never exceeds the
    /// entitlement, and small demanders are never throttled while a
    /// larger demander keeps a bigger allocation.
    #[test]
    fn max_min_fair_invariants(
        demands_g in proptest::collection::vec(0.5f64..300.0, 2..8),
        entitled_g in 10.0f64..500.0,
    ) {
        use network_entitlement::enforcement::ingress::max_min_fair;
        use std::collections::BTreeMap;

        let demands: BTreeMap<RegionId, Rate> = demands_g
            .iter()
            .enumerate()
            .map(|(i, &g)| (RegionId(i as u16), Rate::gbps(g)))
            .collect();
        let alloc = max_min_fair(Rate::gbps(entitled_g), &demands);
        let total: f64 = alloc.values().map(|r| r.as_bps()).sum();
        let demand_total: f64 = demands.values().map(|r| r.as_bps()).sum();
        prop_assert!(total <= Rate::gbps(entitled_g).as_bps().min(demand_total) + 10.0);
        for (r, a) in &alloc {
            prop_assert!(a.as_bps() <= demands[r].as_bps() + 1e-6);
        }
        // Fairness: if source X got strictly less than its demand, then
        // no source got more than X's allocation (max-min property).
        for (r, a) in &alloc {
            if a.as_bps() + 1.0 < demands[r].as_bps() {
                for b in alloc.values() {
                    prop_assert!(b.as_bps() <= a.as_bps() + 10.0);
                }
            }
        }
    }
}

/// `topo` rebuilt with each link's capacity read from `residual` (a
/// link absent from it keeps its own): the same regions and links,
/// added in the same order, so every `LinkId` names the same link.
fn with_capacities(topo: &Topology, residual: &BTreeMap<LinkId, Rate>) -> Topology {
    let mut rebuilt = Topology::new();
    for r in topo.regions() {
        rebuilt.add_region(r.name.clone(), r.is_dc, r.capacity_scale);
    }
    for l in topo.links() {
        let capacity = residual.get(&l.id).copied().unwrap_or(l.capacity);
        rebuilt
            .add_link(l.src, l.dst, capacity, l.availability, l.length_km)
            .expect("every region was added");
    }
    rebuilt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Deduplicating the risk sweep conserves the curve's probability
    /// mass and never moves the SLO lookup — for any SLO, any seed, any
    /// Monte-Carlo draw count.
    #[test]
    fn dedup_preserves_mass_and_slo_lookup(
        seed in any::<u64>(),
        n_scenarios in 50usize..300,
        slo in 0.5f64..0.9995,
    ) {
        use network_entitlement::risk::{assess_risk_detailed, RiskConfig};
        use network_entitlement::topology::ScenarioSet;

        let topo = BackboneSpec::small(seed % 64).build();
        let ids = topo.region_ids();
        let demands = vec![
            Demand { src: ids[0], dst: ids[2], amount: Rate::gbps(80.0) },
            Demand { src: ids[1], dst: ids[4], amount: Rate::tbps(20.0) },
        ];
        let scenarios = ScenarioSet::sample(&topo, n_scenarios, seed);
        let deduped = assess_risk_detailed(&topo, &demands, &scenarios, &RiskConfig {
            dedup: true, workers: 2, ..Default::default()
        }).curves;
        let plain = assess_risk_detailed(&topo, &demands, &scenarios, &RiskConfig {
            dedup: false, workers: 1, ..Default::default()
        }).curves;
        for (a, b) in deduped.iter().zip(&plain) {
            prop_assert!((a.total_mass() - 1.0).abs() < 1e-9);
            prop_assert_eq!(
                a.bandwidth_at(slo).as_bps().to_bits(),
                b.bandwidth_at(slo).as_bps().to_bits()
            );
        }
    }

    /// Routing on a residual overlay admits exactly what the old
    /// clone-the-topology-and-rewrite-capacities path admitted, for any
    /// failure scenario and any background load.
    #[test]
    fn residual_overlay_matches_clone_routing(
        seed in any::<u64>(),
        bg_gbps in 10.0f64..4000.0,
        batch_gbps in 10.0f64..4000.0,
    ) {
        use network_entitlement::topology::routing::route_matrix_on_residual;
        use network_entitlement::topology::ScenarioSet;

        let topo = BackboneSpec::small(seed % 64).build();
        let ids = topo.region_ids();
        let cuts = ScenarioSet::enumerate(&topo, 2);
        let dead = cuts.scenarios[(seed as usize) % cuts.len()].dead_links.clone();
        let background = vec![
            Demand { src: ids[0], dst: ids[2], amount: Rate::gbps(bg_gbps) },
        ];
        let demands = vec![
            Demand { src: ids[1], dst: ids[2], amount: Rate::gbps(batch_gbps) },
            Demand { src: ids[0], dst: ids[ids.len() - 1], amount: Rate::tbps(30.0) },
        ];
        let bg = route_matrix(&topo, &background, &dead, 4);

        // The sweep's path: overlay the background residual.
        let overlay = route_matrix_on_residual(&topo, &demands, &dead, 4, &bg.residual);
        // The seed path: rebuild the topology at the residual capacities.
        let via_clone = route_matrix(&with_capacities(&topo, &bg.residual), &demands, &dead, 4);

        prop_assert_eq!(overlay.admitted.len(), via_clone.admitted.len());
        for (a, b) in overlay.admitted.iter().zip(&via_clone.admitted) {
            prop_assert_eq!(a.as_bps().to_bits(), b.as_bps().to_bits());
        }
        for (link, r) in &overlay.residual {
            prop_assert_eq!(
                r.as_bps().to_bits(),
                via_clone.residual[link].as_bps().to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Placing through a route plan shared by every scenario admits,
    /// and leaves behind, exactly what the one-shot router does when it
    /// searches that scenario's paths on the spot.
    #[test]
    fn planned_routing_matches_one_shot_routing(
        seed in any::<u64>(),
        bg_gbps in 10.0f64..4000.0,
        batch_gbps in 10.0f64..4000.0,
    ) {
        use network_entitlement::topology::{RoutePlan, ScenarioSet};

        let topo = BackboneSpec::small(seed % 64).build();
        let ids = topo.region_ids();
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let background = vec![
            Demand { src: ids[0], dst: ids[2], amount: Rate::gbps(bg_gbps) },
        ];
        let demands = vec![
            Demand { src: ids[1], dst: ids[2], amount: Rate::gbps(batch_gbps) },
            Demand { src: ids[0], dst: ids[ids.len() - 1], amount: Rate::tbps(30.0) },
            Demand { src: ids[1], dst: ids[2], amount: Rate::gbps(batch_gbps) },
        ];
        let mut plan = RoutePlan::build(&topo, &scenarios, 4);
        plan.ensure(&topo, demands.iter().chain(&background).map(Demand::pair));
        for (i, scenario) in scenarios.scenarios.iter().enumerate() {
            let unique = plan.unique_of(i);
            let bg = plan.route(&topo, unique, &background);
            let planned = plan.route_on(unique, &demands, bg.residual);

            let dead = &scenario.dead_links;
            let bg = route_matrix(&topo, &background, dead, 4);
            let one_shot = network_entitlement::topology::route_matrix_on_residual(
                &topo, &demands, dead, 4, &bg.residual,
            );
            let bits = |rates: &[Rate]| rates.iter().map(|r| r.as_bps().to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&planned.admitted), bits(&one_shot.admitted), "{}", scenario.label);
            prop_assert_eq!(
                planned.residual.iter().map(|(l, r)| (*l, r.as_bps().to_bits())).collect::<Vec<_>>(),
                one_shot.residual.iter().map(|(l, r)| (*l, r.as_bps().to_bits())).collect::<Vec<_>>()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A placement is what the one-shot router leaves: under every
    /// unique failure set of the plan, `RoutePlan::place`'s residual
    /// equals, bit for bit, the residual of `route_matrix` placing the
    /// background alone under the dead links of that set's first
    /// scenario, on a second build of the backbone — for the empty
    /// background (every surviving link at full capacity) and a random
    /// one.
    #[test]
    fn a_placement_is_the_one_shot_residual_under_every_failure_set(
        seed in any::<u64>(),
        sampled in any::<bool>(),
        // (src, dst, Gbps) by region index; self pairs are legal no-ops.
        spec in proptest::collection::vec((0usize..8, 0usize..8, 1.0f64..8000.0), 1..4),
    ) {
        use network_entitlement::topology::{RoutePlan, ScenarioSet};

        let topo = BackboneSpec::small(seed % 64).build();
        let fresh = BackboneSpec::small(seed % 64).build();
        let ids = topo.region_ids();
        let random: Vec<Demand> = spec
            .iter()
            .map(|&(s, d, gbps)| Demand {
                src: ids[s % ids.len()],
                dst: ids[d % ids.len()],
                amount: Rate::gbps(gbps),
            })
            .collect();
        let scenarios = if sampled {
            ScenarioSet::sample(&topo, 60, seed)
        } else {
            ScenarioSet::enumerate(&topo, 1)
        };
        let bits = |r: &BTreeMap<LinkId, Rate>| {
            r.iter().map(|(l, r)| (*l, r.as_bps().to_bits())).collect::<Vec<_>>()
        };
        let mut plan = RoutePlan::build(&topo, &scenarios, 4);
        for background in [Vec::new(), random] {
            let placement = plan.place(&topo, &background);
            prop_assert_eq!(placement.unique_len(), plan.unique_len());
            for (u, &s) in plan.representatives().iter().enumerate() {
                let scenario = &scenarios.scenarios[s];
                let one_shot = route_matrix(&fresh, &background, &scenario.dead_links, 4);
                prop_assert_eq!(
                    bits(placement.residual(u)),
                    bits(&one_shot.residual),
                    "{} under {}", background.len(), &scenario.label
                );
            }
        }
    }
}

/// An approval round now threads one route plan through the sweeps
/// of each hose's realizations. These are the grants — every hose's total and
/// every realization's sum, bit for bit, folded FNV-1a — that the
/// engine produced when each sweep still searched its own paths.
#[test]
fn approval_round_over_a_shared_plan_keeps_the_pre_plan_bits() {
    use network_entitlement::approval::{approve_requests, ApprovalConfig, ApprovalRequest};
    use network_entitlement::core::QosBand;
    use network_entitlement::hose::HoseRequest;

    let topo = BackboneSpec::small(41).build();
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
    // Four buckets, two sharing a source: every later bucket sweeps on
    // the background the earlier ones left.
    let requests = [
        request(4, QosClass::C3, QosBand::Low, 0, Direction::Egress, 6.0),
        request(1, QosClass::C1, QosBand::Low, 0, Direction::Egress, 3.0),
        request(3, QosClass::C2, QosBand::High, 1, Direction::Ingress, 5.0),
        request(2, QosClass::C1, QosBand::High, 2, Direction::Egress, 0.4),
    ];
    for (max_cuts, pinned) in [(1, 0xbe85_aec0_f5a9_b69du64), (2, 0x06a9_3570_2161_5bb0)] {
        let config = ApprovalConfig {
            tms_per_hose: 4,
            max_cuts,
            ..Default::default()
        };
        let out = approve_requests(&topo, &requests, &config);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for rate in out
            .iter()
            .flat_map(|a| std::iter::once(&a.approved_total).chain(&a.per_realization))
        {
            for byte in rate.as_bps().to_bits().to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(digest, pinned, "max_cuts {max_cuts}: {digest:#018x}");
    }
}
