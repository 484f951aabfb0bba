//! Property tests for the market's two load-bearing claims:
//!
//! * **index-path == sweep-path**: a warmed market and a cold market
//!   serve bit-identical grant sequences for any seeded storm — the
//!   warm index only ever returns the number the sweep would have
//!   computed;
//! * **warm per pair == warm per (pair, bucket)**: `warm` sweeps each
//!   pair once and reads the samples at every bucket's SLO; every slot
//!   it installs holds the bits a dedicated sweep for that (pair,
//!   bucket) computes;
//! * **warm negotiation == cold negotiation**: reusing the market's
//!   one-shot scenario enumeration across §8 rounds returns the same
//!   `Agreement`, byte for byte;
//! * **hashed ledger == ordered ledger**: `granted` returns, to the
//!   bit, the sums an ordered map of grants accumulates in admission
//!   order.

use entitlement_approval::{negotiate, ApprovalConfig, ThresholdPolicy};
use entitlement_core::{
    Direction, NpgId, QosBand, QosBucket, QosClass, Quarter, Rate, RegionId, SloTarget,
};
use entitlement_hose::HoseRequest;
use entitlement_market::{
    generate_storm, pair_headroom_probe, AdmitOutcome, AdmitRequest, EntitlementKind,
    EntitlementMarket, IndexKey, MarketEntitlement, MarketKey, SliceGrid, SliceId, StormConfig,
};
use entitlement_topology::{BackboneSpec, ScenarioSet};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const TOPO_SEEDS: [u64; 3] = [0x1360, 41, 7];

fn config() -> ApprovalConfig {
    ApprovalConfig {
        tms_per_hose: 2,
        max_cuts: 1,
        ..Default::default()
    }
}

fn buckets() -> Vec<QosBucket> {
    vec![
        QosBucket {
            class: QosClass::C1,
            band: QosBand::Low,
        },
        QosBucket {
            class: QosClass::C3,
            band: QosBand::High,
        },
    ]
}

fn contracts(topo_dcs: &[RegionId]) -> Vec<MarketEntitlement> {
    vec![
        MarketEntitlement {
            npg: NpgId(100),
            bucket: buckets()[0],
            src: topo_dcs[0],
            dst: topo_dcs[1],
            rate: Rate::gbps(40.0),
            kind: EntitlementKind::Subscription,
        },
        MarketEntitlement {
            npg: NpgId(101),
            bucket: buckets()[1],
            src: topo_dcs[1],
            dst: topo_dcs[2],
            rate: Rate::gbps(25.0),
            kind: EntitlementKind::Quota { volume_bytes: 1e15 },
        },
    ]
}

proptest! {
    // Every case runs real risk sweeps; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A warmed market (every admit rides the index) and a cold market
    /// (the first admit per key sweeps) grant bit-identical rates for
    /// the same storm. This is the index-freshness contract: the cached
    /// number IS the sweep's number.
    #[test]
    fn warm_index_decisions_bit_equal_cold_sweep_decisions(
        topo_seed in 0usize..3,
        storm_seed in 0u64..1000,
    ) {
        let topo = BackboneSpec::small(TOPO_SEEDS[topo_seed]).build();
        let grid = SliceGrid::quarterly(Quarter(0), 30);
        let dcs = topo.dc_ids();

        let mut warm = EntitlementMarket::new(topo.clone(), grid, config());
        warm.load_contracts(&contracts(&dcs));
        warm.warm(&buckets(), &entitlement_obs::Obs::disabled());

        let mut cold = EntitlementMarket::new(topo, grid, config());
        cold.load_contracts(&contracts(&dcs));
        // No warm(): every first touch per key goes down the sweep path.

        let storm = generate_storm(&warm, &buckets(), &StormConfig {
            requests: 40,
            seed: storm_seed,
            npgs: 4,
            max_ask_gbps: 30.0,
        });
        for req in &storm {
            let a = warm.admit(req);
            let b = cold.admit(req);
            prop_assert_eq!(
                a.granted.as_bps().to_bits(),
                b.granted.as_bps().to_bits(),
                "warm grant {} != cold grant {} for {:?}",
                a.granted, b.granted, req
            );
            prop_assert_eq!(a.outcome, b.outcome);
        }
    }

    /// `warm` runs one sweep per pair and reads it at each bucket's SLO.
    /// Slot for slot — headroom, remaining and provenance — that is
    /// what one standalone `pair_headroom_probe` per (pair, bucket)
    /// installs.
    #[test]
    fn warm_per_pair_installs_what_a_sweep_per_pair_and_bucket_would(topo_seed in 0usize..3) {
        let topo = BackboneSpec::small(TOPO_SEEDS[topo_seed]).build();
        let grid = SliceGrid::quarterly(Quarter(0), 30);
        let dcs = topo.dc_ids();
        let mut market = EntitlementMarket::new(topo.clone(), grid, config());
        market.load_contracts(&contracts(&dcs));
        let buckets: Vec<QosBucket> = [QosClass::C1, QosClass::C2, QosClass::C3, QosClass::C4]
            .into_iter()
            .map(|class| QosBucket { class, band: QosBand::Low })
            .collect();
        market.warm(&buckets, &entitlement_obs::Obs::disabled());

        let scenarios = ScenarioSet::enumerate(&topo, config().max_cuts);
        let background = market.book().reserved_background();
        let mut slots = 0;
        for &src in &dcs {
            for &dst in dcs.iter().filter(|&&dst| dst != src) {
                for &bucket in &buckets {
                    let probe = pair_headroom_probe(
                        &topo,
                        &scenarios,
                        &background,
                        src,
                        dst,
                        EntitlementMarket::slo_for(bucket),
                        config().k_paths,
                        &entitlement_obs::Obs::disabled(),
                    );
                    for slice in grid.slices() {
                        let key = IndexKey { src, dst, bucket, slice };
                        let remaining = market.index().fresh_remaining(&key).unwrap();
                        prop_assert_eq!(
                            remaining.as_bps().to_bits(),
                            probe.headroom.as_bps().to_bits(),
                            "{:?}", key
                        );
                        prop_assert_eq!(market.index().provenance(&key), Some(&probe.provenance));
                        slots += 1;
                    }
                }
            }
        }
        prop_assert_eq!(slots, market.index().fresh_len());
    }

    /// `negotiate_warm` against the market's cached enumeration returns
    /// the same Agreement as a cold `negotiate`, byte for byte, for any
    /// seed × topology.
    #[test]
    fn warm_negotiation_matches_cold(
        topo_seed in 0usize..3,
        ask_g in 100u64..20_000,
    ) {
        let topo = BackboneSpec::small(TOPO_SEEDS[topo_seed]).build();
        let dcs = topo.dc_ids();
        let hose = HoseRequest::general(
            NpgId(5),
            QosClass::C2,
            dcs[0],
            Direction::Egress,
            Rate::gbps(ask_g as f64),
            dcs[1..].iter().copied(),
        );
        let slo = SloTarget::new(0.99).unwrap();
        let cfg = config();
        let market = EntitlementMarket::new(
            topo.clone(),
            SliceGrid::quarterly(Quarter(0), 30),
            cfg.clone(),
        );

        let mut policy_a = ThresholdPolicy { accept_fraction: 0.8, patience: 2 };
        let mut policy_b = ThresholdPolicy { accept_fraction: 0.8, patience: 2 };
        let warm = market.negotiate_warm(&hose, slo, &mut policy_a, 5);
        let cold = negotiate(&topo, &hose, slo, &mut policy_b, &cfg, 5);
        prop_assert_eq!(
            serde_json::to_string(&warm).unwrap(),
            serde_json::to_string(&cold).unwrap()
        );
    }

    /// The hashed grant ledger against the ordered map it replaced,
    /// kept here and added to exactly as `admit_obs` used to: after a
    /// storm of full grants, partial grants, denials and rejected asks
    /// (NaN, negative, infinite, off the grid, off the topology) from
    /// NPGs 0, 9 and low-touch, every key the storm named reads the
    /// reference's bits, and every key it did not name reads zero.
    #[test]
    fn the_hashed_ledger_sums_what_the_ordered_one_did(
        topo_seed in 0usize..3,
        asks in proptest::collection::vec(
            (0usize..3, 0usize..2, 0u32..3, any::<u16>(), 0u8..16, 0.01f64..1.5),
            60..120,
        ),
    ) {
        let topo = BackboneSpec::small(TOPO_SEEDS[topo_seed]).build();
        let grid = SliceGrid::quarterly(Quarter(0), 30);
        prop_assert_eq!(grid.slice_count(), 3);
        let dcs = topo.dc_ids();
        let nowhere = RegionId(topo.region_count() as u16);
        let mut market = EntitlementMarket::new(topo, grid, config());
        market.load_contracts(&contracts(&dcs));
        market.warm(&buckets(), &entitlement_obs::Obs::disabled());

        let npgs = [NpgId(0), NpgId(9), NpgId::LOW_TOUCH];
        let mut reference: BTreeMap<MarketKey, Rate> = BTreeMap::new();
        let mut named = BTreeSet::new();
        let mut outcomes = BTreeSet::new();
        for (npg, bucket, slice, pair, kind, fraction) in asks {
            let (n, pair) = (dcs.len(), pair as usize);
            let (src, dst) = (dcs[pair % n], dcs[(pair % n + 1 + pair / n % (n - 1)) % n]);
            let mut req = AdmitRequest {
                npg: npgs[npg],
                bucket: buckets()[bucket],
                slice: SliceId(slice),
                src,
                dst,
                ask: Rate::ZERO,
            };
            // Most asks are a fraction of what the slot holds, so a
            // storm grants in full, in part, and (once a slot is spent
            // or has nothing) not at all; the rest cannot be served.
            req.ask = match market.index().fresh_remaining(&IndexKey {
                src, dst, bucket: req.bucket, slice: req.slice,
            }) {
                Some(r) if !r.is_zero() => Rate::bps(r.as_bps() * fraction),
                _ => Rate::gbps(fraction),
            };
            match kind {
                11 => req.ask = Rate::bps(f64::NAN),
                12 => req.ask = Rate::gbps(-1.0),
                13 => req.ask = Rate::bps(f64::INFINITY),
                14 => req.slice = SliceId(grid.slice_count() + slice),
                15 => req.src = nowhere,
                _ => {}
            }
            let decision = market.admit(&req);
            outcomes.insert(decision.outcome as u8);
            let key = MarketKey { npg: req.npg, bucket: req.bucket, slice: req.slice };
            named.insert(key);
            if !decision.granted.is_zero() {
                *reference.entry(key).or_insert(Rate::ZERO) += decision.granted;
            }
        }
        prop_assert_eq!(
            outcomes,
            [AdmitOutcome::Granted, AdmitOutcome::Partial, AdmitOutcome::Denied]
                .map(|o| o as u8)
                .into(),
            "the storm grants in full, in part and not at all"
        );
        for key in &named {
            let want = reference.get(key).copied().unwrap_or(Rate::ZERO);
            prop_assert_eq!(
                market.granted(key).as_bps().to_bits(),
                want.as_bps().to_bits(),
                "{:?}", key
            );
            if key.slice.0 >= grid.slice_count() {
                prop_assert_eq!(market.granted(key).as_bps().to_bits(), 0);
            }
        }
        let c4_low = QosBucket { class: QosClass::C4, band: QosBand::Low };
        for npg in npgs.into_iter().chain([NpgId(1), NpgId(100), NpgId(u32::MAX - 1)]) {
            for slice in [0, 1, 2, grid.slice_count(), 9_999, u32::MAX] {
                for bucket in [buckets()[0], buckets()[1], c4_low] {
                    let key = MarketKey { npg, bucket, slice: SliceId(slice) };
                    if !named.contains(&key) {
                        prop_assert_eq!(market.granted(&key).as_bps().to_bits(), 0, "{:?}", key);
                    }
                }
            }
        }
    }
}
