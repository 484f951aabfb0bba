//! An independent replay of Algorithm 2.
//!
//! `approve_requests` keeps one route plan for the whole round and
//! places each hose's background once for all of its realizations. The
//! replay here shares nothing with it: it runs on a second build of the
//! backbone, so no pool or plan row the round's topology memoised is
//! read, and every realization of every hose goes through the public
//! `pipe_approval`, which builds a plan per call and places the
//! background afresh. Bucket order, the
//! worst-realization background and the clip to the hose total are
//! written out again from the paper, so the two agree bit for bit only
//! if sharing the plan and the placement changes no routing fact.
//!
//! A negotiation keeps one plan across its asks, too: every ask of
//! `negotiate_scenarios` and `shrink_to_fit` must get the grant a
//! standalone round of that ask gets on a second build of the backbone.

use entitlement_approval::{
    approve_requests, negotiate_scenarios, pipe_approval, rescale_segments, shrink_to_fit,
    Agreement, ApprovalConfig, ApprovalMode, ApprovalRequest, HoseApproval, PipeApproval,
    ServiceDecision, ServicePolicy,
};
use entitlement_core::{Direction, NpgId, QosBand, QosBucket, QosClass, Rate, RegionId, SloTarget};
use entitlement_hose::{generate_tms, HoseRequest, TmGenConfig};
use entitlement_topology::routing::Demand;
use entitlement_topology::{BackboneSpec, ScenarioSet, Topology};
use std::collections::BTreeMap;

/// The pipe realizations the engine draws for `hose` (its seed
/// derivation is part of the contract: the same hose sees the same TMs
/// in every round).
fn realizations(hose: &HoseRequest, config: &ApprovalConfig) -> Vec<Vec<Demand>> {
    let salt = match hose.direction {
        Direction::Egress => 0,
        Direction::Ingress => 0x16E5_5A17,
    };
    generate_tms(
        hose,
        &TmGenConfig {
            count: config.tms_per_hose,
            seed: config.seed ^ u64::from(hose.npg.0) << 13 ^ u64::from(hose.region.0) ^ salt,
        },
    )
    .into_iter()
    .map(|tm| {
        tm.iter()
            .map(|(&remote, &amount)| match hose.direction {
                Direction::Egress => Demand { src: hose.region, dst: remote, amount },
                Direction::Ingress => Demand { src: remote, dst: hose.region, amount },
            })
            .collect()
    })
    .collect()
}

/// Algorithm 2 with nothing shared between sweeps: per request, in
/// request order, `(approved_total, per_realization)`.
fn replay(
    topo: &Topology,
    requests: &[ApprovalRequest],
    config: &ApprovalConfig,
) -> Vec<(Rate, Vec<Rate>)> {
    let scenarios = ScenarioSet::enumerate(topo, config.max_cuts);
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| {
        let hose = &requests[i].hose;
        let bucket = QosBucket { class: hose.qos, band: requests[i].band };
        (bucket.rank(), u8::from(!hose.npg.is_low_touch()), hose.npg.0)
    });
    let mut background: BTreeMap<(RegionId, RegionId), Rate> = BTreeMap::new();
    let mut out = vec![(Rate::ZERO, Vec::new()); requests.len()];
    for h in order {
        let hose = &requests[h].hose;
        let bg: Vec<Demand> = background
            .iter()
            .filter(|(_, amount)| !amount.is_zero())
            .map(|(&(src, dst), &amount)| Demand { src, dst, amount })
            .collect();
        let mut sums = Vec::new();
        let mut worst: Option<(Rate, Vec<PipeApproval>)> = None;
        for tm in realizations(hose, config) {
            let requested: Vec<Rate> = tm.iter().map(|d| d.amount).collect();
            let pipes = pipe_approval(topo, &scenarios, &tm, &requested, requests[h].slo, &bg, config);
            let sum: Rate = pipes.iter().map(|p| p.approved).sum();
            sums.push(sum);
            if worst.as_ref().is_none_or(|(s, _)| sum.as_bps() < s.as_bps()) {
                worst = Some((sum, pipes));
            }
        }
        let Some((sum, pipes)) = worst else { continue };
        let granted = sum.min(hose.total);
        let scale = if sum.as_bps() > granted.as_bps() && !sum.is_zero() {
            granted / sum
        } else {
            1.0
        };
        for p in pipes {
            let amount = if scale < 1.0 { p.approved * scale } else { p.approved };
            if !amount.is_zero() {
                *background.entry((p.src, p.dst)).or_insert(Rate::ZERO) += amount;
            }
        }
        out[h] = (granted, sums);
    }
    out
}

fn bits(rates: &[Rate]) -> Vec<u64> {
    rates.iter().map(|r| r.as_bps().to_bits()).collect()
}

#[test]
fn a_round_is_bit_identical_to_a_replay_that_shares_nothing() {
    let topo = BackboneSpec::small(41).build();
    let dcs = topo.dc_ids();
    let slo = SloTarget::new(0.99).unwrap();
    let request = |npg: u32, qos, band, region: usize, direction, gbps: f64| ApprovalRequest {
        hose: HoseRequest::general(
            NpgId(npg),
            qos,
            dcs[region],
            direction,
            Rate::gbps(gbps),
            dcs.iter().copied().filter(|&r| r != dcs[region]),
        ),
        band,
        slo,
    };
    // Six hoses over five buckets, given out of bucket order. Three
    // leave DC 0 and one enters it, so later buckets sweep the pairs —
    // and the background — earlier ones touched; the first two clear in
    // full (a `StrictBatch` round is not all zeroes), the big ones are
    // clipped by the SLO curve.
    let requests = [
        request(5, QosClass::C3, QosBand::Low, 0, Direction::Egress, 6000.0),
        request(1, QosClass::C1, QosBand::Low, 0, Direction::Egress, 200.0),
        request(4, QosClass::C2, QosBand::High, 0, Direction::Ingress, 5000.0),
        request(2, QosClass::C1, QosBand::Low, 1, Direction::Ingress, 150.0),
        request(3, QosClass::C1, QosBand::High, 2, Direction::Egress, 3000.0),
        request(6, QosClass::C3, QosBand::Low, 0, Direction::Egress, 40.0),
    ];
    for mode in [ApprovalMode::Partial, ApprovalMode::StrictBatch] {
        for max_cuts in [1, 2] {
            let config = ApprovalConfig { tms_per_hose: 4, max_cuts, mode, ..Default::default() };
            let round = approve_requests(&topo, &requests, &config);
            let replayed = replay(&BackboneSpec::small(41).build(), &requests, &config);
            assert_eq!(round.len(), replayed.len());
            for (i, (a, (total, sums))) in round.iter().zip(&replayed).enumerate() {
                let what = format!("{mode:?}, max_cuts {max_cuts}, request {i}");
                assert_eq!(a.approved_total.as_bps().to_bits(), total.as_bps().to_bits(), "{what}");
                assert_eq!(a.per_realization.len(), config.tms_per_hose, "{what}");
                assert_eq!(bits(&a.per_realization), bits(sums), "{what}");
            }
            // The fixture exercises what it claims to: full grants feed
            // the background, and something after them is squeezed.
            assert!(round[1].fully_approved() && round[3].fully_approved());
            assert!(round.iter().any(|a| !a.fully_approved()));
        }
    }
}

/// A standalone round of one ask: `approve_requests` on its own plan
/// over `topo`, at the band a negotiation asks in.
fn standalone(
    topo: &Topology,
    ask: &HoseRequest,
    slo: SloTarget,
    config: &ApprovalConfig,
) -> HoseApproval {
    let request = ApprovalRequest { hose: ask.clone(), band: QosBand::Low, slo };
    approve_requests(topo, &[request], config).remove(0)
}

/// Records every ask put to it and the grant that ask got, and always
/// asks for an alternative, so every round of a negotiation that never
/// clears is seen.
#[derive(Default)]
struct Recording(Vec<(HoseRequest, Rate)>);

impl ServicePolicy for Recording {
    fn decide(&mut self, request: &HoseRequest, granted: Rate, _round: usize) -> ServiceDecision {
        self.0.push((request.clone(), granted));
        ServiceDecision::TryAlternative
    }
}

#[test]
fn every_negotiated_ask_is_bit_identical_to_a_standalone_round() {
    let topo = BackboneSpec::small(41).build();
    let fresh = BackboneSpec::small(41).build();
    let dcs = topo.dc_ids();
    let slo = SloTarget::new(0.99).unwrap();
    let hose = HoseRequest::general(
        NpgId(9),
        QosClass::C2,
        dcs[0],
        Direction::Egress,
        Rate::gbps(6000.0),
        dcs[1..].iter().copied(),
    );
    for mode in [ApprovalMode::Partial, ApprovalMode::StrictBatch] {
        for max_cuts in [1, 2] {
            let config = ApprovalConfig { tms_per_hose: 4, max_cuts, mode, ..Default::default() };
            let what = format!("{mode:?}, max_cuts {max_cuts}");
            let scenarios = ScenarioSet::enumerate(&topo, max_cuts);
            let mut policy = Recording::default();
            let agreement =
                negotiate_scenarios(&topo, &hose, slo, &mut policy, &config, 4, &scenarios);
            let mut asks = policy.0;
            match agreement {
                Agreement::Accepted { request, granted, .. } => asks.push((request, granted)),
                Agreement::Exhausted { best_counter } => {
                    let best = asks.iter().map(|(_, g)| *g).fold(Rate::ZERO, Rate::max);
                    assert_eq!(best_counter.as_bps().to_bits(), best.as_bps().to_bits(), "{what}");
                }
                Agreement::RiskAccepted { .. } => unreachable!("the policy never accepts risk"),
            }
            assert!(asks.len() > 1, "{what}: the negotiation re-asks");
            for (round, (ask, granted)) in asks.iter().enumerate() {
                let alone = standalone(&fresh, ask, slo, &config);
                assert_eq!(
                    granted.as_bps().to_bits(),
                    alone.approved_total.as_bps().to_bits(),
                    "{what}: negotiation round {round}"
                );
            }

            // `shrink_to_fit`, replayed ask by ask: retry at the grant
            // until an ask clears, the grant is zero or the ask is
            // negligible.
            let mut current = hose.clone();
            let mut replayed = None;
            for round in 0..20 {
                let alone = standalone(&fresh, &current, slo, &config);
                if alone.fully_approved() {
                    replayed = Some((current, round + 1));
                    break;
                }
                if alone.approved_total.is_zero() {
                    break;
                }
                rescale_segments(&mut current, alone.approved_total);
                if current.total.as_bps() < hose.total.as_bps() * 0.01 {
                    break;
                }
            }
            // A strict batch grants the short ask nothing, so only a
            // partial one has something to shrink to.
            if mode == ApprovalMode::Partial {
                assert!(replayed.as_ref().is_some_and(|(_, r)| *r > 1), "{what}: shrinks");
            }
            let shrunk = shrink_to_fit(&topo, &hose, slo, &config, 20);
            assert_eq!(format!("{shrunk:?}"), format!("{replayed:?}"), "{what}");
        }
    }
}
