//! Regression tests pinning the approval-engine correctness fixes:
//!
//! * a hose with zero TM realizations (`tms_per_hose: 0`) must be a zero
//!   grant with outcome `rejected`, not a free pass at `hose.total`;
//! * the lower-class background is merged by `(src, dst)` — the sweep
//!   must produce the same approvals over merged and unmerged
//!   backgrounds carrying identical per-pair totals;
//! * `propose_alternative` proposes a genuine alternative even when
//!   every segment cap ties;
//! * a batch `StrictBatch` refuses reports, per pipe, the availability
//!   of the zero grant — not of the volume it was just refused.

use entitlement_approval::{
    hose_approval, hose_approval_obs, merge_background, pipe_approval, propose_alternative,
    segments_consistent, ApprovalConfig, ApprovalMode,
};
use entitlement_core::{Direction, NpgId, QosClass, Rate, RegionId, SloTarget};
use entitlement_hose::{HoseRequest, HoseSegment};
use entitlement_obs::{fold_metrics, Clock, Obs};
use entitlement_topology::routing::Demand;
use entitlement_topology::{BackboneSpec, ScenarioSet, Topology};

fn topo() -> Topology {
    BackboneSpec::small(41).build()
}

fn hose(npg: u32, qos: QosClass, region: RegionId, total: Rate, topo: &Topology) -> HoseRequest {
    let remotes: Vec<RegionId> = topo
        .dc_ids()
        .into_iter()
        .filter(|&r| r != region)
        .collect();
    HoseRequest::general(NpgId(npg), qos, region, Direction::Egress, total, remotes)
}

/// The pre-fix engine folded `per_realization` from `Rate(INFINITY)`, so
/// zero realizations meant zero simulation and a full grant. Now it must
/// be a zero grant counted as `rejected`.
#[test]
fn zero_realization_hose_is_rejected_not_granted() {
    let t = topo();
    let dcs = t.dc_ids();
    let h = hose(1, QosClass::C1, dcs[0], Rate::gbps(10.0), &t);
    let cfg = ApprovalConfig {
        tms_per_hose: 0,
        ..Default::default()
    };
    let obs = Obs::new(Clock::counting(1));
    let out = hose_approval_obs(&t, &[h], &[SloTarget::new(0.99).unwrap()], &cfg, &obs);
    assert_eq!(
        out[0].approved_total,
        Rate::ZERO,
        "a hose that saw zero risk simulation must not be granted anything"
    );
    assert_eq!(out[0].counter_proposal, Rate::ZERO);
    assert!(out[0].per_realization.is_empty());
    let text = fold_metrics(&obs.trace.events()).unwrap();
    assert!(
        text.contains("entitlement_approval_hoses_total{outcome=\"rejected\",qos=\"C1\"} 1"),
        "{text}"
    );
}

/// With realizations present the same request clears in full — the
/// rejection above is specifically about the empty-realization path.
#[test]
fn same_hose_with_realizations_still_clears() {
    let t = topo();
    let dcs = t.dc_ids();
    let h = hose(1, QosClass::C1, dcs[0], Rate::gbps(10.0), &t);
    let out = hose_approval(
        &t,
        &[h],
        &[SloTarget::new(0.99).unwrap()],
        &ApprovalConfig::default(),
    );
    assert!(out[0].fully_approved());
}

/// `merge_background` collapses duplicate `(src, dst)` entries, keeps
/// per-pair totals, and is input-order invariant.
#[test]
fn merge_background_dedups_and_preserves_totals() {
    let t = topo();
    let dcs = t.dc_ids();
    let raw = vec![
        Demand { src: dcs[0], dst: dcs[1], amount: Rate::gbps(10.0) },
        Demand { src: dcs[0], dst: dcs[2], amount: Rate::gbps(5.0) },
        Demand { src: dcs[0], dst: dcs[1], amount: Rate::gbps(7.0) },
        Demand { src: dcs[1], dst: dcs[2], amount: Rate::gbps(3.0) },
        Demand { src: dcs[0], dst: dcs[1], amount: Rate::gbps(1.0) },
    ];
    let merged = merge_background(&raw);
    assert_eq!(merged.len(), 3, "three distinct pairs: {merged:?}");
    let total_raw: Rate = raw.iter().map(|d| d.amount).sum();
    let total_merged: Rate = merged.iter().map(|d| d.amount).sum();
    assert!((total_raw.as_bps() - total_merged.as_bps()).abs() < 1.0);
    // Order invariance: reversed input merges to the identical vector.
    let mut rev = raw.clone();
    rev.reverse();
    assert_eq!(merge_background(&rev), merged);
}

/// The risk sweep approves the same volumes whether the background
/// arrives as duplicate per-pipe entries or merged per (src, dst): the
/// router pours a pair's whole volume through the same static path list
/// either way.
#[test]
fn sweep_with_merged_background_matches_unmerged() {
    let t = topo();
    let dcs = t.dc_ids();
    let scenarios = ScenarioSet::enumerate(&t, 1);
    let cfg = ApprovalConfig::default();
    let slo = SloTarget::new(0.99).unwrap();
    // Duplicate-heavy background, as the pre-fix engine accumulated it.
    let raw: Vec<Demand> = (0..6)
        .map(|i| Demand {
            src: dcs[i % 2],
            dst: dcs[2 + (i % 2)],
            amount: Rate::gbps(40.0 + i as f64),
        })
        .collect();
    let merged = merge_background(&raw);
    assert!(merged.len() < raw.len(), "fixture must actually dedup");
    let demands = vec![
        Demand { src: dcs[0], dst: dcs[3], amount: Rate::gbps(200.0) },
        Demand { src: dcs[1], dst: dcs[4], amount: Rate::gbps(150.0) },
    ];
    let requested: Vec<Rate> = demands.iter().map(|d| d.amount).collect();
    let a = pipe_approval(&t, &scenarios, &demands, &requested, slo, &raw, &cfg);
    let b = pipe_approval(&t, &scenarios, &demands, &requested, slo, &merged, &cfg);
    for (pa, pb) in a.iter().zip(&b) {
        assert_eq!(
            pa.approved.as_bps().to_bits(),
            pb.approved.as_bps().to_bits(),
            "merged vs unmerged background diverged: {} vs {}",
            pa.approved,
            pb.approved
        );
    }
}

/// All-equal segment caps used to make `propose_alternative` return the
/// request unchanged (the strict min/max scan left hardest == easiest);
/// it must still propose a genuine alternative.
#[test]
fn propose_alternative_breaks_all_equal_tie() {
    let t = topo();
    let dcs = t.dc_ids();
    let hose = HoseRequest {
        npg: NpgId(1),
        qos: QosClass::C2,
        region: dcs[0],
        direction: Direction::Egress,
        // Far beyond the small backbone's capacity, so the approval is
        // partial and the shift amount is non-zero.
        total: Rate::tbps(30.0),
        segments: vec![
            HoseSegment {
                regions: [dcs[1]].into_iter().collect(),
                cap: Rate::tbps(10.0),
            },
            HoseSegment {
                regions: [dcs[2]].into_iter().collect(),
                cap: Rate::tbps(10.0),
            },
            HoseSegment {
                regions: [dcs[3]].into_iter().collect(),
                cap: Rate::tbps(10.0),
            },
        ],
    };
    let approvals = hose_approval(
        &t,
        std::slice::from_ref(&hose),
        &[SloTarget::new(0.9999).unwrap()],
        &ApprovalConfig::default(),
    );
    let alt = propose_alternative(&hose, &approvals[0], 0.5);
    assert!(segments_consistent(&alt));
    assert!((alt.total.as_bps() - hose.total.as_bps()).abs() < 1.0);
    if !approvals[0].fully_approved() {
        let moved = alt
            .segments
            .iter()
            .zip(&hose.segments)
            .any(|(a, b)| (a.cap.as_bps() - b.cap.as_bps()).abs() > 1.0);
        assert!(moved, "tie case must still reshape the request: {alt:?}");
    }
}

/// `StrictBatch` zeroed `approved` for the whole batch when one pipe
/// missed its request but left `achieved_availability` at what the
/// refused volume would have had: a pipe carrying nothing, reported at
/// the availability of something. It must read what a zero grant reads.
#[test]
fn strict_batch_rejection_reports_the_zero_grants_availability() {
    let t = topo();
    let dcs = t.dc_ids();
    let scenarios = ScenarioSet::enumerate(&t, 2);
    let slo = SloTarget::new(0.999).unwrap();
    // One pipe far over the backbone sinks the batch; the second is
    // clipped a little, the third would have cleared on its own.
    let demands = vec![
        Demand { src: dcs[0], dst: dcs[1], amount: Rate::tbps(100.0) },
        Demand { src: dcs[2], dst: dcs[3], amount: Rate::gbps(400.0) },
        Demand { src: dcs[1], dst: dcs[4], amount: Rate::gbps(5.0) },
    ];
    let requested: Vec<Rate> = demands.iter().map(|d| d.amount).collect();
    let strict = ApprovalConfig {
        mode: ApprovalMode::StrictBatch,
        ..Default::default()
    };
    let refused = pipe_approval(&t, &scenarios, &demands, &requested, slo, &[], &strict);
    // The same sweep asked for nothing: `Partial` grants zero and reads
    // the curve at zero.
    let nothing = vec![Rate::ZERO; demands.len()];
    let zero = pipe_approval(&t, &scenarios, &demands, &nothing, slo, &[], &ApprovalConfig::default());
    let partial = pipe_approval(&t, &scenarios, &demands, &requested, slo, &[], &ApprovalConfig::default());
    assert!(!partial[0].fully_approved() && partial[2].fully_approved());
    assert!(
        partial.iter().any(|p| p.achieved_availability < zero[0].achieved_availability),
        "fixture: some refused volume must be less available than nothing"
    );
    for (p, z) in refused.iter().zip(&zero) {
        assert_eq!(p.approved, Rate::ZERO, "the batch is refused whole");
        assert_eq!(
            p.achieved_availability.to_bits(),
            z.achieved_availability.to_bits(),
            "{}->{}: availability {} is not the zero grant's {}",
            p.src,
            p.dst,
            p.achieved_availability,
            z.achieved_availability
        );
    }
}
