//! Algorithm 2: `Hose_Approval` and `Pipe_Approval`.

use crate::types::{HoseApproval, PipeApproval};
use entitlement_core::{NpgId, Rate, RegionId, SloTarget};
use entitlement_hose::{generate_tms, HoseRequest, TmGenConfig};
use entitlement_obs::Obs;
use entitlement_risk::{sweep_plan, AvailabilityCurve};
use entitlement_topology::routing::Demand;
use entitlement_topology::{Placement, RoutePlan, ScenarioSet, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Whether a batch is rejected outright when any flow misses the SLO, or
/// granted the partial volume that does meet it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ApprovalMode {
    /// "Only when 100% of the flow meets SLO, the batch is approved. If
    /// any flow fails, the batch is rejected."
    StrictBatch,
    /// Grant the SLO-feasible fraction of each pipe; the grant is also
    /// the counter-proposal of §8.
    Partial,
}

/// Engine configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ApprovalConfig {
    /// Representative realizations (TMs) per hose.
    pub tms_per_hose: usize,
    /// Maximum simultaneous fiber cuts to enumerate.
    pub max_cuts: usize,
    /// Multipath fan-out for routing.
    pub k_paths: usize,
    /// Batch semantics.
    pub mode: ApprovalMode,
    /// TM sampler seed.
    pub seed: u64,
    /// Worker threads for the risk sweep (`1` = serial, `0` = one per
    /// core). Curves are bitwise identical for any value.
    pub workers: usize,
    /// Route each distinct failure set once during the risk sweep
    /// (output-invariant; see `entitlement_risk::sweep`).
    pub dedup: bool,
}

impl Default for ApprovalConfig {
    fn default() -> Self {
        ApprovalConfig {
            tms_per_hose: 8,
            max_cuts: 2,
            k_paths: 4,
            mode: ApprovalMode::Partial,
            seed: 0xA11,
            workers: 1,
            dedup: true,
        }
    }
}

/// Merge a demand list by `(src, dst)`, summing amounts. The output is
/// sorted by `(src, dst)`, so any two lists carrying the same per-pair
/// totals merge to the identical vector regardless of input order. Used
/// for the lower-class background in [`approve_requests`] (which would
/// otherwise grow O(hoses × pipes) with duplicate pairs) and for the
/// committed-contract background in the entitlement market.
pub fn merge_background(demands: &[Demand]) -> Vec<Demand> {
    let mut map: BTreeMap<(RegionId, RegionId), Rate> = BTreeMap::new();
    for d in demands {
        *map.entry((d.src, d.dst)).or_insert(Rate::ZERO) += d.amount;
    }
    background_demands(&map)
}

/// Materialize a merged background map as a sorted demand list, dropping
/// sub-bps residue.
fn background_demands(map: &BTreeMap<(RegionId, RegionId), Rate>) -> Vec<Demand> {
    map.iter()
        .filter(|(_, amount)| !amount.is_zero())
        .map(|(&(src, dst), &amount)| Demand { src, dst, amount })
        .collect()
}

/// Which hoses of a batch the analyzer rejects: an error located at
/// `hoses[i]…` rejects hose `i`; an error anywhere else (e.g. a broken
/// topology) rejects the whole batch.
fn preflight_rejections(
    topo: &Topology,
    hoses: &[HoseRequest],
) -> Vec<bool> {
    let report = entitlement_analyzer::preflight_hoses(Some(topo), hoses);
    let mut rejected = vec![false; hoses.len()];
    for d in &report.diagnostics {
        if d.severity != entitlement_analyzer::Severity::Error {
            continue;
        }
        let path = &d.location.path;
        match path
            .strip_prefix("hoses[")
            .and_then(|rest| rest.split(']').next())
            .and_then(|idx| idx.parse::<usize>().ok())
        {
            Some(i) if i < rejected.len() => rejected[i] = true,
            _ => rejected.iter_mut().for_each(|r| *r = true),
        }
    }
    rejected
}

/// What the risk sweeps of one approval round share — every realization
/// of every hose, and the successive asks of a negotiation: the
/// topology, its scenario set, and the one [`RoutePlan`] that holds
/// each region pair's path sets for all of them. The plan is only ever
/// extended, and a pair it takes in is a lookup of the row an earlier
/// round on the topology filled; DESIGN.md §16 has the lifetimes.
pub(crate) struct RoundRoutes<'a> {
    topo: &'a Topology,
    scenarios: &'a ScenarioSet,
    plan: RoutePlan,
}

impl<'a> RoundRoutes<'a> {
    pub(crate) fn new(
        topo: &'a Topology,
        scenarios: &'a ScenarioSet,
        config: &ApprovalConfig,
    ) -> RoundRoutes<'a> {
        RoundRoutes {
            topo,
            scenarios,
            plan: RoutePlan::build(topo, scenarios, config.k_paths),
        }
    }
}

/// `Pipe_Approval` for one class batch against the current background.
///
/// Returns per-pipe approvals; in [`ApprovalMode::StrictBatch`] the whole
/// batch zeroes out if any pipe misses its full request at the SLO. A
/// standalone call builds a plan of its own — a view of the rows the
/// topology keeps, so it searches only a pair no earlier plan of this
/// key asked for — and places the background afresh;
/// [`approve_requests`] shares both across a round.
pub fn pipe_approval(
    topo: &Topology,
    scenarios: &ScenarioSet,
    demands: &[Demand],
    requested: &[Rate],
    slo: SloTarget,
    background: &[Demand],
    config: &ApprovalConfig,
) -> Vec<PipeApproval> {
    let mut routes = RoundRoutes::new(topo, scenarios, config);
    let placed = routes.plan.place(topo, background);
    let requested = requested.iter().copied();
    pipe_approval_in(&mut routes, demands, requested, slo, &placed, config, &Obs::disabled())
}

/// [`pipe_approval`] routing through the round's shared plan over an
/// already placed background, with telemetry: an
/// `approval`/`pipe_approval` span labelled with the pipe count and SLO
/// target, plus the risk sweep's own spans and histograms. Every pipe
/// the SLO curve clips below its request additionally gets an
/// `approval`/`pipe_binding` provenance event naming the binding
/// failure scenario, its dead links, and its probability — the reason
/// the grant is what it is, recoverable from the trace alone. Approvals
/// are the same whatever `obs` is.
fn pipe_approval_in(
    routes: &mut RoundRoutes<'_>,
    demands: &[Demand],
    requested: impl Iterator<Item = Rate>,
    slo: SloTarget,
    background: &Placement,
    config: &ApprovalConfig,
    obs: &Obs,
) -> Vec<PipeApproval> {
    let span = obs
        .span("approval", "pipe_approval")
        .label_fmt("pipes", demands.len())
        .label_fmt("slo", format_args!("{:.4}", slo.availability()));
    let RoundRoutes { topo, scenarios, plan } = routes;
    plan.ensure(topo, demands.iter().map(Demand::pair));
    let mut samples = sweep_plan(
        plan,
        background,
        demands,
        scenarios,
        config.workers,
        config.dedup,
        obs,
    );
    // Only the traced `pipe_binding` events read the samples again.
    let traced = obs.enabled();
    let curves: Vec<AvailabilityCurve> = samples
        .samples
        .iter_mut()
        .map(|s| if traced { s.clone() } else { std::mem::take(s) })
        .map(AvailabilityCurve::from_samples)
        .collect();
    let mut out: Vec<PipeApproval> = demands
        .iter()
        .zip(requested)
        .zip(&curves)
        .map(|((d, req), curve)| {
            let slo_volume = curve.bandwidth_at(slo.availability());
            let approved = slo_volume.min(req);
            PipeApproval {
                npg: NpgId(0), // caller re-labels
                qos: entitlement_core::QosClass::C1,
                src: d.src,
                dst: d.dst,
                requested: req,
                approved,
                achieved_availability: curve.availability_of(approved),
            }
        })
        .collect();
    if obs.enabled() {
        for (i, p) in out.iter().enumerate() {
            if p.fully_approved() {
                continue;
            }
            let event = obs
                .point("approval", "pipe_binding")
                .label_fmt("pipe", i)
                .label_fmt("src", p.src)
                .label_fmt("dst", p.dst)
                .label_fmt("requested_gbps", p.requested.as_gbps())
                .label_fmt("approved_gbps", p.approved.as_gbps());
            match samples.binding_scenario(i, slo.availability()) {
                Some(s) => {
                    let sc = &scenarios.scenarios[s];
                    event
                        .label("binding_scenario", &sc.label)
                        .label("binding_links", &sc.links_label())
                        .label_fmt("binding_p", sc.probability)
                }
                None => event
                    .label("binding_scenario", "infeasible")
                    .label("binding_links", "none")
                    .label_fmt("binding_p", 0.0),
            }
            .finish();
        }
    }
    if config.mode == ApprovalMode::StrictBatch && out.iter().any(|p| !p.fully_approved()) {
        // The whole batch is refused: every pipe reports the zero grant
        // and the availability of *that*, not of the volume it lost.
        for (p, curve) in out.iter_mut().zip(&curves) {
            p.approved = Rate::ZERO;
            p.achieved_availability = curve.availability_of(Rate::ZERO);
        }
    }
    span.finish();
    out
}

/// A fully-specified approval request: the hose, its band within the
/// QoS class (the paper's eight buckets `c1_low … c4_high`), and the SLO
/// target to approve against.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ApprovalRequest {
    /// The hose to approve.
    pub hose: HoseRequest,
    /// Band within the class; `Low` is more premium.
    pub band: entitlement_core::QosBand,
    /// SLO target.
    pub slo: SloTarget,
}

/// `Hose_Approval`: the full Algorithm 2 over a set of hose requests.
///
/// Each hose carries its own SLO target (`slos[i]`). Buckets are swept in
/// strict priority order (here: the hose's QoS class, low-touch NPG
/// first within a class, per §4.3); approved volumes become background
/// for every lower class. All hoses are treated as the `Low` band of
/// their class; use [`approve_requests`] for full eight-bucket ordering.
pub fn hose_approval(
    topo: &Topology,
    hoses: &[HoseRequest],
    slos: &[SloTarget],
    config: &ApprovalConfig,
) -> Vec<HoseApproval> {
    hose_approval_obs(topo, hoses, slos, config, &Obs::disabled())
}

/// [`hose_approval`] with telemetry: per-phase spans (`preflight`,
/// `gen_demand`, one `hose_approval` per hose labelled with its QoS
/// class, NPG and outcome, `aggregate`). The metrics fold reads the
/// per-hose families `entitlement_approval_hose_ms{qos}` and
/// `entitlement_approval_hoses_total{qos,outcome}` off the
/// `hose_approval` spans. Approvals are the same whatever `obs` is.
pub fn hose_approval_obs(
    topo: &Topology,
    hoses: &[HoseRequest],
    slos: &[SloTarget],
    config: &ApprovalConfig,
    obs: &Obs,
) -> Vec<HoseApproval> {
    let scenarios = ScenarioSet::enumerate(topo, config.max_cuts);
    approve_round(topo, &band_low_requests(hoses, slos), &scenarios, config, obs)
}

/// [`hose_approval`] against a pre-enumerated scenario set: the warm
/// path for callers that approve repeatedly on one topology (negotiation
/// rounds, the entitlement market's sweep fallback). `scenarios` must be
/// [`ScenarioSet::enumerate`]`(topo, config.max_cuts)` of the same
/// topology; enumeration is deterministic, so results are bit-identical
/// to the cold path.
pub fn hose_approval_scenarios(
    topo: &Topology,
    hoses: &[HoseRequest],
    slos: &[SloTarget],
    scenarios: &ScenarioSet,
    config: &ApprovalConfig,
) -> Vec<HoseApproval> {
    let requests = band_low_requests(hoses, slos);
    approve_round(topo, &requests, scenarios, config, &Obs::disabled())
}

/// All hoses as the `Low` band of their class, paired with their SLOs.
pub(crate) fn band_low_requests(hoses: &[HoseRequest], slos: &[SloTarget]) -> Vec<ApprovalRequest> {
    assert_eq!(hoses.len(), slos.len());
    hoses
        .iter()
        .zip(slos)
        .map(|(h, &slo)| ApprovalRequest {
            hose: h.clone(),
            band: entitlement_core::QosBand::Low,
            slo,
        })
        .collect()
}

/// Algorithm 2 with the paper's full eight-bucket priority order:
/// requests are processed `c1_low, c1_high, c2_low, … c4_high`
/// (low-touch NPG first within a bucket), each bucket seeing every more
/// premium approval as background traffic.
///
/// One [`RoutePlan`] serves the whole round and a hose's background is
/// placed once for all of its realizations; grants are bit-identical to
/// replaying the round through [`pipe_approval`] on a second build of
/// the topology, which shares neither.
pub fn approve_requests(
    topo: &Topology,
    requests: &[ApprovalRequest],
    config: &ApprovalConfig,
) -> Vec<HoseApproval> {
    let scenarios = ScenarioSet::enumerate(topo, config.max_cuts);
    approve_round(topo, requests, &scenarios, config, &Obs::disabled())
}

/// One approval round on a plan of its own over a pre-enumerated scenario
/// set (see [`hose_approval_scenarios`] for the warm-path contract).
///
/// The whole invocation runs under one `approval`/`round` root span, so
/// under trace-schema v2 the per-phase spans (`preflight`,
/// `gen_demand`, each `hose_approval` with its nested `pipe_approval` →
/// `risk` sweep, `aggregate`) form a single causal tree per round.
fn approve_round(
    topo: &Topology,
    requests: &[ApprovalRequest],
    scenarios: &ScenarioSet,
    config: &ApprovalConfig,
    obs: &Obs,
) -> Vec<HoseApproval> {
    let mut routes = RoundRoutes::new(topo, scenarios, config);
    approve_requests_in(&mut routes, requests, config, obs)
}

/// One approval round over `routes`: every sweep of the round reads the
/// same plan, so the round looks up each region pair's row once
/// however many hoses and realizations cross it (a negotiation
/// re-asks its one hose over the same plan, round after round); and the
/// realizations of a hose share one background, placed once.
pub(crate) fn approve_requests_in(
    routes: &mut RoundRoutes<'_>,
    requests: &[ApprovalRequest],
    config: &ApprovalConfig,
    obs: &Obs,
) -> Vec<HoseApproval> {
    let (topo, scenarios) = (routes.topo, routes.scenarios);
    let round_span = obs
        .span("approval", "round")
        .label_fmt("hoses", requests.len())
        .label_fmt("scenarios", scenarios.len());
    let hoses: Vec<&HoseRequest> = requests.iter().map(|r| &r.hose).collect();

    // Pre-flight: reject statically invalid hoses before spending any
    // simulation on them — they would at best produce garbage curves.
    // Hoses with error-severity diagnostics get zero approval.
    let mut span = obs
        .span("approval", "preflight")
        .label_fmt("hoses", requests.len());
    let owned: Vec<HoseRequest> = requests.iter().map(|r| r.hose.clone()).collect();
    let rejected = preflight_rejections(topo, &owned);
    span.add_label_fmt("rejected", rejected.iter().filter(|&&x| x).count());
    span.finish();

    // GEN_DEMAND: representative pipe realizations per hose.
    // realizations[h] = Vec<TM>, each TM = Vec<(dst, rate)>.
    let gen_span = obs
        .span("approval", "gen_demand")
        .label_fmt("hoses", hoses.len())
        .label_fmt("tms_per_hose", config.tms_per_hose);
    let mut realizations: Vec<Vec<Vec<Demand>>> = Vec::with_capacity(hoses.len());
    for (hi, &hose) in hoses.iter().enumerate() {
        if rejected[hi] {
            realizations.push(Vec::new());
            continue;
        }
        let tms = generate_tms(
            hose,
            &TmGenConfig {
                count: config.tms_per_hose,
                seed: config.seed
                    ^ (hose.npg.0 as u64) << 13
                    ^ (hose.region.0 as u64)
                    ^ match hose.direction {
                        entitlement_core::Direction::Egress => 0,
                        entitlement_core::Direction::Ingress => 0x16E5_5A17, // ingress salt
                    },
            },
        );
        let mut per_hose = Vec::with_capacity(tms.len());
        for tm in tms {
            let demands: Vec<Demand> = tm
                .iter()
                .map(|(&dst, &rate)| match hose.direction {
                    entitlement_core::Direction::Egress => Demand {
                        src: hose.region,
                        dst,
                        amount: rate,
                    },
                    entitlement_core::Direction::Ingress => Demand {
                        src: dst,
                        dst: hose.region,
                        amount: rate,
                    },
                })
                .collect();
            per_hose.push(demands);
        }
        realizations.push(per_hose);
    }
    gen_span.finish();

    // Bucket order: the eight c1_low…c4_high buckets, low-touch first
    // within a bucket, then NPG id for determinism.
    let mut order: Vec<usize> = (0..hoses.len()).collect();
    order.sort_by_key(|&i| {
        (
            entitlement_core::qos::QosBucket {
                class: hoses[i].qos,
                band: requests[i].band,
            }
            .rank(),
            if hoses[i].npg.is_low_touch() { 0u8 } else { 1u8 },
            hoses[i].npg.0,
        )
    });

    // Background admitted by more premium buckets, merged by (src, dst)
    // so it stays O(region pairs) across the whole sweep.
    let mut background: BTreeMap<(RegionId, RegionId), Rate> = BTreeMap::new();
    let mut results: Vec<(usize, HoseApproval)> = Vec::with_capacity(hoses.len());

    // Only a traced round builds the per-hose label.
    let traced = obs.enabled();

    for &h in &order {
        let hose = hoses[h];
        let slo = requests[h].slo;
        let qos = if traced {
            format!("{:?}", hose.qos)
        } else {
            String::new()
        };
        let mut hose_span = obs
            .span("approval", "hose_approval")
            .label("qos", &qos)
            .label_fmt("npg", hose.npg.0);
        if rejected[h] {
            // Analyzer-rejected: zero grant, no counter-proposal, and
            // nothing added to the background of lower classes.
            hose_span.add_label("outcome", "rejected");
            hose_span.finish();
            results.push((
                h,
                HoseApproval {
                    request: hose.clone(),
                    slo,
                    approved_total: Rate::ZERO,
                    per_realization: Vec::new(),
                    counter_proposal: Rate::ZERO,
                },
            ));
            continue;
        }
        let placed = routes.plan.place(topo, &background_demands(&background));
        let mut per_realization: Vec<Rate> = Vec::with_capacity(realizations[h].len());
        // Tracks the minimum-sum realization: the *worst* case, which is
        // both the conservative background pushed to lower classes and
        // the binding constraint on the grant.
        let mut worst_realization: Option<(Rate, Vec<PipeApproval>)> = None;
        for tm in &realizations[h] {
            let requested = tm.iter().map(|d| d.amount);
            let approvals = pipe_approval_in(routes, tm, requested, slo, &placed, config, obs);
            let sum: Rate = approvals.iter().map(|p| p.approved).sum();
            per_realization.push(sum);
            if worst_realization
                .as_ref()
                .is_none_or(|(s, _)| sum.as_bps() < s.as_bps())
            {
                worst_realization = Some((sum, approvals));
            }
        }
        // Final approval: minimum over realizations, clipped to the
        // total. A hose with no realizations at all (`tms_per_hose: 0`,
        // or a degenerate hose the TM sampler cannot realize) has seen
        // zero risk simulation — grant nothing, never everything.
        let no_realizations = per_realization.is_empty();
        let approved_total = if no_realizations {
            Rate::ZERO
        } else {
            per_realization
                .iter()
                .copied()
                .fold(Rate(f64::INFINITY), Rate::min)
                .min(hose.total)
        };
        // Counter-proposal: what the network can carry for the *worst*
        // realization, even if under the request.
        let counter_proposal = approved_total;

        // The admitted volume becomes background for lower classes: the
        // worst realization's per-pipe approvals (conservative), scaled
        // so the pushed pipes sum to the clipped grant, then merged by
        // (src, dst).
        if let Some((sum, pipes)) = worst_realization {
            // `sum` is the realization minimum, so it only exceeds the
            // grant when `.min(hose.total)` clipped it.
            let scale = if sum.as_bps() > approved_total.as_bps() && !sum.is_zero() {
                approved_total / sum
            } else {
                1.0
            };
            for p in pipes {
                let amount = if scale < 1.0 { p.approved * scale } else { p.approved };
                if !amount.is_zero() {
                    *background.entry((p.src, p.dst)).or_insert(Rate::ZERO) += amount;
                }
            }
        }
        let outcome = if no_realizations {
            "rejected"
        } else if approved_total.as_bps() >= hose.total.as_bps() {
            "approved"
        } else if approved_total.is_zero() {
            "zero"
        } else {
            "partial"
        };
        hose_span.add_label("outcome", outcome);
        hose_span.finish();
        results.push((
            h,
            HoseApproval {
                request: hose.clone(),
                slo,
                approved_total,
                per_realization,
                counter_proposal,
            },
        ));
    }
    // Back to input order (the sweep visited hoses in bucket order).
    let agg_span = obs
        .span("approval", "aggregate")
        .label_fmt("hoses", results.len());
    results.sort_by_key(|&(i, _)| i);
    let out: Vec<HoseApproval> = results.into_iter().map(|(_, r)| r).collect();
    agg_span.finish();
    round_span.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ApprovalSummary;
    use entitlement_core::{Direction, QosClass, RegionId};
    use entitlement_topology::BackboneSpec;

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

    #[test]
    fn small_request_fully_approved() {
        let t = topo();
        let dcs = t.dc_ids();
        let h = hose(1, QosClass::C1, dcs[0], Rate::gbps(10.0), &t);
        let out = hose_approval(
            &t,
            &[h],
            &[SloTarget::new(0.99).unwrap()],
            &ApprovalConfig::default(),
        );
        assert_eq!(out.len(), 1);
        assert!(
            out[0].fully_approved(),
            "10G on a Tbps backbone must clear: {}",
            out[0].approved_total
        );
    }

    #[test]
    fn oversized_request_gets_counter_proposal() {
        let t = topo();
        let dcs = t.dc_ids();
        let h = hose(1, QosClass::C1, dcs[0], Rate::tbps(100.0), &t);
        let out = hose_approval(
            &t,
            &[h],
            &[SloTarget::new(0.99).unwrap()],
            &ApprovalConfig::default(),
        );
        assert!(!out[0].fully_approved());
        assert!(out[0].counter_proposal.as_bps() > 0.0);
        assert!(out[0].counter_proposal.as_bps() < Rate::tbps(100.0).as_bps());
    }

    #[test]
    fn premium_class_squeezes_lower_class() {
        let t = topo();
        let dcs = t.dc_ids();
        // Big premium hose from dc0 + lower-class hose from the same dc.
        let premium = hose(1, QosClass::C1, dcs[0], Rate::tbps(50.0), &t);
        let low = hose(2, QosClass::C3, dcs[0], Rate::tbps(50.0), &t);
        let slo = SloTarget::new(0.95).unwrap();
        let both = hose_approval(&t, &[premium.clone(), low.clone()], &[slo, slo], &ApprovalConfig::default());
        let alone = hose_approval(&t, &[low], &[slo], &ApprovalConfig::default());
        assert!(
            both[1].approved_total.as_bps() < alone[0].approved_total.as_bps(),
            "C3 with C1 background {} must be below C3 alone {}",
            both[1].approved_total,
            alone[0].approved_total
        );
        // And the premium hose is unaffected by the lower one.
        let premium_alone = hose_approval(
            &t,
            &[hose(1, QosClass::C1, dcs[0], Rate::tbps(50.0), &t)],
            &[slo],
            &ApprovalConfig::default(),
        );
        assert!(
            (both[0].approved_total.as_bps() - premium_alone[0].approved_total.as_bps()).abs()
                < 1e-3 * premium_alone[0].approved_total.as_bps().max(1.0)
        );
    }

    #[test]
    fn stricter_slo_approves_less() {
        // The Fig 22 trend.
        let t = topo();
        let dcs = t.dc_ids();
        let mk = || hose(1, QosClass::C2, dcs[1], Rate::tbps(8.0), &t);
        let cfg = ApprovalConfig {
            max_cuts: 2,
            ..Default::default()
        };
        let loose = hose_approval(&t, &[mk()], &[SloTarget::new(0.9).unwrap()], &cfg);
        let strict = hose_approval(&t, &[mk()], &[SloTarget::new(0.9999).unwrap()], &cfg);
        assert!(
            strict[0].approved_total.as_bps() <= loose[0].approved_total.as_bps(),
            "strict {} > loose {}",
            strict[0].approved_total,
            loose[0].approved_total
        );
    }

    #[test]
    fn strict_batch_zeroes_partial_failures() {
        let t = topo();
        let dcs = t.dc_ids();
        let h = hose(1, QosClass::C1, dcs[0], Rate::tbps(100.0), &t);
        let cfg = ApprovalConfig {
            mode: ApprovalMode::StrictBatch,
            ..Default::default()
        };
        let out = hose_approval(&t, &[h], &[SloTarget::new(0.999).unwrap()], &cfg);
        assert_eq!(
            out[0].approved_total,
            Rate::ZERO,
            "batch must be rejected outright"
        );
    }

    #[test]
    fn bands_order_within_a_class() {
        // Two identical huge C2 hoses from the same DC, one low band one
        // high band: the low band must be approved at least as much.
        let t = topo();
        let dcs = t.dc_ids();
        let slo = SloTarget::new(0.95).unwrap();
        let mk = |npg: u32| hose(npg, QosClass::C2, dcs[0], Rate::tbps(40.0), &t);
        let requests = vec![
            crate::engine::ApprovalRequest {
                hose: mk(2),
                band: entitlement_core::QosBand::High,
                slo,
            },
            crate::engine::ApprovalRequest {
                hose: mk(1),
                band: entitlement_core::QosBand::Low,
                slo,
            },
        ];
        let out = approve_requests(&t, &requests, &ApprovalConfig::default());
        // Output order matches input order; request 1 (low band) wins.
        assert!(
            out[1].approved_total.as_bps() >= out[0].approved_total.as_bps(),
            "low band {} must not lose to high band {}",
            out[1].approved_total,
            out[0].approved_total
        );
        assert!(
            out[0].approved_total.as_bps() < out[1].approved_total.as_bps() * 0.9,
            "the high band should be visibly squeezed"
        );
    }

    #[test]
    fn preflight_rejects_statically_invalid_hose() {
        use entitlement_hose::HoseSegment;
        let t = topo();
        let dcs = t.dc_ids();
        // Overlapping segments (E0202) and caps that don't sum to the
        // total (E0203): must be rejected before any risk simulation.
        let broken = HoseRequest {
            npg: NpgId(1),
            qos: QosClass::C1,
            region: dcs[0],
            direction: Direction::Egress,
            total: Rate::gbps(100.0),
            segments: vec![
                HoseSegment {
                    regions: [dcs[1], dcs[2]].into_iter().collect(),
                    cap: Rate::gbps(80.0),
                },
                HoseSegment {
                    regions: [dcs[2]].into_iter().collect(),
                    cap: Rate::gbps(80.0),
                },
            ],
        };
        let ok = hose(2, QosClass::C1, dcs[1], Rate::gbps(10.0), &t);
        let slo = SloTarget::new(0.99).unwrap();
        let out = hose_approval(&t, &[broken, ok], &[slo, slo], &ApprovalConfig::default());
        assert_eq!(out[0].approved_total, Rate::ZERO, "broken hose must be gated");
        assert_eq!(out[0].counter_proposal, Rate::ZERO);
        assert!(out[0].per_realization.is_empty(), "no sweep for gated hoses");
        assert!(out[1].fully_approved(), "the valid hose still clears");
    }

    #[test]
    fn traced_approval_emits_phase_spans_and_matches_plain() {
        let t = topo();
        let dcs = t.dc_ids();
        let mk = || hose(1, QosClass::C1, dcs[0], Rate::gbps(10.0), &t);
        let slo = SloTarget::new(0.99).unwrap();
        let obs = Obs::new(entitlement_obs::Clock::counting(1));
        let cfg = ApprovalConfig::default();
        let traced = hose_approval_obs(&t, &[mk()], &[slo], &cfg, &obs);
        let plain = hose_approval(&t, &[mk()], &[slo], &cfg);
        assert_eq!(traced[0].approved_total, plain[0].approved_total);

        let phases: std::collections::BTreeSet<String> =
            obs.trace.events().iter().map(|e| e.phase.clone()).collect();
        for p in [
            "preflight",
            "gen_demand",
            "hose_approval",
            "pipe_approval",
            "aggregate",
            "sweep",
            "merge",
        ] {
            assert!(phases.contains(p), "missing phase {p}: {phases:?}");
        }
        let text = entitlement_obs::fold_metrics(&obs.trace.events()).unwrap();
        assert!(
            text.contains("entitlement_approval_hoses_total{outcome=\"approved\",qos=\"C1\"} 1"),
            "{text}"
        );
        assert!(text.contains("entitlement_approval_hose_ms_count{qos=\"C1\"} 1"));
    }

    #[test]
    fn summary_reflects_mixed_outcomes() {
        let t = topo();
        let dcs = t.dc_ids();
        let hoses = vec![
            hose(1, QosClass::C1, dcs[0], Rate::gbps(5.0), &t),
            hose(2, QosClass::C2, dcs[1], Rate::tbps(100.0), &t),
        ];
        let slo = SloTarget::new(0.99).unwrap();
        let out = hose_approval(&t, &hoses, &[slo, slo], &ApprovalConfig::default());
        let summary = ApprovalSummary::from_approvals(&out);
        assert_eq!(summary.total_hoses, 2);
        assert_eq!(summary.fully_approved, 1);
        assert!(summary.approval_rate() < 1.0);
        assert!(summary.approval_rate() > 0.0);
    }
}
