//! The rules: each is a plain function that encodes one or more paper
//! invariants and appends violations as [`Diagnostic`]s with stable
//! codes (their meanings are [`Code::CATALOG`]).
//!
//! Rules are pure functions of the [`LintBundle`]; sections a rule needs
//! that are absent simply disable it. [`analyze`] runs every rule in
//! `RULES` order; the approval pre-flight gate, which only sees hoses
//! and a topology, runs them all too — absence of the other sections
//! makes the irrelevant ones no-ops.

use crate::diag::{Code, Diagnostic, Location, Report};
use crate::input::{LintBundle, SloPolicyCheck};
use entitlement_core::qos::{QosBand, QosBucket};
use entitlement_core::{Direction, QosClass, Rate};
use entitlement_hose::segment::{alpha_minus, alpha_plus};
use entitlement_hose::HoseRequest;
use entitlement_slo::SloPolicy;
use entitlement_topology::{max_flow, Topology};
use std::collections::{BTreeMap, BTreeSet};

/// Relative float tolerance shared by the aggregation rules (matches
/// `HoseRequest::validate`).
fn rel_eps(reference: f64) -> f64 {
    1e-6 * reference.abs().max(1.0)
}

// ---- contract rules ------------------------------------------------------

/// E0101: entitled rates are positive and finite.
fn contract_rates(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let Some(contracts) = &bundle.contracts else { return };
    for (ci, c) in contracts.iter().enumerate() {
        for (ei, e) in c.entitlements.iter().enumerate() {
            let bps = e.entitled_rate.as_bps();
            if !bps.is_finite() || bps <= 0.0 {
                out.push(Diagnostic::new(
                    Code::E0101,
                    Location::root("contracts").index(ci).child("entitlements").index(ei),
                    format!("entitled rate {bps} bps is not a positive finite rate"),
                ));
            }
        }
    }
}

/// E0102 + E0302: SLO range and SLO-vs-class consistency.
fn contract_slo(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let Some(contracts) = &bundle.contracts else { return };
    for (ci, c) in contracts.iter().enumerate() {
        let loc = Location::root("contracts").index(ci).child("slo");
        let a = c.slo.availability();
        if !a.is_finite() || a <= 0.0 || a > 1.0 {
            out.push(Diagnostic::new(
                Code::E0102,
                loc,
                format!("SLO availability {a} outside (0, 1]"),
            ));
            continue;
        }
        // The most premium entitled class bounds what the network
        // will promise; asking past its default target is suspect.
        if let Some(best) = c.entitlements.iter().map(|e| e.qos).min_by_key(|q| q.priority())
        {
            if a > best.default_slo() + 1e-12 {
                out.push(Diagnostic::new(
                    Code::E0302,
                    loc,
                    format!(
                        "SLO {a} is stricter than the {best} class default {}",
                        best.default_slo()
                    ),
                ));
            }
        }
    }
}

/// E0104 + E0105: NPG consistency and registry resolution.
fn contract_npg(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let registry: Option<BTreeSet<u32>> =
        bundle.npgs.as_ref().map(|v| v.iter().copied().collect());
    let Some(contracts) = &bundle.contracts else { return };
    for (ci, c) in contracts.iter().enumerate() {
        let cloc = Location::root("contracts").index(ci);
        if let Some(reg) = &registry {
            if !c.npg.is_low_touch() && !reg.contains(&c.npg.0) {
                out.push(Diagnostic::new(
                    Code::E0105,
                    cloc.child("npg"),
                    format!("contract NPG {} is not in the service registry", c.npg),
                ));
            }
        }
        for (ei, e) in c.entitlements.iter().enumerate() {
            if e.npg != c.npg {
                out.push(Diagnostic::new(
                    Code::E0104,
                    cloc.child("entitlements").index(ei).child("npg"),
                    format!(
                        "entitlement row binds {} but the contract binds {}",
                        e.npg, c.npg
                    ),
                ));
            }
        }
    }
}

/// E0103 + E0106: row duplication and empty contracts.
fn contract_rows(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let Some(contracts) = &bundle.contracts else { return };
    for (ci, c) in contracts.iter().enumerate() {
        let cloc = Location::root("contracts").index(ci);
        if c.entitlements.is_empty() {
            out.push(Diagnostic::new(
                Code::E0106,
                cloc.clone(),
                format!("contract #{} for {} has no entitlements", c.id.0, c.npg),
            ));
        }
        for (i, a) in c.entitlements.iter().enumerate() {
            for (j, b) in c.entitlements.iter().enumerate().skip(i + 1) {
                if a.qos == b.qos
                    && a.region == b.region
                    && a.direction == b.direction
                    && a.period.overlaps(b.period)
                {
                    out.push(Diagnostic::new(
                        Code::E0103,
                        cloc.child("entitlements").index(j),
                        format!(
                            "row duplicates entitlements[{i}] for {} {} {} over {}",
                            a.qos, a.region, a.direction, b.period
                        ),
                    ));
                }
            }
        }
    }
}

// ---- hose rules ----------------------------------------------------------

/// E0201–E0204: the structural segmented-hose invariants (the static
/// mirror of `HoseRequest::validate`, with per-segment locations).
fn hose_structure(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let Some(hoses) = &bundle.hoses else { return };
    for (hi, h) in hoses.iter().enumerate() {
        let hloc = Location::root("hoses").index(hi);
        if h.segments.is_empty() {
            out.push(Diagnostic::new(
                Code::E0201,
                hloc.child("segments"),
                "hose has no segments".to_string(),
            ));
            continue;
        }
        let mut seen: BTreeMap<entitlement_core::RegionId, usize> = BTreeMap::new();
        let mut cap_sum = 0.0;
        for (si, s) in h.segments.iter().enumerate() {
            let sloc = hloc.child("segments").index(si);
            if s.regions.is_empty() {
                out.push(Diagnostic::new(
                    Code::E0201,
                    sloc.child("regions"),
                    "segment covers no regions".to_string(),
                ));
            }
            if s.regions.contains(&h.region) {
                out.push(Diagnostic::new(
                    Code::E0202,
                    sloc.child("regions"),
                    format!("hose region {} appears among its own remotes", h.region),
                ));
            }
            for r in &s.regions {
                if let Some(prev) = seen.insert(*r, si) {
                    out.push(Diagnostic::new(
                        Code::E0202,
                        sloc.child("regions"),
                        format!("region {r} already covered by segments[{prev}]"),
                    ));
                }
            }
            let cap = s.cap.as_bps();
            cap_sum += cap;
            if !cap.is_finite()
                || cap <= 0.0
                || cap > h.total.as_bps() + rel_eps(h.total.as_bps())
            {
                out.push(Diagnostic::new(
                    Code::E0204,
                    sloc.child("cap"),
                    format!(
                        "segment cap {} implies α outside (0, 1) for hose total {}",
                        s.cap, h.total
                    ),
                ));
            }
        }
        if (cap_sum - h.total.as_bps()).abs() > rel_eps(h.total.as_bps()) {
            out.push(Diagnostic::new(
                Code::E0203,
                hloc.child("segments"),
                format!(
                    "segment caps {} do not sum to hose total {}",
                    Rate::bps(cap_sum),
                    h.total
                ),
            ));
        }
    }
}

/// E0205–E0207: segmentation validity against the observed flow series
/// (the Algorithm 1 boundary conditions).
fn segmentation_boundary(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let (Some(hoses), Some(flows)) = (&bundle.hoses, &bundle.flows) else { return };
    for (fi, hf) in flows.iter().enumerate() {
        let floc = Location::root("flows").index(fi);
        let Some(h) = hoses.get(hf.hose) else {
            out.push(Diagnostic::new(
                Code::E0207,
                floc.child("hose"),
                format!("flow series references hoses[{}], which does not exist", hf.hose),
            ));
            continue;
        };
        let hloc = Location::root("hoses").index(hf.hose);
        let series = hf.to_flow_series();
        let observed: BTreeSet<entitlement_core::RegionId> = series.keys().copied().collect();
        let covered = h.remotes();

        for r in observed.difference(&covered) {
            out.push(Diagnostic::new(
                Code::E0207,
                floc.child("series"),
                format!("observed destination {r} is not covered by any segment"),
            ));
        }
        for r in covered.difference(&observed) {
            out.push(Diagnostic::new(
                Code::E0207,
                hloc.child("segments"),
                format!("segment destination {r} never appears in the flow series"),
            ));
        }

        // The boundary checks only make sense on a genuine
        // segmentation whose destinations all carry flow data.
        if h.segments.len() < 2 || !observed.is_superset(&covered) {
            continue;
        }
        let first = &h.segments[0];
        let a_minus = alpha_minus(&series, &first.regions);
        // Algorithm 1 stops once α⁻ crosses 0.5, or degenerately
        // swallows all but one destination; anything else means the
        // split was not produced by (or equivalent to) the algorithm.
        if a_minus <= 0.5 && first.regions.len() + 1 < covered.len() {
            out.push(Diagnostic::new(
                Code::E0205,
                hloc.child("segments").index(0),
                format!(
                    "first segment α⁻ = {a_minus:.4} does not exceed the 0.5 boundary"
                ),
            ));
        }
        if h.total.as_bps() > 0.0 {
            for (si, s) in h.segments.iter().enumerate() {
                let share = s.cap.as_bps() / h.total.as_bps();
                let a_plus = alpha_plus(&series, &s.regions);
                if share + 1e-6 < a_plus {
                    out.push(Diagnostic::new(
                        Code::E0206,
                        hloc.child("segments").index(si).child("cap"),
                        format!(
                            "cap share {share:.4} is below the α⁺ = {a_plus:.4} the \
                             flows actually reached"
                        ),
                    ));
                }
            }
        }
    }
}

/// The hose that owns a pipe: matching NPG + QoS, and the pipe
/// starts (egress hose) or ends (ingress hose) at the hose region.
fn pipe_owner<'h>(
    hoses: &'h [HoseRequest],
    pipe: &entitlement_hose::PipeRequest,
) -> Option<(usize, &'h HoseRequest)> {
    hoses.iter().enumerate().find(|(_, h)| {
        h.npg == pipe.npg
            && h.qos == pipe.qos
            && match h.direction {
                Direction::Egress => h.region == pipe.src,
                Direction::Ingress => h.region == pipe.dst,
            }
    })
}

/// E0208 + E0209: pipe realizations stay inside their owning hose.
fn pipe_aggregation(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let (Some(hoses), Some(pipes)) = (&bundle.hoses, &bundle.pipes) else { return };
    let mut per_hose: BTreeMap<usize, f64> = BTreeMap::new();
    for (pi, p) in pipes.iter().enumerate() {
        let Some((hi, h)) = pipe_owner(hoses, p) else { continue };
        *per_hose.entry(hi).or_insert(0.0) += p.rate.as_bps();
        let remote = match h.direction {
            Direction::Egress => p.dst,
            Direction::Ingress => p.src,
        };
        let cap = h.max_toward(remote);
        if cap.is_zero() {
            out.push(Diagnostic::new(
                Code::E0209,
                Location::root("pipes").index(pi),
                format!(
                    "pipe toward {remote} is not covered by any segment of hoses[{hi}]"
                ),
            ));
        } else if p.rate.as_bps() > cap.as_bps() + rel_eps(cap.as_bps()) {
            out.push(Diagnostic::new(
                Code::E0209,
                Location::root("pipes").index(pi).child("rate"),
                format!(
                    "pipe rate {} exceeds the {} cap of its segment in hoses[{hi}]",
                    p.rate, cap
                ),
            ));
        }
    }
    for (hi, sum) in per_hose {
        let total = hoses[hi].total.as_bps();
        if sum > total + rel_eps(total) {
            out.push(Diagnostic::new(
                Code::E0208,
                Location::root("hoses").index(hi).child("total"),
                format!(
                    "pipes aggregate to {}, exceeding the hose total {}",
                    Rate::bps(sum),
                    hoses[hi].total
                ),
            ));
        }
    }
}

// ---- ordering rules ------------------------------------------------------

/// The bucket a `c1_low` … `c4_high` name denotes.
fn parse_bucket(name: &str) -> Option<QosBucket> {
    let (class, band) = name.split_once('_')?;
    let class = match class {
        "c1" => QosClass::C1,
        "c2" => QosClass::C2,
        "c3" => QosClass::C3,
        "c4" => QosClass::C4,
        _ => return None,
    };
    let band = match band {
        "low" => QosBand::Low,
        "high" => QosBand::High,
        _ => return None,
    };
    Some(QosBucket { class, band })
}

/// E0301: the planned approval sweep follows the strict bucket order.
fn approval_order(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let Some(order) = &bundle.approval_order else { return };
    let mut prev: Option<(usize, QosBucket)> = None;
    for (i, name) in order.iter().enumerate() {
        let loc = Location::root("approval_order").index(i);
        let Some(bucket) = parse_bucket(name) else {
            out.push(Diagnostic::new(
                Code::E0301,
                loc,
                format!("unknown approval bucket '{name}' (expected c1_low … c4_high)"),
            ));
            continue;
        };
        if let Some((pi, pb)) = prev {
            if bucket.rank() < pb.rank() {
                out.push(Diagnostic::new(
                    Code::E0301,
                    loc,
                    format!(
                        "bucket {bucket} is more premium than {pb} at approval_order[{pi}]; \
                         Algorithm 2 sweeps c1_low → c4_high"
                    ),
                ));
            }
        }
        prev = Some((i, bucket));
    }
}

// ---- topology rules ------------------------------------------------------

/// Whether `r` names no region of `topo`.
fn dangling(topo: &Topology, r: entitlement_core::RegionId) -> bool {
    topo.region(r).is_none()
}

/// E0401: every region reference resolves in the topology.
fn topology_refs(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let Some(topo) = &bundle.topology else { return };
    let mut dangle = |loc: Location, r: entitlement_core::RegionId| {
        if dangling(topo, r) {
            out.push(Diagnostic::new(
                Code::E0401,
                loc,
                format!("region {r} does not exist in the {}-region topology", topo.region_count()),
            ));
        }
    };
    if let Some(contracts) = &bundle.contracts {
        for (ci, c) in contracts.iter().enumerate() {
            for (ei, e) in c.entitlements.iter().enumerate() {
                dangle(
                    Location::root("contracts").index(ci).child("entitlements").index(ei).child("region"),
                    e.region,
                );
            }
        }
    }
    if let Some(hoses) = &bundle.hoses {
        for (hi, h) in hoses.iter().enumerate() {
            let hloc = Location::root("hoses").index(hi);
            dangle(hloc.child("region"), h.region);
            for (si, s) in h.segments.iter().enumerate() {
                for &r in &s.regions {
                    dangle(hloc.child("segments").index(si).child("regions"), r);
                }
            }
        }
    }
    if let Some(pipes) = &bundle.pipes {
        for (pi, p) in pipes.iter().enumerate() {
            let ploc = Location::root("pipes").index(pi);
            dangle(ploc.child("src"), p.src);
            dangle(ploc.child("dst"), p.dst);
        }
    }
}

/// E0402 + E0403: physical capacity checks — aggregate oversubscription
/// (warning: answered by counter-proposals, not rejection) and per-pipe
/// max-flow infeasibility (error: no routing can ever satisfy it).
fn capacity_oversubscription(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let Some(topo) = &bundle.topology else { return };
    // Aggregate entitled volume per (region, direction) vs attached
    // capacity. Sums ignore periods: a region is oversubscribed if
    // its worst-case concurrent entitlements exceed the fiber.
    if let Some(contracts) = &bundle.contracts {
        let mut entitled: BTreeMap<(entitlement_core::RegionId, Direction), f64> =
            BTreeMap::new();
        for c in contracts {
            for e in &c.entitlements {
                *entitled.entry((e.region, e.direction)).or_insert(0.0) +=
                    e.entitled_rate.as_bps();
            }
        }
        for ((region, direction), sum) in entitled {
            if dangling(topo, region) {
                continue; // E0401 already fired
            }
            let cap = match direction {
                Direction::Egress => topo.egress_capacity(region),
                Direction::Ingress => topo.ingress_capacity(region),
            };
            if sum > cap.as_bps() + rel_eps(cap.as_bps()) {
                out.push(Diagnostic::new(
                    Code::E0402,
                    Location::root("contracts"),
                    format!(
                        "{} {direction} entitlements total {}, exceeding the {} attached",
                        region,
                        Rate::bps(sum),
                        cap
                    ),
                ));
            }
        }
    }
    if let Some(hoses) = &bundle.hoses {
        for (hi, h) in hoses.iter().enumerate() {
            if dangling(topo, h.region) {
                continue;
            }
            let cap = match h.direction {
                Direction::Egress => topo.egress_capacity(h.region),
                Direction::Ingress => topo.ingress_capacity(h.region),
            };
            if h.total.as_bps() > cap.as_bps() + rel_eps(cap.as_bps()) {
                out.push(Diagnostic::new(
                    Code::E0402,
                    Location::root("hoses").index(hi).child("total"),
                    format!(
                        "hose total {} exceeds the {} attached at {}",
                        h.total, cap, h.region
                    ),
                ));
            }
        }
    }
    if let Some(pipes) = &bundle.pipes {
        for (pi, p) in pipes.iter().enumerate() {
            if dangling(topo, p.src) || dangling(topo, p.dst) {
                continue;
            }
            let mf = max_flow(topo, p.src, p.dst, &[]);
            if p.rate.as_bps() > mf.as_bps() + rel_eps(mf.as_bps()) {
                out.push(Diagnostic::new(
                    Code::E0403,
                    Location::root("pipes").index(pi).child("rate"),
                    format!(
                        "pipe rate {} exceeds the {} max-flow between {} and {} \
                         even with zero failures",
                        p.rate, mf, p.src, p.dst
                    ),
                ));
            }
        }
    }
}

/// E0404: link attribute sanity.
fn link_attributes(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let Some(topo) = &bundle.topology else { return };
    for (li, l) in topo.links().iter().enumerate() {
        let loc = Location::root("topology").child("links").index(li);
        if !l.capacity.as_bps().is_finite() || l.capacity.as_bps() <= 0.0 {
            out.push(Diagnostic::new(
                Code::E0404,
                loc.child("capacity"),
                format!("link {} has non-positive capacity {}", l.id, l.capacity),
            ));
        }
        if !l.availability.is_finite() || l.availability <= 0.0 || l.availability > 1.0 {
            out.push(Diagnostic::new(
                Code::E0404,
                loc.child("availability"),
                format!("link {} availability {} outside (0, 1]", l.id, l.availability),
            ));
        }
    }
}

// ---- curve rules ---------------------------------------------------------

/// E0501 + E0503: curve shape — monotone, finite, availability in [0, 1].
fn curve_shape(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let Some(curves) = &bundle.curves else { return };
    for (ci, c) in curves.iter().enumerate() {
        let cloc = Location::root("curves").index(ci);
        let mut valid = true;
        for (pi, p) in c.points.iter().enumerate() {
            if !p.gbps.is_finite()
                || p.gbps < 0.0
                || !p.availability.is_finite()
                || p.availability < 0.0
                || p.availability > 1.0
            {
                valid = false;
                out.push(Diagnostic::new(
                    Code::E0503,
                    cloc.child("points").index(pi),
                    format!(
                        "curve '{}' point (volume {} G, availability {}) is invalid",
                        c.name, p.gbps, p.availability
                    ),
                ));
            }
        }
        if !valid {
            continue;
        }
        // Availability of "at least b" can only fall as b grows.
        let mut sorted: Vec<_> = c.points.clone();
        sorted.sort_by(|a, b| a.gbps.total_cmp(&b.gbps));
        for w in sorted.windows(2) {
            if w[1].availability > w[0].availability + 1e-12 {
                out.push(Diagnostic::new(
                    Code::E0501,
                    cloc.child("points"),
                    format!(
                        "curve '{}' is non-monotone: availability rises from {} to {} \
                         as volume grows from {} G to {} G",
                        c.name, w[0].availability, w[1].availability, w[0].gbps, w[1].gbps
                    ),
                ));
                break;
            }
        }
    }
}

/// E0502 (+ E0102 for the target itself): the SLO is attainable on the
/// curve — some volume meets it.
fn curve_domain(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let Some(curves) = &bundle.curves else { return };
    for (ci, c) in curves.iter().enumerate() {
        let loc = Location::root("curves").index(ci).child("slo");
        if !c.slo.is_finite() || c.slo <= 0.0 || c.slo > 1.0 {
            out.push(Diagnostic::new(
                Code::E0102,
                loc,
                format!("SLO availability {} outside (0, 1]", c.slo),
            ));
            continue;
        }
        let top = c.points.iter().map(|p| p.availability).fold(0.0, f64::max);
        if c.slo > top + 1e-12 {
            out.push(Diagnostic::new(
                Code::E0502,
                loc,
                format!(
                    "curve '{}' tops out at availability {top}; no volume meets the {} SLO",
                    c.name, c.slo
                ),
            ));
        }
    }
}

// ---- SLO policy rules ----------------------------------------------------

/// Whether `v` is a positive whole number (cycle counts come in as
/// `f64` so fractional JSON values land here, not in the parser).
fn positive_count(v: f64) -> bool {
    v.is_finite() && v >= 1.0 && v.fract() == 0.0
}

/// The policy the bundle entry describes, with an absent knob at
/// `SloPolicy::default()`'s value; `Err` names each count that is
/// not a whole number of cycles.
fn slo_policy(p: &SloPolicyCheck) -> Result<SloPolicy, Vec<(&'static str, f64)>> {
    let counts = [
        ("fast_window", p.fast_window),
        ("slow_window", p.slow_window),
        ("hysteresis", p.hysteresis),
    ];
    let fractional: Vec<(&'static str, f64)> = counts
        .into_iter()
        .filter(|&(_, v)| !(v.is_finite() && v >= 0.0 && v.fract() == 0.0))
        .collect();
    if !fractional.is_empty() {
        return Err(fractional);
    }
    let d = SloPolicy::default();
    Ok(SloPolicy {
        fast_window: p.fast_window as usize,
        slow_window: p.slow_window as usize,
        fast_burn: p.fast_burn,
        slow_burn: p.slow_burn,
        clear_fraction: p.clear_fraction.unwrap_or(d.clear_fraction),
        hysteresis: p.hysteresis as usize,
        delivery_tolerance: p.delivery_tolerance,
        under_utilization: p.under_utilization.unwrap_or(d.under_utilization),
        over_utilization: p.over_utilization.unwrap_or(d.over_utilization),
    })
}

/// E0601 + E0602 + E0603: a burn-rate alerting policy is one
/// `entitlectl slo` would start with. The findings are
/// `entitlement-slo`'s own `SloPolicy::validate`, so a monitoring
/// config lints exactly as it would fail at `entitlectl slo` startup;
/// the one check kept here is that the window and hysteresis counts,
/// which arrive as JSON numbers, are whole.
fn slo_policy_sanity(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let Some(policies) = &bundle.slo_policies else { return };
    for (pi, p) in policies.iter().enumerate() {
        let loc = Location::root("slo_policies").index(pi);
        let issues = match slo_policy(p) {
            Ok(policy) => policy.validate(),
            Err(fractional) => {
                for (field, v) in fractional {
                    out.push(Diagnostic::new(
                        Code::E0601,
                        loc.child(field),
                        format!("policy '{}': {field} {v} is not a whole cycle count", p.name),
                    ));
                }
                continue;
            }
        };
        for issue in issues {
            let at = issue.knobs.first().map_or_else(|| loc.clone(), |k| loc.child(k));
            out.push(Diagnostic::new(
                issue.code,
                at,
                format!("policy '{}': {}", p.name, issue.message),
            ));
        }
    }
}

// ---- approval config rules -----------------------------------------------

/// E0701 + E0702: an approval-engine deployment config cannot grant
/// without simulation. `tms_per_hose: 0` means `GEN_DEMAND` produces no
/// realizations and every hose would be decided on zero risk sweeps;
/// `max_cuts`/`k_paths` must stay inside what the sweep can enumerate.
fn approval_config_sanity(bundle: &LintBundle, out: &mut Vec<Diagnostic>) {
    let Some(configs) = &bundle.approval_configs else { return };
    for (ci, c) in configs.iter().enumerate() {
        let loc = Location::root("approval_configs").index(ci);
        if !positive_count(c.tms_per_hose) {
            out.push(Diagnostic::new(
                Code::E0701,
                loc.child("tms_per_hose"),
                format!(
                    "config '{}': tms_per_hose {} is not a positive whole count — \
                     every hose would be approved with zero TM realizations behind it",
                    c.name, c.tms_per_hose
                ),
            ));
        }
        if !c.max_cuts.is_finite()
            || c.max_cuts < 0.0
            || c.max_cuts.fract() != 0.0
            || c.max_cuts > 2.0
        {
            out.push(Diagnostic::new(
                Code::E0702,
                loc.child("max_cuts"),
                format!(
                    "config '{}': max_cuts {} outside the enumerable range 0..=2",
                    c.name, c.max_cuts
                ),
            ));
        }
        if !positive_count(c.k_paths) {
            out.push(Diagnostic::new(
                Code::E0702,
                loc.child("k_paths"),
                format!(
                    "config '{}': k_paths {} is not a positive whole path count",
                    c.name, c.k_paths
                ),
            ));
        }
    }
}

// ---- the table ---------------------------------------------------------

/// Every rule, in the order a report lists their findings.
const RULES: [fn(&LintBundle, &mut Vec<Diagnostic>); 15] = [
    contract_rates,
    contract_slo,
    contract_npg,
    contract_rows,
    hose_structure,
    segmentation_boundary,
    pipe_aggregation,
    approval_order,
    topology_refs,
    capacity_oversubscription,
    link_attributes,
    curve_shape,
    curve_domain,
    slo_policy_sanity,
    approval_config_sanity,
];

/// Run every rule over the bundle.
pub fn analyze(bundle: &LintBundle) -> Report {
    let mut diagnostics = Vec::new();
    for rule in RULES {
        rule(bundle, &mut diagnostics);
    }
    Report { diagnostics }
}

/// The approval pre-flight entry point: analyze a hose batch (plus the
/// topology it will be approved against) and return the report. Callers
/// gate on [`Report::has_errors`] — error-severity findings mean the
/// hose must not reach the risk sweep.
pub fn preflight_hoses(topo: Option<&Topology>, hoses: &[HoseRequest]) -> Report {
    let mut bundle = LintBundle::for_hoses(hoses);
    bundle.topology = topo.cloned();
    analyze(&bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_core::{NpgId, RegionId};
    use entitlement_hose::HoseSegment;

    fn valid_hose() -> HoseRequest {
        HoseRequest {
            npg: NpgId(1),
            qos: QosClass::C2,
            region: RegionId(0),
            direction: Direction::Egress,
            total: Rate::gbps(900.0),
            segments: vec![
                HoseSegment {
                    regions: [RegionId(1), RegionId(2)].into_iter().collect(),
                    cap: Rate::gbps(400.0),
                },
                HoseSegment {
                    regions: [RegionId(3), RegionId(4)].into_iter().collect(),
                    cap: Rate::gbps(500.0),
                },
            ],
        }
    }

    #[test]
    fn clean_hose_produces_no_findings() {
        let report = preflight_hoses(None, &[valid_hose()]);
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn overlapping_segments_fire_e0202() {
        let mut h = valid_hose();
        h.segments[1].regions.insert(RegionId(1));
        let report = preflight_hoses(None, &[h]);
        assert!(report.has_errors());
        assert!(report.codes().contains(&Code::E0202));
    }

    #[test]
    fn cap_mismatch_fires_e0203() {
        let mut h = valid_hose();
        h.segments[0].cap = Rate::gbps(100.0);
        let report = preflight_hoses(None, &[h]);
        assert!(report.codes().contains(&Code::E0203));
    }

    #[test]
    fn bucket_parsing() {
        assert!(parse_bucket("c1_low").is_some());
        assert!(parse_bucket("c4_high").is_some());
        assert!(parse_bucket("c5_low").is_none());
        assert!(parse_bucket("premium").is_none());
    }
}
