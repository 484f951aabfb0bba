//! Decision provenance: render a human-readable causal explanation of
//! one admission decision from the trace alone.
//!
//! Every `market`/`admit` span carries the decision-provenance ledger
//! as labels (request ordinal, ask/grant, serving path, index epoch,
//! the slot state the probe found, residual headroom before/after, and
//! — for a denial or a partial grant — the binding failure scenario
//! with its dead links; see
//! [`crate::market::EntitlementMarket::admit_obs`]), and parent ids tie
//! the admit to its `sweep_fallback` / `risk` descendants. Rates are
//! read in bps through [`AdmitObs::decode`] and printed in Gbps; a
//! trace from before schema v5 (no `ask_bps`) is refused. Under a
//! counting clock a duration counts clock reads, not time.
//! `entitlectl explain` feeds a parsed trace through
//! [`explain_request`]; no market state, topology, or replay is needed
//! — the trace is the audit record.

use entitlement_obs::tree::{build_span_forest, critical_path, SpanForest};
use entitlement_obs::{BadLabel, TraceEvent};
use entitlement_slo::watch::AdmitObs;
use std::fmt::Write as _;

fn label<'a>(e: &'a TraceEvent, key: &str) -> &'a str {
    e.label(key).unwrap_or("?")
}

/// An admit's event index, rates and (if written) headroom in bps.
type Admit = (usize, AdmitObs, Option<f64>);

/// Every `market`/`admit` span, in emit order, decoded; the first that
/// does not decode is named as the watchdog names it.
fn admit_events(events: &[TraceEvent]) -> Result<Vec<Admit>, String> {
    let admits = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.span == "market" && e.phase == "admit")
        .map(|(i, e)| {
            let headroom = e.label("headroom_bps").map(|_| e.num("headroom_bps"));
            Ok((i, AdmitObs::decode(e)?, headroom.transpose()?))
        })
        .collect::<Result<Vec<Admit>, BadLabel>>()
        .map_err(|bad| bad.to_string())?;
    if admits.is_empty() {
        return Err("trace contains no market/admit spans".to_string());
    }
    Ok(admits)
}

/// Explain one admission decision by its stable `request` ordinal.
///
/// # Errors
///
/// Returns a message when no `market`/`admit` span carries the
/// requested ordinal, the trace has no admit spans at all, or an admit
/// does not decode.
pub fn explain_request(events: &[TraceEvent], request: u64) -> Result<String, String> {
    let admits = admit_events(events)?;
    let admit = admits
        .iter()
        .find(|(_, rates, _)| rates.request == request)
        .ok_or_else(|| {
            format!(
                "no market/admit span with request ordinal {request} \
                 ({} admits in trace)",
                admits.len()
            )
        })?;
    // Forest reconstruction may fail on traces whose admit spans carry
    // provenance but whose surroundings are malformed; the explanation
    // then degrades to the ledger labels without the causal subtree.
    let forest = build_span_forest(events).ok();
    Ok(render_one(events, forest.as_ref(), admit))
}

/// Explain every **denied** admission in the trace, in request order.
/// Returns the count header plus one explanation block per denial;
/// traces with no denials say so explicitly.
///
/// # Errors
///
/// Returns a message when the trace has no admit spans or an admit
/// does not decode.
pub fn explain_denied(events: &[TraceEvent]) -> Result<String, String> {
    let admits = admit_events(events)?;
    let denied: Vec<&Admit> = admits
        .iter()
        .filter(|(i, _, _)| events[*i].label("outcome") == Some("denied"))
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} admits in trace, {} denied",
        admits.len(),
        denied.len()
    );
    let forest = build_span_forest(events).ok();
    for admit in denied {
        out.push('\n');
        out.push_str(&render_one(events, forest.as_ref(), admit));
    }
    Ok(out)
}

/// The causal explanation of one admit span.
fn render_one(events: &[TraceEvent], forest: Option<&SpanForest>, admit: &Admit) -> String {
    // Rates print in Gbps, `{}` of `bps / 1e9`.
    let (node, rates, headroom) = (admit.0, &admit.1, admit.2.map(|bps| bps / 1e9));
    let e = &events[node];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "request #{}: {} asks {} Gbps {}->{} ({}, {})",
        rates.request,
        label(e, "npg"),
        rates.ask_bps / 1e9,
        label(e, "src"),
        label(e, "dst"),
        label(e, "bucket"),
        label(e, "slice"),
    );
    let _ = writeln!(
        out,
        "  decision: {} {} Gbps via {} path (index epoch {}, slot {})",
        label(e, "outcome"),
        rates.granted_bps / 1e9,
        rates.path,
        label(e, "epoch"),
        label(e, "state"),
    );
    let _ = writeln!(
        out,
        "  residual headroom: {} Gbps before -> {} Gbps after",
        rates.residual_before_bps / 1e9,
        rates.residual_after_bps / 1e9,
    );
    // The provenance is written only where the verdict reads it.
    if let Some(headroom) = headroom {
        let _ = writeln!(
            out,
            "  physical headroom: {headroom} Gbps, bound by scenario `{}` (links {}, p={})",
            label(e, "binding_scenario"),
            label(e, "binding_links"),
            label(e, "binding_p"),
        );
    }
    // What prints as `0`: exactly +0.
    let zero = |gbps: f64| gbps.to_bits() == 0;
    let residual_zero = zero(rates.residual_before_bps / 1e9);
    out.push_str(&verdict(e, headroom.is_some_and(zero), residual_zero));
    if let Some(forest) = forest {
        let _ = writeln!(out, "  causal trace:");
        render_subtree(events, forest, node, 2, &mut out);
        let path = critical_path(forest, events, node);
        let hops: Vec<String> = path
            .iter()
            .map(|&i| format!("{}/{}", events[i].span, events[i].phase))
            .collect();
        let _ = writeln!(out, "  critical path: {}", hops.join(" -> "));
    }
    out
}

/// One plain-language sentence naming the bottleneck.
fn verdict(e: &TraceEvent, headroom_zero: bool, residual_zero: bool) -> String {
    let pair = format!("{}->{}", label(e, "src"), label(e, "dst"));
    let scenario = label(e, "binding_scenario");
    let links = label(e, "binding_links");
    let body = match label(e, "outcome") {
        _ if e.label("rejected").is_some() => format!(
            "the request was refused for its {}: nothing was looked up, \
             swept or decremented",
            label(e, "rejected")
        ),
        "denied" if headroom_zero && scenario == "infeasible" => format!(
            "no scenario mass meets the SLO for DC pair {pair}: \
             nothing can be guaranteed at this availability"
        ),
        "denied" if headroom_zero => format!(
            "binding scenario `{scenario}` (dead links {links}) leaves zero \
             SLO-feasible headroom on DC pair {pair}"
        ),
        "denied" if residual_zero => format!(
            "DC pair {pair} has physical headroom (bound by `{scenario}`, links \
             {links}) but earlier grants consumed all of it"
        ),
        "denied" => format!(
            "residual headroom on DC pair {pair} was exhausted below the ask \
             (bottleneck scenario `{scenario}`, links {links})"
        ),
        "partial" => format!(
            "residual headroom on DC pair {pair} covered only part of the ask \
             (bound by `{scenario}`, links {links})"
        ),
        _ => format!("ask fit within the residual headroom of DC pair {pair}"),
    };
    format!("  verdict: {body}\n")
}

/// Indented rendering of the admit span's causal subtree: every
/// descendant with its sorted labels, durations included.
fn render_subtree(
    events: &[TraceEvent],
    forest: &SpanForest,
    node: usize,
    depth: usize,
    out: &mut String,
) {
    let e = &events[node];
    let mut line = format!(
        "{:indent$}{}/{} ts={} dur={}",
        "",
        e.span,
        e.phase,
        e.ts_ms,
        e.dur_ms,
        indent = depth * 2
    );
    // The admit span's own ledger labels are already rendered above;
    // children print theirs inline.
    if depth > 2 {
        for (k, v) in &e.labels {
            let _ = write!(line, " {k}={v}");
        }
    }
    let _ = writeln!(out, "{line}");
    for &c in &forest.nodes[node].children {
        render_subtree(events, forest, c, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::EntitlementMarket;
    use crate::slice::SliceGrid;
    use crate::storm::{generate_storm, StormConfig};
    use entitlement_approval::ApprovalConfig;
    use entitlement_core::{Quarter, QosBucket};
    use entitlement_obs::{Clock, Obs};
    use entitlement_topology::BackboneSpec;

    fn storm_trace(requests: usize) -> Vec<TraceEvent> {
        let topo = BackboneSpec::small(7).build();
        let grid = SliceGrid::quarterly(Quarter(0), 30);
        let config = ApprovalConfig {
            max_cuts: 1,
            ..Default::default()
        };
        let mut market = EntitlementMarket::new(topo, grid, config);
        let buckets = QosBucket::approval_order();
        let obs = Obs::new(Clock::counting(1));
        market.warm(&buckets, &obs);
        let sc = StormConfig {
            requests,
            max_ask_gbps: 2000.0, // big asks force partial/denied outcomes
            ..Default::default()
        };
        let reqs = generate_storm(&market, &buckets, &sc);
        for req in &reqs {
            market.admit_obs(req, &obs);
        }
        obs.trace.events()
    }

    #[test]
    fn explains_a_denied_admit_with_binding_scenario_and_pair() {
        let events = storm_trace(300);
        let denied = events
            .iter()
            .find(|e| {
                e.span == "market" && e.phase == "admit" && e.label("outcome") == Some("denied")
            })
            .expect("storm with huge asks must deny something");
        let ordinal: u64 = denied.label("request").unwrap().parse().unwrap();
        let text = explain_request(&events, ordinal).unwrap();
        assert!(text.contains(&format!("request #{ordinal}:")), "{text}");
        assert!(text.contains("decision: denied"), "{text}");
        assert!(text.contains("bound by scenario `"), "{text}");
        let pair = format!(
            "{}->{}",
            denied.label("src").unwrap(),
            denied.label("dst").unwrap()
        );
        assert!(text.contains(&pair), "names the DC pair: {text}");
        assert!(text.contains("causal trace:"), "{text}");
        let state = denied.label("state").expect("every v3 admit names its slot state");
        assert!(
            ["fresh", "cold", "stale", "exhausted"].contains(&state),
            "{state}"
        );
        assert!(
            text.contains(&format!("(index epoch {}, slot {state})\n", label(denied, "epoch"))),
            "the decision line names the slot state: {text}"
        );
        assert!(!text.contains("market/index_probe"), "{text}");
        assert!(text.contains("critical path: market/admit"), "{text}");
    }

    #[test]
    fn a_full_grant_is_explained_without_provenance() {
        let events = storm_trace(300);
        let granted = events
            .iter()
            .find(|e| {
                e.span == "market" && e.phase == "admit" && e.label("outcome") == Some("granted")
            })
            .expect("a storm grants something");
        let ordinal: u64 = granted.label("request").unwrap().parse().unwrap();
        let text = explain_request(&events, ordinal).unwrap();
        assert!(text.contains("decision: granted"), "{text}");
        assert!(text.contains(", slot fresh)\n"), "{text}");
        assert!(text.contains("verdict: ask fit within"), "{text}");
        assert!(!text.contains("physical headroom"), "{text}");
    }

    #[test]
    fn a_rejected_ask_is_explained_by_the_ask() {
        let topo = BackboneSpec::small(7).build();
        let grid = SliceGrid::quarterly(Quarter(0), 30);
        let mut market = EntitlementMarket::new(topo, grid, ApprovalConfig::default());
        let buckets = QosBucket::approval_order();
        let storm = StormConfig {
            requests: 1,
            ..Default::default()
        };
        let mut req = generate_storm(&market, &buckets, &storm)[0];
        req.slice = crate::slice::SliceId(grid.slice_count());
        let obs = Obs::new(Clock::counting(1));
        market.admit_obs(&req, &obs);
        let text = explain_request(&obs.trace.events(), 0).unwrap();
        assert!(
            text.contains("decision: denied 0 Gbps via index path (index epoch 0, slot rejected)\n"),
            "{text}"
        );
        assert!(text.contains("refused for its slice"), "{text}");
        assert!(!text.contains("physical headroom"), "nothing was looked up: {text}");
    }

    /// The fixture's storm: 12 asks (seed 11, asks up to 2 000 Gbps,
    /// all eight buckets) on `BackboneSpec::small(7)` with single cuts,
    /// warmed untraced, then the first ask's slot asked for everything,
    /// the first ask again (a sweep) and an ask for a slice past the
    /// grid (rejected), all traced under a counting clock.
    fn fixture_trace() -> String {
        use crate::market::AdmitRequest;
        use crate::slice::SliceId;
        use entitlement_core::Rate;
        let grid = SliceGrid::quarterly(Quarter(0), 30);
        let config = ApprovalConfig {
            max_cuts: 1,
            ..Default::default()
        };
        let mut market = EntitlementMarket::new(BackboneSpec::small(7).build(), grid, config);
        let buckets = QosBucket::approval_order();
        market.warm(&buckets, &Obs::disabled());
        let sc = StormConfig {
            requests: 12,
            seed: 11,
            max_ask_gbps: 2000.0,
            ..Default::default()
        };
        let mut reqs = generate_storm(&market, &buckets, &sc);
        let first = reqs[0];
        reqs.push(AdmitRequest {
            ask: Rate::gbps(1e9),
            ..first
        });
        reqs.push(first);
        reqs.push(AdmitRequest {
            slice: SliceId(grid.slice_count()),
            ..first
        });
        let obs = Obs::new(Clock::counting(1));
        for req in &reqs {
            market.admit_obs(req, &obs);
        }
        obs.trace.to_jsonl()
    }

    /// A v5 recording explains byte for byte as it did when it was
    /// made: every denial, then every request by ordinal. The storm
    /// still records those bytes.
    #[test]
    fn a_v5_trace_explains_as_it_always_did() {
        let jsonl = include_str!("../tests/fixtures/explain_v5.jsonl");
        assert_eq!(fixture_trace(), jsonl, "the fixture is the storm's recording");
        let events = entitlement_obs::parse_trace(jsonl).expect("the fixture parses");
        let mut text = explain_denied(&events).unwrap();
        for request in 0..admit_events(&events).unwrap().len() as u64 {
            text.push('\n');
            text.push_str(&explain_request(&events, request).unwrap());
        }
        assert_eq!(text, include_str!("../tests/fixtures/explain_v5.txt"));
    }

    /// A trace-schema v4 admit (rates in Gbps) is refused, naming the
    /// admit and the label it lacks.
    #[test]
    fn a_v4_trace_is_refused() {
        let v4 = fixture_trace().replace("_bps\"", "_gbps\"");
        let events = entitlement_obs::parse_trace(&v4).expect("v4 parses");
        let want = "market/admit event span_id 1: label `ask_bps` is missing";
        assert_eq!(explain_denied(&events).unwrap_err(), want);
        assert_eq!(explain_request(&events, 0).unwrap_err(), want);
    }

    #[test]
    fn explain_is_deterministic_per_seed() {
        let a = storm_trace(120);
        let b = storm_trace(120);
        assert_eq!(
            explain_denied(&a).unwrap(),
            explain_denied(&b).unwrap(),
            "same seed, same explanations"
        );
    }

    #[test]
    fn unknown_ordinal_is_an_error() {
        let events = storm_trace(10);
        let err = explain_request(&events, 999_999).unwrap_err();
        assert!(err.contains("no market/admit span"), "{err}");
        assert!(explain_request(&[], 0).is_err());
    }

    #[test]
    fn denied_listing_counts_match() {
        let events = storm_trace(200);
        let text = explain_denied(&events).unwrap();
        let denied = events
            .iter()
            .filter(|e| {
                e.span == "market" && e.phase == "admit" && e.label("outcome") == Some("denied")
            })
            .count();
        assert!(
            text.starts_with(&format!("200 admits in trace, {denied} denied")),
            "{text}"
        );
        assert_eq!(text.matches("request #").count(), denied, "{text}");
    }
}
