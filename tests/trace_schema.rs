//! Golden test for the telemetry wire formats: the JSONL trace schema
//! and the Prometheus text rendering produced by a seeded run. These
//! are the only formats external tooling consumes, so their shape is
//! pinned here — a key rename or reorder must show up as a test diff,
//! not as a silently broken dashboard.

use std::collections::BTreeSet;

use network_entitlement::kvstore::key_hash;
use network_entitlement::obs::{parse_trace, validate_prometheus, Clock, Obs};
use network_entitlement::prelude::{run_drill_obs, DrillConfig};
use network_entitlement::telemetry::traced_approval_preamble;

/// A short seeded run covering every instrumented span family: the
/// approval preamble plus a 20-minute drill.
fn seeded_run(seed: u64) -> Obs {
    let obs = Obs::new(Clock::counting(1));
    traced_approval_preamble(seed, &obs);
    let _ = run_drill_obs(
        &DrillConfig {
            hosts: 200,
            duration_min: 20.0,
            seed,
            ..Default::default()
        },
        &obs,
    );
    obs
}

#[test]
fn trace_lines_use_the_pinned_key_order() {
    let obs = seeded_run(0xE17);
    let jsonl = obs.trace.to_jsonl();
    assert!(!jsonl.is_empty(), "seeded run produced no trace");
    for line in jsonl.lines() {
        // The schema is part of the contract: fixed keys, fixed order
        // (trace-schema v2 adds the three id keys after ts_ms).
        assert!(line.starts_with("{\"ts_ms\":"), "bad line start: {line}");
        let order = [
            "\"ts_ms\":",
            "\"trace_id\":",
            "\"span_id\":",
            "\"parent_id\":",
            "\"span\":",
            "\"phase\":",
            "\"labels\":",
            "\"dur_ms\":",
        ];
        let mut last = 0;
        for key in order {
            let at = line.find(key).unwrap_or_else(|| panic!("{key} missing in {line}"));
            assert!(at >= last, "{key} out of order in {line}");
            last = at;
        }
        assert!(line.ends_with('}'), "bad line end: {line}");
    }
}

#[test]
fn trace_round_trips_and_covers_all_span_families() {
    let obs = seeded_run(0xE17);
    let jsonl = obs.trace.to_jsonl();
    let events = parse_trace(&jsonl).expect("every emitted line parses");
    assert_eq!(events.len(), obs.trace.len());
    let spans: BTreeSet<&str> = events.iter().map(|e| e.span.as_str()).collect();
    for family in ["approval", "risk", "kv", "agent"] {
        assert!(spans.contains(family), "missing span family {family}: {spans:?}");
    }
    // Events are emitted when a span closes, so emission order is not
    // timestamp order — but every timestamp from the counting clock is
    // a small non-negative logical value and durations are non-negative.
    for e in &events {
        assert!(e.dur_ms >= 0.0, "negative duration in {}/{}", e.span, e.phase);
    }
}

#[test]
fn identical_seeds_produce_identical_telemetry() {
    let a = seeded_run(42);
    let b = seeded_run(42);
    assert_eq!(a.trace.to_jsonl(), b.trace.to_jsonl());
    assert_eq!(a.registry.render(), b.registry.render());
}

#[test]
fn rendered_metrics_validate_as_prometheus_text() {
    let obs = seeded_run(0xE17);
    let text = obs.registry.render();
    let samples = validate_prometheus(&text).expect("render is valid Prometheus text");
    assert!(samples > 0, "no samples rendered");
    for metric in [
        "entitlement_approval_hose_ms",
        "entitlement_risk_scenario_ms",
        "entitlement_kv_op_ms",
        "entitlement_agent_staleness_ms",
    ] {
        assert!(text.contains(metric), "missing {metric}");
    }
}

/// A small seeded admission storm with asks big enough to exhaust
/// slots: index and sweep paths, grants, partials and denials with
/// their provenance ledger, and the watchdog's per-admit events.
fn seeded_storm(seed: u64) -> Obs {
    use network_entitlement::approval::ApprovalConfig;
    use network_entitlement::core::{QosBucket, Quarter};
    use network_entitlement::market::{
        generate_storm, run_storm, EntitlementMarket, SliceGrid, StormConfig,
    };
    use network_entitlement::topology::BackboneSpec;

    let obs = Obs::new(Clock::counting(1));
    let config = ApprovalConfig {
        max_cuts: 1,
        ..Default::default()
    };
    let mut market = EntitlementMarket::new(
        BackboneSpec::small(seed).build(),
        SliceGrid::quarterly(Quarter(0), 30),
        config,
    );
    let buckets = QosBucket::approval_order();
    market.warm(&buckets, &obs);
    let storm = StormConfig {
        requests: 400,
        seed,
        max_ask_gbps: 2000.0,
        ..Default::default()
    };
    let requests = generate_storm(&market, &buckets, &storm);
    run_storm(&mut market, &requests, &obs);
    obs
}

/// Cross-commit byte pin. Every other determinism gate compares a run
/// with itself, so a change that moves both sides the same way — a
/// label renamed, a float formatted differently, a clock read added
/// (which shifts every later `ts_ms` under the counting clock) — passes
/// them all. These constants were computed on the commit *before* the
/// trace sink was rebuilt around arenas; a deliberate format change
/// regenerates them in the same PR that makes it, with `obs diff`
/// naming what moved.
#[test]
fn telemetry_bytes_match_the_pinned_digests() {
    let runs = [
        ("storm", seeded_storm(4960), STORM_TRACE_PIN, STORM_METRICS_PIN),
        ("drill", seeded_run(0xE17), DRILL_TRACE_PIN, DRILL_METRICS_PIN),
    ];
    for (name, obs, trace_pin, metrics_pin) in runs {
        let trace = obs.trace.to_jsonl();
        let metrics = obs.registry.render();
        assert_eq!(
            (trace.len(), key_hash(&trace)),
            trace_pin,
            "{name}: trace bytes moved"
        );
        assert_eq!(
            (metrics.len(), key_hash(&metrics)),
            metrics_pin,
            "{name}: metrics bytes moved"
        );
    }
}

// (byte length, FNV-1a-64 — `kvstore::key_hash`), computed on commit
// be042a1 (PR 15).
const STORM_TRACE_PIN: (usize, u64) = (1_037_808, 0xe86c_9e01_d3ad_1530);
const STORM_METRICS_PIN: (usize, u64) = (12_468, 0x7a66_2ca9_b182_ff78);
const DRILL_TRACE_PIN: (usize, u64) = (54_358, 0x1dfa_a583_3d27_c24a);
const DRILL_METRICS_PIN: (usize, u64) = (20_425, 0x041c_407d_858d_f8bd);
