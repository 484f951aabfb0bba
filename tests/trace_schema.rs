//! Golden test for the telemetry wire formats: the JSONL trace schema
//! and the Prometheus text rendering produced by a seeded run. These
//! are the only formats external tooling consumes, so their shape is
//! pinned here — a key rename or reorder must show up as a test diff,
//! not as a silently broken dashboard.

use std::collections::BTreeSet;

use network_entitlement::kvstore::key_hash;
use network_entitlement::obs::{
    fold_metrics, key, parse_trace, validate_prometheus, Clock, Obs, TraceEvent,
};
use network_entitlement::prelude::{
    run_drill_with, DrillConfig, SloEvaluator, SloReport, WatchEvaluator, WatchReport,
};
use network_entitlement::telemetry::traced_approval_preamble;

/// The metrics file of a run: the fold of its trace.
fn metrics(obs: &Obs) -> String {
    fold_metrics(&obs.trace.events()).expect("the run's events fold")
}

/// A short seeded run covering every traced span family: the
/// approval preamble plus a 20-minute drill.
fn seeded_run(seed: u64) -> Obs {
    seeded_drill(seed).0
}

/// [`seeded_run`] with the two health reports the drill folded.
fn seeded_drill(seed: u64) -> (Obs, SloReport, WatchReport) {
    let obs = Obs::new(Clock::counting(1));
    traced_approval_preamble(seed, &obs);
    let (mut slo, mut watch) = (SloEvaluator::default(), WatchEvaluator::default());
    run_drill_with(
        &DrillConfig {
            hosts: 200,
            duration_min: 20.0,
            seed,
            ..Default::default()
        },
        &obs,
        &mut slo,
        &mut watch,
    );
    (obs, slo.report(), watch.report())
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
    assert_eq!(metrics(&a), metrics(&b));
}

#[test]
fn rendered_metrics_validate_as_prometheus_text() {
    let text = metrics(&seeded_run(0xE17));
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
fn seeded_storm(seed: u64) -> (Obs, WatchReport) {
    use network_entitlement::approval::ApprovalConfig;
    use network_entitlement::core::{QosBucket, Quarter};
    use network_entitlement::market::{
        generate_storm, run_storm_with, EntitlementMarket, SliceGrid, StormConfig,
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
    let mut watch = WatchEvaluator::default();
    run_storm_with(&mut market, &requests, &obs, &mut watch, |_| Vec::new(), |_, _| {});
    (obs, watch.report())
}

/// A small sharded fleet run with shard 2 dark for cycles 30..=33,
/// past the detectors' warm-up so W0105 fires: held then missing
/// partials, fail-static cycles, the `shard`/`fold`
/// fan-out and the W0102 shard reconciliation — the events the flat
/// drill never emits.
fn seeded_fleet(seed: u64) -> (Obs, SloReport, WatchReport) {
    use network_entitlement::enforcement::{run_fleet_engine_with, FleetConfig};
    use network_entitlement::prelude::{Fault, FaultKind, FaultPlan, Rate, TimeWindow};

    let obs = Obs::new(Clock::counting(1));
    let config = FleetConfig {
        hosts: 200,
        shards: 4,
        entitled: Rate::gbps(1000.0),
        cycles: 40,
        seed,
        faults: Some(FaultPlan {
            seed: 1,
            faults: vec![Fault {
                window: TimeWindow::new(30_000, 33_001),
                kind: FaultKind::ShardOutage { shards: vec![2] },
            }],
        }),
        ..FleetConfig::default()
    };
    let (mut slo, mut watch) = (SloEvaluator::default(), WatchEvaluator::default());
    run_fleet_engine_with(&config, &obs, &mut slo, &mut watch).expect("a valid fleet shape");
    (obs, slo.report(), watch.report())
}

/// The traced admission path end to end: 2 000 index-path admits with
/// their float labels, a slot exhausted and asked again (the sweep
/// path, with its `risk` spans), the eight asks `tests/alloc_count.rs`
/// has rejected (negative, NaN, ∞, slices and regions out of range —
/// `ask_bps` says `NaN`/`inf` there), and one label whose value needs
/// every kind of JSON escape.
fn seeded_admits() -> Obs {
    use network_entitlement::approval::ApprovalConfig;
    use network_entitlement::core::{QosBucket, Quarter, Rate, RegionId};
    use network_entitlement::market::{
        generate_storm, AdmitPath, AdmitRequest, EntitlementMarket, SliceGrid, SliceId,
        StormConfig,
    };
    use network_entitlement::topology::BackboneSpec;

    let config = ApprovalConfig {
        max_cuts: 1,
        ..Default::default()
    };
    let grid = SliceGrid::quarterly(Quarter(0), 30);
    let mut market = EntitlementMarket::new(BackboneSpec::small(7).build(), grid, config);
    let buckets = QosBucket::approval_order();
    market.warm(&buckets, &Obs::disabled());
    // C1/C2 headroom is zero under single cuts; ask where there is some.
    let storm = StormConfig {
        requests: 2_000,
        max_ask_gbps: 0.002,
        ..Default::default()
    };
    let requests = generate_storm(&market, &buckets[4..], &storm);
    let obs = Obs::new(Clock::counting(1));
    for req in &requests {
        assert_eq!(market.admit_obs(req, &obs).path, AdmitPath::Index);
    }
    let good = requests[0];
    let all = AdmitRequest {
        ask: Rate::gbps(1e9),
        ..good
    };
    assert_eq!(market.admit_obs(&all, &obs).path, AdmitPath::Index);
    assert_eq!(market.admit_obs(&good, &obs).path, AdmitPath::Sweep);
    let nowhere = RegionId(market.topology().region_count() as u16);
    let bad = [
        AdmitRequest { ask: Rate::gbps(-100.0), ..good },
        AdmitRequest { ask: Rate::bps(f64::NAN), ..good },
        AdmitRequest { ask: Rate::bps(f64::INFINITY), ..good },
        AdmitRequest { slice: SliceId(grid.slice_count()), ..good },
        AdmitRequest { slice: SliceId(9999), ..good },
        AdmitRequest { slice: SliceId(u32::MAX), ..good },
        AdmitRequest { src: nowhere, ..good },
        AdmitRequest { dst: RegionId(u16::MAX), ..good },
    ];
    for req in &bad {
        market.admit_obs(req, &obs);
    }
    obs.point("pin", "escapes")
        .label(key!("note"), "quote \" backslash \\ bell \u{7} newline \n")
        .finish();
    obs
}

/// Trace-schema v5 on the storm's oversized asks and on the admits'
/// sweep and rejected asks: an admission is one event, its
/// `market`/`admit` span (no `index_probe` child, no `watch/admit`
/// copy); it names the slot state its probe found, writes its rates in
/// bps, and carries the binding scenario and the physical headroom
/// exactly when its verdict reads them — when the ask was looked up
/// and not granted in full.
#[test]
fn an_admit_is_one_event_with_its_slot_state_and_provenance_off_a_full_grant() {
    const PROVENANCE: [&str; 4] = ["binding_links", "binding_p", "binding_scenario", "headroom_bps"];
    let mut seen = BTreeSet::new();
    let (storm, storm_watch) = seeded_storm(4960);
    for (obs, admits) in [(storm, storm_watch.admits), (seeded_admits(), 2_010)] {
        let events = obs.trace.events();
        assert!(
            !events.iter().any(|e| e.phase == "index_probe" || e.span != "market" && e.phase == "admit"),
            "an admission writes no event but its own span"
        );
        let written = events.iter().filter(|e| e.span == "market" && e.phase == "admit").count();
        assert_eq!(written as u64, admits, "one market/admit per admission");
        for e in events.iter().filter(|e| e.span == "market" && e.phase == "admit") {
            let state = e.label("state").expect("every admit names its slot state");
            let outcome = e.label("outcome").expect("every admit has an outcome");
            let rejected = e.label("rejected").is_some();
            assert_eq!(state == "rejected", rejected, "{e:?}");
            let swept = ["cold", "stale", "exhausted"].contains(&state);
            assert!(swept || ["fresh", "rejected"].contains(&state), "{e:?}");
            assert_eq!(e.label("path") == Some("sweep"), swept, "{e:?}");
            let provenance = outcome != "granted" && !rejected;
            for key in PROVENANCE {
                assert_eq!(e.label(key).is_some(), provenance, "{key}: {e:?}");
            }
            seen.insert((outcome.to_string(), state.to_string()));
        }
    }
    // Every branch above was taken.
    for outcome in ["granted", "partial", "denied"] {
        assert!(seen.iter().any(|(o, _)| o == outcome), "no {outcome}: {seen:?}");
    }
    for state in ["fresh", "exhausted", "rejected"] {
        assert!(seen.iter().any(|(_, s)| s == state), "no {state}: {seen:?}");
    }
}

/// Trace-schema v4 on the seeded drill and fleet: a metered tick is
/// written once. Each `agent/cycle` span (a bare timing span, no
/// labels) pairs with exactly one `slo/cycle` event, the watchdog
/// folded one tick per pair, and no `watch/cycle` event exists.
#[test]
fn a_metered_tick_is_one_slo_cycle_event() {
    let (drill, _, drill_watch) = seeded_drill(0xE17);
    let (fleet, _, fleet_watch) = seeded_fleet(0xF1EE7);
    for (name, obs, folded) in [("drill", drill, drill_watch), ("fleet", fleet, fleet_watch)] {
        let events = obs.trace.events();
        let is = |e: &TraceEvent, span: &str, phase: &str| e.span == span && e.phase == phase;
        assert!(!events.iter().any(|e| is(e, "watch", "cycle")), "{name}: a watch/cycle event");
        let ticks: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| is(e, "agent", "cycle") || is(e, "slo", "cycle"))
            .collect();
        assert!(!ticks.is_empty() && ticks.len().is_multiple_of(2), "{name}: {} events", ticks.len());
        for pair in ticks.chunks(2) {
            let agent = pair.iter().filter(|e| is(e, "agent", "cycle")).count();
            assert_eq!(agent, 1, "{name}: one slo/cycle per agent/cycle: {pair:?}");
        }
        for e in ticks.iter().filter(|e| is(e, "agent", "cycle")) {
            assert!(e.labels.is_empty(), "{name}: agent/cycle labels {:?}", e.labels);
        }
        assert_eq!(folded.cycles as usize, ticks.len() / 2, "{name}: ticks the watchdog folded");
    }
}

/// Cross-commit byte pin. Every other determinism gate compares a run
/// with itself, so a change that moves both sides the same way — a
/// label renamed, a float formatted differently, a clock read added
/// (which shifts every later `ts_ms` under the counting clock) — passes
/// them all. Each constant was computed on the commit *before* the
/// rewrite it guards (named next to it); a deliberate format change
/// regenerates them in the same PR that makes it, with `obs diff`
/// naming what moved.
#[test]
fn telemetry_bytes_match_the_pinned_digests() {
    let (storm, storm_watch) = seeded_storm(4960);
    let (drill, drill_slo, drill_watch) = seeded_drill(0xE17);
    let (fleet, fleet_slo, fleet_watch) = seeded_fleet(0xF1EE7);
    let digest = |text: &str| (text.len(), key_hash(text));
    let runs = [
        ("storm", storm, STORM_TRACE_PIN, STORM_METRICS_PIN),
        ("drill", drill, DRILL_TRACE_PIN, DRILL_METRICS_PIN),
        ("fleet", fleet, FLEET_TRACE_PIN, FLEET_METRICS_PIN),
    ];
    for (name, obs, trace_pin, metrics_pin) in runs {
        assert_eq!(digest(&obs.trace.to_jsonl()), trace_pin, "{name}: trace bytes moved");
        assert_eq!(digest(&metrics(&obs)), metrics_pin, "{name}: metrics bytes moved");
    }
    // The health reports the loops fold while they run. The storm has
    // no SLO fold of its own (`entitlectl market` feeds one from its
    // per-admit hook).
    let reports = [
        ("storm watch", storm_watch.render_json(), STORM_WATCH_PIN),
        ("drill slo", drill_slo.render_json(), DRILL_SLO_PIN),
        ("drill watch", drill_watch.render_json(), DRILL_WATCH_PIN),
        ("fleet slo", fleet_slo.render_json(), FLEET_SLO_PIN),
        ("fleet watch", fleet_watch.render_json(), FLEET_WATCH_PIN),
    ];
    for (name, json, pin) in reports {
        assert_eq!(digest(&json), pin, "{name}: report bytes moved");
    }
    let admits = seeded_admits().trace.to_jsonl();
    for part in [
        r#""path":"sweep""#,
        r#""ask_bps":"NaN""#,
        r#""ask_bps":"inf""#,
        r#""ask_bps":"-100000000000""#,
        r#""rejected":"region""#,
        r#""note":"quote \" backslash \\ bell \u0007 newline \n""#,
    ] {
        assert!(admits.contains(part), "admits: no {part} in the trace");
    }
    assert_eq!(digest(&admits), ADMITS_TRACE_PIN, "admits: trace bytes moved");
}

/// Every pinned trace reads back through `parse_trace` as exactly the
/// events the live sink holds, and each line it read re-encodes to the
/// same bytes: the file and the in-memory view cannot differ.
#[test]
fn pinned_traces_read_back_as_the_sink_holds_them() {
    let runs = [
        ("storm", seeded_storm(4960).0),
        ("drill", seeded_drill(0xE17).0),
        ("fleet", seeded_fleet(0xF1EE7).0),
        ("admits", seeded_admits()),
    ];
    for (name, obs) in runs {
        let jsonl = obs.trace.to_jsonl();
        let events = parse_trace(&jsonl).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(events, obs.trace.events(), "{name}: file and sink disagree");
        let encoded: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        assert!(encoded == jsonl, "{name}: a line re-encodes to other bytes");
    }
}

// (byte length, FNV-1a-64 — `kvstore::key_hash`). Regenerated with
// trace-schema v4: a metered tick is one `slo/cycle` event (the
// `slo/interval` labels, `good` included, plus `conform_fraction`,
// `marked_fraction` and `staleness_ms`), `watch/cycle` is gone, and
// `agent/cycle` carries no labels. One clock read fewer a tick moves
// every later `ts_ms` under the counting clock. The v3 values were
// (54_358, 0x1dfa_a583_3d27_c24a) and (180_173, 0xeb34_b31c_a346_52fd).
// Regenerated again when the metrics file became the fold of the trace:
// the approval preamble no longer reads the clock twice more per hose
// around its span (the drill's `approval/round` lasts 2 ms less and
// every later `ts_ms` is 1–2 lower), and the fleet ends on one
// `fleet`/`run` event naming its hosts and shards (136 bytes). The v4
// values were (42_772, 0x04cb_12d0_b57d_a3f2) and
// (168_190, 0xcdee_60c5_6c96_ab85).
// The fleet's again when its per-shard SLIs went: 160 `slo/interval`
// events and the two `slo/alert_fire` events of shard entities are
// gone, and with their clock reads every later `ts_ms` and each
// `agent/cycle`'s `dur_ms` under the counting clock. It was
// (168_326, 0x34c9_f975_5d84_af49).
const DRILL_TRACE_PIN: (usize, u64) = (42_771, 0x31bd_fb63_429e_1c04);
const FLEET_TRACE_PIN: (usize, u64) = (119_958, 0x8a6d_38b9_4826_5b23);
// Regenerated when the metrics file became the fold of the trace. Only
// these families moved:
// - `entitlement_risk_sweep_workers` (storm, drill) is gone: the trace
//   does not carry a sweep's worker count (158 bytes);
// - `entitlement_agent_staleness_ms` is read off `slo/cycle`: the drill
//   counts its 39 metered ticks where it counted all 40, and the fleet,
//   whose ticks are `slo/cycle` events too, gains the family;
// - `entitlement_approval_hose_ms` (drill) is the `hose_approval` span's
//   `dur_ms`, 77 ms, where it was a clock delta around the span, 79.
// The earlier values were (12_473, 0x9c1e_7d37_be2a_f7d5),
// (17_721, 0xe897_9f65_f2cf_9702) and (6_513, 0x05a8_f45c_6fa2_2a95).
const STORM_METRICS_PIN: (usize, u64) = (12_315, 0xa89d_43af_dc9b_93e1);
const DRILL_METRICS_PIN: (usize, u64) = (17_563, 0xae09_931b_225d_7594);
const FLEET_METRICS_PIN: (usize, u64) = (9_347, 0x019d_cbe7_9f69_770a);
const STORM_WATCH_PIN: (usize, u64) = (113, 0xd7e4_5851_34e0_7628);
const DRILL_SLO_PIN: (usize, u64) = (510, 0xddc1_591d_346d_74ee);
const DRILL_WATCH_PIN: (usize, u64) = (112, 0x5aca_3fd3_41c1_b4ee);
// The fleet's SLO report lost its four shard entities with the
// per-shard SLIs; it was (2_168, 0x274c_d7b5_08a2_7084).
const FLEET_SLO_PIN: (usize, u64) = (623, 0xc719_4cff_c3e0_59e7);
const FLEET_WATCH_PIN: (usize, u64) = (200, 0xe3eb_85b1_1c22_f8e1);
// Regenerated with trace-schema v5: an admission is one event, its
// `market`/`admit` span, with its rates in bps (`ask_bps`,
// `granted_bps`, `headroom_bps`, `residual_*_bps`); the `watch/admit`
// copy is gone. The admit's latency is the span's own two clock reads,
// so under the counting clock every later `ts_ms` moves, and each
// index-path sample of the storm's `entitlement_market_admit_ms` is 1
// where it was 3. The v4 values were (979_348, 0x6aaa_e658_cfbb_50ef),
// (12_469, 0xbe53_7116_e52e_6ac1) and (816_594, 0x4600_8611_2e7c_6773).
const STORM_TRACE_PIN: (usize, u64) = (866_567, 0x326e_da30_b3a0_7c06);
const ADMITS_TRACE_PIN: (usize, u64) = (806_154, 0xe16e_823d_ff5b_94df);
