//! The observation wire codec, one property per observation type:
//! what `observe*` (for an admission, the market) writes into a trace,
//! `decode`/`fold_trace` reads back as the same observation — through
//! the JSONL wire, escapes and all — and a trace with any one required
//! label deleted or garbled is reported by every `fold_trace` that
//! reads the event, never folded under a default.

use network_entitlement::approval::ApprovalConfig;
use network_entitlement::core::{Code, QosBucket, Quarter, Rate};
use network_entitlement::market::{
    generate_storm, AdmitRequest, EntitlementMarket, SliceGrid, StormConfig,
};
use network_entitlement::obs::{parse_trace, BadLabel, Clock, Obs, TraceEvent};
use network_entitlement::slo::{CycleObs, IntervalObs, SloEvaluator};
use network_entitlement::topology::BackboneSpec;
use network_entitlement::watch::{AdmitObs, WatchEvaluator};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Any finite `f64` (the writer renders a non-finite one as `0`, so it
/// has no wire form of its own).
fn finite() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| Some(f64::from_bits(bits)).filter(|v| v.is_finite()).unwrap_or(0.0))
}

/// Printable ASCII, `"` and `\` included.
fn printable() -> impl Strategy<Value = String> {
    proptest::collection::vec(0x20u8..0x7f, 0..12)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

/// The events `emit` records, after a round trip through JSONL.
fn wire(emit: impl FnOnce(&Obs)) -> Vec<TraceEvent> {
    let obs = Obs::new(Clock::manual(0));
    emit(&obs);
    parse_trace(&obs.trace.to_jsonl()).expect("own trace parses")
}

/// Break one required label of `event`, chosen by `pick` from `keys`
/// (`(label, is free text)`): delete it, or — every other time, when
/// any text is not a valid value for it — overwrite it with `oops`.
/// Returns the broken label's name.
fn corrupt<'k>(event: &mut TraceEvent, keys: &[(&'k str, bool)], pick: usize) -> &'k str {
    let (key, free_text) = keys[pick % keys.len()];
    let at = event.labels.iter().position(|(k, _)| k == key).expect("label was written");
    if free_text || (pick / keys.len()).is_multiple_of(2) {
        event.labels.remove(at);
    } else {
        event.labels[at].1 = "oops".to_string();
    }
    key
}

/// The one malformed event a fold reported must name `event` and `key`.
fn assert_reported(malformed: &[BadLabel], event: &TraceEvent, key: &str) {
    assert_eq!(malformed.len(), 1, "{malformed:?}");
    assert_eq!((malformed[0].span_id, malformed[0].key.as_str()), (event.span_id, key));
    assert!(malformed[0].to_string().contains(&format!("span_id {}", event.span_id)));
}

// (label, is free text) per event, every one required.
const INTERVAL: [(&str, bool); 8] = [
    ("entity", true),
    ("qos", true),
    ("target", false),
    ("demand_bps", false),
    ("delivered_bps", false),
    ("approved_bps", false),
    ("measurable", false),
    ("good", false),
];
const CYCLE: [(&str, bool); 11] = [
    ("entity", true),
    ("qos", true),
    ("target", false),
    ("good", false),
    ("demand_bps", false),
    ("delivered_bps", false),
    ("approved_bps", false),
    ("marked_fraction", false),
    ("conform_fraction", false),
    ("staleness_ms", false),
    ("measurable", false),
];
const ADMIT: [(&str, bool); 6] = [
    ("request", false),
    ("ask_bps", false),
    ("granted_bps", false),
    ("residual_before_bps", false),
    ("residual_after_bps", false),
    ("path", true),
];

/// A warm market on the small backbone with single cuts, built once;
/// every case admits into a clone of it.
fn warm_market() -> &'static EntitlementMarket {
    static MARKET: OnceLock<EntitlementMarket> = OnceLock::new();
    MARKET.get_or_init(|| {
        let config = ApprovalConfig {
            max_cuts: 1,
            ..Default::default()
        };
        let grid = SliceGrid::quarterly(Quarter(0), 30);
        let mut market = EntitlementMarket::new(BackboneSpec::small(7).build(), grid, config);
        market.warm(&QosBucket::approval_order(), &Obs::disabled());
        market
    })
}

/// Two slots of a seeded storm with headroom to grant from.
fn two_slots() -> [AdmitRequest; 2] {
    let storm = StormConfig {
        requests: 2,
        seed: 11,
        ..Default::default()
    };
    let requests = generate_storm(warm_market(), &QosBucket::approval_order(), &storm);
    [requests[0], requests[1]]
}

/// Asks up to 2 Tbps, about a slot's headroom, at any bits; now and
/// then a non-finite or negative one.
fn ask_bps() -> impl Strategy<Value = f64> {
    (0u8..16, 0.0..2e12f64).prop_map(|(kind, bps)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -bps,
        _ => bps,
    })
}

/// Each field of `a` and `b`, floats compared by their bits.
fn same_bits(a: &AdmitObs, b: &AdmitObs) -> bool {
    let rates = |o: &AdmitObs| {
        [o.ask_bps, o.granted_bps, o.residual_before_bps, o.residual_after_bps, o.admit_ms]
            .map(f64::to_bits)
    };
    (a.request, &a.path, rates(a)) == (b.request, &b.path, rates(b))
}

/// Admit `requests` traced into a fresh clone of the warm market,
/// folding each into a live watchdog as `run_storm_with` does. Then:
/// every `market`/`admit` span decodes to the observation built from
/// its decision, bit for bit; the offline fold's report is the live
/// one; a wrong `residual_after_bps` on one admit (picked by `pick`)
/// fires W0103 offline at that admit; and a missing or garbled
/// required label is reported, never folded. Returns the outcomes,
/// `rejected` for an ask that was refused.
fn check_admits(requests: &[AdmitRequest], pick: usize) -> Vec<&'static str> {
    let mut market = warm_market().clone();
    let obs = Obs::new(Clock::counting(1));
    let mut live = WatchEvaluator::default();
    let mut built = Vec::new();
    let mut outcomes = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        let d = market.admit_obs(req, &obs);
        let o = AdmitObs {
            request: i as u64,
            ask_bps: req.ask.as_bps(),
            granted_bps: d.granted.as_bps(),
            residual_before_bps: d.residual_before.as_bps(),
            residual_after_bps: d.residual_after.as_bps(),
            admit_ms: market.last_admit_ms(),
            path: d.path.as_str().to_string(),
        };
        live.observe_admit(&obs, &o);
        built.push(o);
        let rejected = !(0.0..f64::INFINITY).contains(&req.ask.as_bps());
        outcomes.push(if rejected { "rejected" } else { d.outcome.as_str() });
    }
    let events = parse_trace(&obs.trace.to_jsonl()).expect("own trace parses");
    let admits: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].span == "market" && events[i].phase == "admit")
        .collect();
    assert_eq!(admits.len(), requests.len(), "one event per admission");
    for (&at, o) in admits.iter().zip(&built) {
        let decoded = AdmitObs::decode(&events[at]).expect("the market's admit decodes");
        assert!(same_bits(&decoded, o), "{decoded:?} != {o:?}");
    }
    let mut offline = WatchEvaluator::default();
    assert_eq!(offline.fold_trace(&events), []);
    assert_eq!(offline.report().render_json(), live.report().render_json());

    let victim = admits[pick % admits.len()];
    let mut wrong = events.clone();
    let o = AdmitObs::decode(&wrong[victim]).unwrap();
    let off = f64::from_bits(o.residual_after_bps.to_bits() + 1);
    let after = wrong[victim].labels.iter_mut().find(|(k, _)| k == "residual_after_bps");
    after.unwrap().1 = off.to_string();
    let mut offline = WatchEvaluator::default();
    assert_eq!(offline.fold_trace(&wrong), []);
    let fired = offline.report().violations;
    let cycle = pick % admits.len() + 1;
    assert!(
        fired.iter().any(|v| v.code == Code::W0103 && v.cycle == cycle as u64),
        "{fired:?}"
    );

    let mut broken = events;
    let key = corrupt(&mut broken[victim], &ADMIT, pick);
    let mut offline = WatchEvaluator::default();
    assert_reported(&offline.fold_trace(&broken), &broken[victim], key);
    assert_eq!(offline.report().admits, requests.len() as u64 - 1, "a malformed admit was folded");
    outcomes
}

/// Every kind of decision through [`check_admits`]: a grant whose Gbps
/// text would not give its bps back, the slot asked for everything (a
/// partial), the first ask again (denied, on the sweep path), and
/// `NaN`, `inf` and negative asks (rejected).
#[test]
fn every_kind_of_admit_decodes_bit_for_bit() {
    let [slot, _] = two_slots();
    // An ask whose Gbps label would not give its bps back.
    let inexact = 127_160_492.773;
    assert_ne!(inexact / 1e9 * 1e9, inexact);
    let asks = [inexact, 1e18, inexact, f64::NAN, f64::INFINITY, -1.0];
    let requests: Vec<AdmitRequest> =
        asks.iter().map(|&bps| AdmitRequest { ask: Rate::bps(bps), ..slot }).collect();
    for pick in 0..2 * requests.len() {
        let outcomes = check_admits(&requests, pick);
        assert_eq!(
            outcomes,
            ["granted", "partial", "denied", "rejected", "rejected", "rejected"]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interval_obs_round_trips_and_never_defaults(
        names in (printable(), printable()),
        rates in (finite(), finite(), finite(), finite()),
        measurable in any::<bool>(),
        pick in any::<usize>(),
    ) {
        let o = IntervalObs {
            entity: names.0,
            qos: names.1,
            target: rates.0,
            demand_bps: rates.1,
            delivered_bps: rates.2,
            approved_bps: rates.3,
            measurable,
        };
        let mut events = wire(|obs| SloEvaluator::default().observe(obs, &o));
        events.truncate(1); // an alert transition may follow the interval
        prop_assert_eq!(IntervalObs::decode(&events[0]), Ok(o));

        let key = corrupt(&mut events[0], &INTERVAL, pick);
        let mut offline = SloEvaluator::default();
        assert_reported(&offline.fold_trace(&events), &events[0], key);
        prop_assert!(offline.report().entities.is_empty(), "a malformed interval was folded");
    }

    /// The `slo/cycle` event is read by both folds, so each reports a
    /// broken label — also one it does not use.
    #[test]
    fn cycle_obs_round_trips_and_never_defaults(
        names in (printable(), printable()),
        rates in (finite(), finite(), finite(), finite()),
        slis in (finite(), finite(), finite(), any::<bool>()),
        pick in any::<usize>(),
    ) {
        let o = CycleObs {
            entity: names.0,
            qos: names.1,
            demand_bps: rates.0,
            delivered_bps: rates.1,
            approved_bps: rates.2,
            marked_fraction: slis.0,
            conform_fraction: slis.1,
            staleness_ms: slis.2,
            measurable: slis.3,
        };
        let target = rates.3;
        let mut events = wire(|obs| SloEvaluator::default().observe_cycle(obs, target, &o));
        events.truncate(1); // an alert transition may follow the tick
        prop_assert_eq!(CycleObs::decode(&events[0]), Ok((o, target)));

        let key = corrupt(&mut events[0], &CYCLE, pick);
        let mut slo = SloEvaluator::default();
        assert_reported(&slo.fold_trace(&events), &events[0], key);
        prop_assert!(slo.report().entities.is_empty(), "a malformed tick was folded");
        let mut watch = WatchEvaluator::default();
        assert_reported(&watch.fold_trace(&events), &events[0], key);
        prop_assert_eq!(watch.report().cycles, 0, "a malformed tick was folded");
    }

    /// The `market/admit` span of every random ask, finite or not, on
    /// two slots (grants, partials and denials on both serving paths,
    /// and rejections) round-trips and never defaults: [`check_admits`].
    #[test]
    fn admit_obs_round_trips_and_never_defaults(
        asks in proptest::collection::vec((any::<bool>(), ask_bps()), 1..8),
        pick in any::<usize>(),
    ) {
        let slots = two_slots();
        let requests: Vec<AdmitRequest> = asks
            .iter()
            .map(|&(second, bps)| AdmitRequest { ask: Rate::bps(bps), ..slots[usize::from(second)] })
            .collect();
        check_admits(&requests, pick);
    }
    /// The shard check has no public observation struct; its decode is
    /// visible through the fold. W0102 bit-compares the total with the
    /// re-summed partials and quotes both, so an identical report —
    /// silent when the total is the partials' own sum, the same detail
    /// text otherwise — means they came back bit for bit.
    #[test]
    fn shard_check_round_trips_and_never_defaults(
        names in (printable(), printable()),
        total in finite(),
        shards in proptest::collection::vec(finite(), 0..9),
        pick in any::<usize>(),
    ) {
        let total = if pick.is_multiple_of(2) { shards.iter().sum() } else { total };
        let mut live = WatchEvaluator::default();
        let mut events =
            wire(|obs| live.observe_shards(obs, &names.0, &names.1, total, &shards));
        events.truncate(1); // a W0102 violation may follow the check
        let mut offline = WatchEvaluator::default();
        prop_assert_eq!(offline.fold_trace(&events), []);
        prop_assert_eq!(offline.report(), live.report());

        let partials: Vec<String> = (0..shards.len()).map(|s| format!("s{s}")).collect();
        let mut keys = vec![("entity", true), ("qos", true), ("total_bps", false), ("shards", false)];
        keys.extend(partials.iter().map(|k| (k.as_str(), false)));
        let key = corrupt(&mut events[0], &keys, pick);
        let mut offline = WatchEvaluator::default();
        assert_reported(&offline.fold_trace(&events), &events[0], key);
        prop_assert_eq!(offline.report().shard_checks, 0, "a malformed shard check was folded");
    }
}
