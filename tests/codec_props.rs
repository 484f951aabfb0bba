//! The observation wire codec, one property per observation type:
//! what `observe*` writes into a trace, `decode`/`fold_trace` reads
//! back as the same observation — through the JSONL wire, escapes and
//! all — and a trace with any one required label deleted or garbled is
//! reported by every `fold_trace` that reads the event, never folded
//! under a default.

use network_entitlement::obs::{parse_trace, BadLabel, Clock, Obs, TraceEvent};
use network_entitlement::slo::{CycleObs, IntervalObs, SloEvaluator};
use network_entitlement::watch::{AdmitObs, WatchEvaluator};
use proptest::prelude::*;

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
const ADMIT: [(&str, bool); 7] = [
    ("request", false),
    ("ask_bps", false),
    ("granted_bps", false),
    ("residual_before_bps", false),
    ("residual_after_bps", false),
    ("admit_ms", false),
    ("path", true),
];

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

    #[test]
    fn admit_obs_round_trips_and_never_defaults(
        request in any::<u64>(),
        rates in (finite(), finite(), finite(), finite()),
        tail in (finite(), printable()),
        pick in any::<usize>(),
    ) {
        let o = AdmitObs {
            request,
            ask_bps: rates.0,
            granted_bps: rates.1,
            residual_before_bps: rates.2,
            residual_after_bps: rates.3,
            admit_ms: tail.0,
            path: tail.1,
        };
        let mut events = wire(|obs| WatchEvaluator::default().observe_admit(obs, &o));
        events.truncate(1); // a W0103 violation may follow the admit
        prop_assert_eq!(AdmitObs::decode(&events[0]), Ok(o));

        let key = corrupt(&mut events[0], &ADMIT, pick);
        let mut offline = WatchEvaluator::default();
        assert_reported(&offline.fold_trace(&events), &events[0], key);
        prop_assert_eq!(offline.report().admits, 0, "a malformed admit was folded");
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
