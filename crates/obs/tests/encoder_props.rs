//! Property tests for the trace sink's encoder and its one reader.
//!
//! The sink keeps events as pages of wire text, written by one
//! encoder and read back by its strict inverse; these tests hold both
//! to a model that shares no code with them: events as owned
//! `TraceEvent`s built the way the sink used to build them (a
//! `Vec<(String, String)>` of labels in the order they were added,
//! which is key order; ids from a counter and an open-span stack) and
//! the line format spelled out
//! with `write!`. Every entry point is driven — `span`, `point` and
//! `child`, each with the label adders — with spans opened and closed
//! in arbitrary, non-LIFO order, so a label leaking from one pooled
//! buffer into another event shows up as a model mismatch. What
//! `events()` returns and what `parse_trace` reads from the exported
//! file are the same events, always; a line that is not the encoder's
//! is refused, never read as something else.

use entitlement_obs::{key, parse_trace, Clock, Key, SpanTimer, TraceEvent, TraceSink};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Characters that exercise every branch of JSON escaping: quotes,
/// backslashes, the named and the `\u00XX` control escapes, DEL,
/// two-, three- and four-byte UTF-8, and JSON punctuation.
const ALPHABET: &[char] = &[
    'a', 'k', 'z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '日',
    '😀', '{', ':', ',',
];

fn text(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ALPHABET.len(), 0..max_len + 1)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// The characters of [`ALPHABET`] that need no escape: what a label
/// key is made of (DEL, multi-byte UTF-8, JSON punctuation).
const PLAIN: &[char] = &['a', 'k', 'z', '0', ' ', '\u{7f}', 'é', '日', '😀', '{', ':', ','];

fn plain_text(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..PLAIN.len(), 0..max_len + 1)
        .prop_map(|picks| picks.into_iter().map(|i| PLAIN[i]).collect())
}

/// Keys from a five-letter alphabet, at most two long: empty keys are
/// common, and so are keys that sort one way as text and the other way
/// once quoted (`a` before `a b`, but `"a b"` before `"a"`).
fn key() -> impl Strategy<Value = String> {
    const KEY_ALPHABET: [char; 5] = ['a', 'k', ' ', ':', 'é'];
    proptest::collection::vec(0..KEY_ALPHABET.len(), 0..3)
        .prop_map(|picks| picks.into_iter().map(|i| KEY_ALPHABET[i]).collect())
}

/// `text` as a key: every key these tests draw is plain.
fn checked(text: &str) -> Key<&str> {
    Key::new(text).expect("a key drawn from the plain alphabet")
}

/// Durations: the values the format special-cases, then anything.
fn dur() -> impl Strategy<Value = f64> {
    (0usize..14, any::<f64>()).prop_map(|(pick, other)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => 3.0,
        6 => 4.5,
        7 => 1e300,
        8 => f64::MAX,
        9 => 9_007_199_254_740_992.0,
        10 => 9_007_199_254_740_991.0,
        11 => 1e-7,
        12 => -2.5,
        _ => other.abs(),
    })
}

fn id() -> impl Strategy<Value = u64> {
    (0usize..5, any::<u64>()).prop_map(|(pick, other)| match pick {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => other % 1000,
        _ => other,
    })
}

/// A label value, by the adder that writes it.
#[derive(Clone, Debug)]
enum Value {
    Str(String),
    Fmt(u64),
    /// `add_label_u64`: a prefix and a number.
    Id(&'static str, u64),
    F64(f64),
}

impl Value {
    /// What the label must read back as.
    fn expected(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Fmt(n) => n.to_string(),
            Value::Id(prefix, n) => format!("{prefix}{n}"),
            Value::F64(v) if v.is_finite() => format!("{v}"),
            Value::F64(_) => "0".to_string(),
        }
    }
}

fn value() -> impl Strategy<Value = Value> {
    const PREFIXES: [&str; 4] = ["", "r", "npg:", "\"\\"];
    (0usize..4, text(6), id(), dur()).prop_map(|(pick, s, n, v)| match pick {
        0 => Value::Str(s),
        1 => Value::Fmt(n),
        2 => Value::Id(PREFIXES[n as usize % PREFIXES.len()], n),
        _ => Value::F64(v),
    })
}

type Labels = Vec<(String, Value)>;

/// Labels as every emitter adds them: keys strictly increasing.
fn labels() -> impl Strategy<Value = Labels> {
    proptest::collection::btree_map(key(), value(), 0..6).prop_map(|m| m.into_iter().collect())
}

#[derive(Clone, Debug)]
enum Op {
    /// `span()`, then labels through the adders; stays open.
    Open(String, String, Labels),
    /// Drop the `n % live`-th open span (any order, not just LIFO).
    Close(usize),
    /// `point()` + adders, dropped at once.
    Point(String, String, Labels),
    /// `child(ts, dur)` + adders, dropped at once.
    Child(u64, f64, String, String, Labels),
}

fn op() -> impl Strategy<Value = Op> {
    (0usize..8, (text(5), text(5), labels()), id(), dur()).prop_map(
        |(pick, (span, phase, labels), a, dur)| match pick {
            0 | 1 => Op::Open(span, phase, labels),
            2 | 3 => Op::Close(a as usize),
            4 | 5 => Op::Point(span, phase, labels),
            _ => Op::Child(a, dur, span, phase, labels),
        },
    )
}

fn add_all(timer: &mut SpanTimer, labels: &Labels) {
    for (k, v) in labels {
        let k = checked(k);
        match v {
            Value::Str(s) => timer.add_label(k, s),
            Value::Fmt(n) => timer.add_label_fmt(k, n),
            Value::Id(prefix, n) => timer.add_label_u64(k, prefix, *n),
            Value::F64(x) => timer.add_label_f64(k, *x),
        }
    }
}

fn owned(labels: &Labels) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.clone(), v.expected()))
        .collect()
}

/// The sink as it was before the arenas: owned events, labels in the
/// order added, a counter and an open stack.
#[derive(Default)]
struct Model {
    events: Vec<TraceEvent>,
    next_id: u64,
    open: Vec<(u64, u64)>,
    /// `Clock::counting(1)`: each read returns the count of reads so far.
    clock_reads: u64,
}

impl Model {
    fn now(&mut self) -> u64 {
        self.clock_reads += 1;
        self.clock_reads - 1
    }

    /// `(span_id, trace_id, parent_id)`.
    fn alloc(&mut self) -> (u64, u64, u64) {
        self.next_id += 1;
        match self.open.last() {
            Some(&(parent, trace)) => (self.next_id, trace, parent),
            None => (self.next_id, self.next_id, 0),
        }
    }

    fn emit(
        &mut self,
        ids: (u64, u64, u64),
        ts_ms: u64,
        dur_ms: f64,
        names: (&str, &str),
        labels: &Labels,
    ) {
        let labels = owned(labels);
        self.events.push(TraceEvent {
            ts_ms,
            trace_id: ids.1,
            span_id: ids.0,
            parent_id: ids.2,
            span: names.0.to_string(),
            phase: names.1.to_string(),
            labels,
            dur_ms: on_the_wire(dur_ms),
        });
    }
}

/// A span open in both worlds.
struct Live<'a> {
    timer: SpanTimer<'a>,
    ids: (u64, u64, u64),
    start_ms: u64,
    span: String,
    phase: String,
    labels: Labels,
}

/// Drive `ops` through a fresh sink and the model side by side.
fn run(ops: &[Op]) -> (TraceSink, Vec<TraceEvent>) {
    let sink = TraceSink::new();
    let clock = Clock::counting(1);
    let mut model = Model::default();
    let mut live: Vec<Live> = Vec::new();
    let close = |model: &mut Model, l: Live| {
        drop(l.timer);
        let end = model.now();
        model.open.retain(|&(id, _)| id != l.ids.0);
        let dur = end.saturating_sub(l.start_ms) as f64;
        model.emit(l.ids, l.start_ms, dur, (&l.span, &l.phase), &l.labels);
    };
    for op in ops {
        match op {
            Op::Open(span, phase, labels) => {
                let mut timer = sink.span(&clock, span, phase);
                add_all(&mut timer, labels);
                let ids = model.alloc();
                model.open.push((ids.0, ids.1));
                assert_eq!(timer.id(), ids.0);
                live.push(Live {
                    timer,
                    ids,
                    start_ms: model.now(),
                    span: span.clone(),
                    phase: phase.clone(),
                    labels: labels.clone(),
                });
            }
            Op::Close(n) => {
                if !live.is_empty() {
                    let l = live.remove(n % live.len());
                    close(&mut model, l);
                }
            }
            Op::Point(span, phase, labels) => {
                let mut timer = sink.point(&clock, span, phase);
                add_all(&mut timer, labels);
                drop(timer);
                let ts = model.now();
                let ids = model.alloc();
                model.emit(ids, ts, 0.0, (span, phase), labels);
            }
            Op::Child(ts, dur, span, phase, labels) => {
                let mut timer = sink.child(*ts, *dur, span, phase);
                add_all(&mut timer, labels);
                drop(timer);
                let ids = model.alloc();
                model.emit(ids, *ts, *dur, (span, phase), labels);
            }
        }
    }
    // Whatever is still open drops front to back, as a Vec does.
    for l in live {
        close(&mut model, l);
    }
    (sink, model.events)
}

/// A duration as the line carries it: a positive finite value as it
/// is, anything else (negative, `-0`, NaN, ±∞) as `0`.
fn on_the_wire(dur_ms: f64) -> f64 {
    if dur_ms.is_finite() && dur_ms > 0.0 {
        dur_ms
    } else {
        0.0
    }
}

/// The line format, spelled out independently of the encoder.
fn model_line(e: &TraceEvent) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"ts_ms\":{},\"trace_id\":{},\"span_id\":{},\"parent_id\":{},\"span\":",
        e.ts_ms, e.trace_id, e.span_id, e.parent_id
    );
    serde::write_json_string(&e.span, &mut out);
    out.push_str(",\"phase\":");
    serde::write_json_string(&e.phase, &mut out);
    out.push_str(",\"labels\":{");
    for (i, (k, v)) in e.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde::write_json_string(k, &mut out);
        out.push(':');
        serde::write_json_string(v, &mut out);
    }
    let _ = write!(out, "}},\"dur_ms\":{}}}", on_the_wire(e.dur_ms));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Pages == model, the three exports agree with each other and
    /// with the spelled-out format, byte for byte, and the file reads
    /// back as exactly what `events()` returns.
    #[test]
    fn storage_and_encoder_match_the_model(ops in proptest::collection::vec(op(), 1..16)) {
        let (sink, expected) = run(&ops);
        let events = sink.events();
        prop_assert_eq!(events.len(), expected.len());
        prop_assert_eq!(sink.len(), expected.len());
        prop_assert_eq!(&events, &expected);

        let jsonl = sink.to_jsonl();
        let lines: Vec<&str> = jsonl.split_terminator('\n').collect();
        prop_assert_eq!(lines.len(), events.len());
        for (line, e) in lines.iter().zip(&events) {
            prop_assert_eq!(*line, e.to_json_line());
            prop_assert_eq!(*line, model_line(e));
            prop_assert!(serde_json::parse(line).is_ok(), "not JSON: {line}");
        }

        let mut streamed = Vec::new();
        sink.write_jsonl(&mut streamed).expect("writing to a Vec");
        prop_assert_eq!(streamed.as_slice(), jsonl.as_bytes());
        // A clone reads the same pages.
        prop_assert_eq!(sink.clone().to_jsonl(), jsonl.clone());

        prop_assert_eq!(parse_trace(&jsonl), Ok(events));
    }
}

/// A float label reads as `{}` prints it however often, under however
/// many keys and through whichever pooled buffer it was written
/// before: a value the sink has formatted once must come back as the
/// same bytes, and one it has not must not come back as another's.
#[test]
fn a_repeated_float_label_is_the_same_bytes_every_time() {
    let specials = [
        0.0,
        -0.0,
        0.001,
        4.5,
        -2.5,
        1e-7,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        123_456_789.123_456_79,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let sink = TraceSink::new();
    let clock = Clock::manual(0);
    let mut expected: Vec<Vec<(String, String)>> = Vec::new();
    let want = |keys: &[&str], v: f64| -> Vec<(String, String)> {
        let mut labels: Vec<_> = keys
            .iter()
            .map(|k| (k.to_string(), Value::F64(v).expected()))
            .collect();
        labels.sort();
        labels
    };
    for &v in &specials {
        // Twice in one event, then again through the same buffer.
        sink.point(&clock, "f", "twice")
            .label_f64(key!("a"), v)
            .label_f64(key!("b"), v)
            .finish();
        expected.push(want(&["a", "b"], v));
        sink.point(&clock, "f", "again").label_f64(key!("x"), v).finish();
        expected.push(want(&["x"], v));
        // Two spans open at once write into two buffers.
        let mut outer = sink.span(&clock, "f", "outer");
        let mut inner = sink.span(&clock, "f", "inner");
        outer.add_label_f64(key!("o"), v);
        inner.add_label_f64(key!("i"), v);
        outer.add_label_f64(key!("p"), v);
        drop(inner);
        drop(outer);
        expected.push(want(&["i"], v));
        expected.push(want(&["o", "p"], v));
    }
    // More distinct values than any cache of formatted text holds,
    // each seen three times, 5 000 values apart and back to back.
    let many = |i: u64| i as f64 / 7.0 - 100.0;
    for round in 0..2 {
        for i in 0..5_000u64 {
            let v = if round == 0 { many(i) } else { many(4_999 - i) };
            sink.point(&clock, "f", "many")
                .label_f64(key!("v"), v)
                .label_f64(key!("w"), v)
                .finish();
            expected.push(want(&["v", "w"], v));
        }
    }
    let events = sink.events();
    assert_eq!(events.len(), expected.len());
    let jsonl = sink.to_jsonl();
    for ((e, labels), line) in events.iter().zip(&expected).zip(jsonl.lines()) {
        assert_eq!(&e.labels, labels, "{}/{}", e.span, e.phase);
        assert_eq!(line, model_line(e));
    }
}

/// Key order is the order of the keys' own text — `String`'s `Ord` —
/// not of the quoted text on the wire: `a` goes before `a b` although
/// `"a"` sorts after `"a b"`, and `z` before `z ` although `"z"` sorts
/// after `"z "`. Labels added in that order are written in it, through
/// a span, a point and a child alike, and read back.
#[test]
fn labels_are_ordered_by_their_own_text_not_the_wire_text() {
    let cases: [&[(&str, &str)]; 4] = [
        &[("a", "2"), ("a b", "1")],
        &[("!", "\""), ("a", "a")],
        &[("", "\n"), ("a", "3"), ("a b", "0"), ("a{", "\\")],
        &[("z", "z"), ("z ", "z"), ("é", "日")],
    ];
    let sink = TraceSink::new();
    let clock = Clock::manual(0);
    let mut expected = Vec::new();
    for labels in cases {
        let owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert!(owned.windows(2).all(|w| w[0].0 < w[1].0), "{owned:?}");
        // Through a span, a point and a child: three ways in, one
        // order out.
        for mut timer in [
            sink.span(&clock, "order", "span"),
            sink.point(&clock, "order", "point"),
            sink.child(0, 0.0, "order", "child"),
        ] {
            for (k, v) in labels {
                timer.add_label(checked(k), v);
            }
        }
        expected.extend([owned.clone(), owned.clone(), owned]);
    }
    let events = sink.events();
    assert_eq!(events.len(), expected.len());
    let jsonl = sink.to_jsonl();
    for ((e, labels), line) in events.iter().zip(&expected).zip(jsonl.lines()) {
        assert_eq!(&e.labels, labels, "{}/{}", e.span, e.phase);
        assert_eq!(line, model_line(e));
        assert_eq!(line, e.to_json_line());
    }
    assert_eq!(parse_trace(&jsonl).expect("every line parses"), events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every text adder escapes its value as it writes it: whatever
    /// the text — quotes, backslashes, control characters, non-ASCII,
    /// empty — under any plain key, the label reads back exactly, and
    /// the line is the encoding of the event read from it.
    #[test]
    fn text_adders_escape_as_they_write(key in plain_text(4), value in text(8), name in text(3)) {
        let sink = TraceSink::new();
        let clock = Clock::manual(0);
        let k = checked(&key);
        sink.point(&clock, &name, "label").label(k, &value).finish();
        let mut timer = sink.point(&clock, &name, "add_label");
        timer.add_label(k, &value);
        drop(timer);
        sink.point(&clock, &name, "label_fmt").label_fmt(k, &value).finish();
        let mut timer = sink.point(&clock, &name, "add_label_fmt");
        timer.add_label_fmt(k, format_args!("{value}"));
        drop(timer);
        let jsonl = sink.to_jsonl();
        let events = parse_trace(&jsonl);
        prop_assert_eq!(events.as_ref(), Ok(&sink.events()));
        let events = events.unwrap_or_default();
        prop_assert_eq!(events.len(), 4);
        for (line, e) in jsonl.lines().zip(&events) {
            prop_assert_eq!(&e.span, &name);
            prop_assert_eq!(&e.labels, &vec![(key.clone(), value.clone())]);
            prop_assert_eq!(line, e.to_json_line());
        }
    }

    /// `Key::new` takes exactly the text the trace's escaper leaves as
    /// it is — so a key is its own wire text — and refuses the rest.
    #[test]
    fn a_computed_key_is_exactly_text_that_needs_no_escape(
        (picked, drawn) in (text(6), proptest::collection::vec(0u32..0x800, 0..6)),
    ) {
        // The alphabet's every escape, then any code point below U+0800.
        let s: String = picked + &drawn.into_iter().filter_map(char::from_u32).collect::<String>();
        let mut quoted = String::new();
        serde::write_json_string(&s, &mut quoted);
        let unchanged = quoted[1..quoted.len() - 1] == s;
        prop_assert_eq!(Key::new(s.as_str()).is_some(), unchanged, "{:?}", s);
        prop_assert_eq!(Key::new(s.clone()).map(|k| k.as_str().to_string()), unchanged.then_some(s));
    }
}

/// `events()` hands back what the wire carries, which is what a file
/// reads as: every `u64` timestamp exactly, and a duration the line
/// writes as `0` as `0`.
#[test]
fn events_are_what_the_wire_carries() {
    let sink = TraceSink::new();
    let emitted: Vec<TraceEvent> = [
        (u64::MAX, f64::NAN, 0.0),
        (0, f64::NEG_INFINITY, 0.0),
        (u64::MAX - 1, -0.0, 0.0),
        ((1 << 53) + 1, f64::INFINITY, 0.0),
        (16_131_454_690_887_550_962, -2.5, 0.0),
        (8, 1e300, 1e300),
    ]
    .into_iter()
    .zip(1..)
    .map(|((ts_ms, dur_ms, wire), id)| {
        sink.child(ts_ms, dur_ms, "sp\"an", "ph\\ase")
            .label(key!("k"), "v\n")
            .finish();
        TraceEvent {
            ts_ms,
            trace_id: id,
            span_id: id,
            parent_id: 0,
            span: "sp\"an".to_string(),
            phase: "ph\\ase".to_string(),
            labels: vec![("k".to_string(), "v\n".to_string())],
            dur_ms: wire,
        }
    })
    .collect();
    let events = sink.events();
    assert_eq!(events, emitted);
    for (got, want) in events.iter().zip(&emitted) {
        assert_eq!(got.dur_ms.to_bits(), want.dur_ms.to_bits(), "-0 is written as 0");
    }
    let jsonl = sink.to_jsonl();
    for (line, e) in jsonl.lines().zip(&emitted) {
        assert_eq!(line, model_line(e));
    }
    assert_eq!(parse_trace(&jsonl), Ok(events));
}

/// Buffers go back to the pool at close and out again at the next
/// open; nothing a previous tenant wrote may survive the hand-over.
#[test]
fn pooled_buffers_carry_nothing_over() {
    let sink = TraceSink::new();
    let clock = Clock::manual(0);
    // Fill a buffer, return it, and take it out again for an event
    // with fewer, shorter labels.
    sink.span(&clock, "first", "tenant")
        .label(key!("long_key_one"), "a long value that must not reappear")
        .label(key!("long_key_two"), "another")
        .finish();
    sink.point(&clock, "next", "tenant")
        .label(key!("k"), "v")
        .finish();
    // Two spans open at once hold two different buffers; closing the
    // outer one first hands its buffer to the next event while the
    // inner one is still writing into its own.
    let mut outer = sink.span(&clock, "x", "outer");
    let mut inner = sink.span(&clock, "x", "inner");
    outer.add_label(key!("who"), "outer");
    inner.add_label(key!("who"), "inner");
    drop(outer);
    sink.point(&clock, "x", "between").label(key!("who"), "event").finish();
    inner.add_label_fmt(key!("z"), 7);
    drop(inner);

    let events = sink.events();
    let labels = |i: usize| -> Vec<(&str, &str)> {
        events[i]
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    };
    assert_eq!(events.len(), 5);
    assert_eq!(labels(1), [("k", "v")]);
    assert_eq!(
        (events[2].phase.as_str(), labels(2)),
        ("outer", vec![("who", "outer")])
    );
    assert_eq!(
        (events[3].phase.as_str(), labels(3)),
        ("between", vec![("who", "event")])
    );
    assert_eq!(
        (events[4].phase.as_str(), labels(4)),
        ("inner", vec![("who", "inner"), ("z", "7")])
    );
    // The event emitted while `inner` was open is its child.
    assert_eq!(events[3].parent_id, events[4].span_id);
}

/// `write_jsonl` hands its buffer over in bounded chunks and the
/// pieces add up to `to_jsonl()`.
#[test]
fn streaming_export_is_chunked_and_complete() {
    struct Chunks(Vec<usize>, Vec<u8>);
    impl std::io::Write for Chunks {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.len());
            self.1.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let sink = TraceSink::new();
    let clock = Clock::counting(1);
    // 2.7 MB: the sink's buffer grows a 1 MiB page at a time, so the
    // export crosses page ends that are not chunk ends.
    for i in 0..20_000u64 {
        sink.point(&clock, "bulk", "row")
            .label_fmt(key!("i"), i)
            .label_f64(key!("x"), i as f64 / 8.0)
            .finish();
    }
    let mut out = Chunks(Vec::new(), Vec::new());
    sink.write_jsonl(&mut out).expect("in-memory writer");
    assert_eq!(out.1, sink.to_jsonl().into_bytes());
    assert!(out.1.len() > 2 << 20, "{} bytes", out.1.len());
    assert_eq!(parse_trace(&sink.to_jsonl()).expect("every line parses"), sink.events());
    assert!(
        out.0.len() > 2,
        "one write per chunk, not one in all: {:?}",
        out.0
    );
    assert!(
        out.0.iter().all(|&n| n < 128 * 1024),
        "chunks stay bounded: {:?}",
        out.0
    );

    // A failing writer surfaces its error instead of losing it.
    struct Full;
    impl std::io::Write for Full {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    assert!(sink.write_jsonl(&mut Full).is_err());
    // Disabled sinks write nothing.
    let mut nothing = Vec::new();
    TraceSink::disabled()
        .write_jsonl(&mut nothing)
        .expect("no-op");
    assert!(nothing.is_empty());
}

/// One edit of a canonical line.
#[derive(Clone, Debug)]
enum Mutation {
    /// Replace the `n % len`-th character.
    Replace(usize, char),
    Insert(usize, char),
    Delete(usize),
    /// Keep the first `n % len` characters.
    Truncate(usize),
    /// Spell the `n`-th ASCII letter or digit as a `\u00XX` escape.
    Escape(usize),
    /// Swap two of the eight top-level key names.
    SwapKeys(usize, usize),
    /// Move `"dur_ms":…` to the front of the object.
    DurFirst,
    /// Append spaces.
    Trailing(usize),
}

/// What a mutation writes: the punctuation and digits the format is
/// made of, whitespace, escapes' letters and a few non-ASCII.
const MUTANTS: &[char] = &[
    '0', '1', '9', '-', '+', '.', 'e', 'E', ' ', '"', '\\', 'u', '{', '}', ':', ',', '[', '\n',
    '\r', '\t', '\u{0}', 'A', 'a', 'n', '/', 'é', '😀',
];

const KEYS: [&str; 8] = [
    "\"ts_ms\":",
    "\"trace_id\":",
    "\"span_id\":",
    "\"parent_id\":",
    "\"span\":",
    "\"phase\":",
    "\"labels\":",
    "\"dur_ms\":",
];

fn mutation() -> impl Strategy<Value = Mutation> {
    (0usize..8, any::<usize>(), 0..MUTANTS.len(), 0usize..8).prop_map(|(pick, n, c, k)| {
        match pick {
            0 => Mutation::Replace(n, MUTANTS[c]),
            1 => Mutation::Insert(n, MUTANTS[c]),
            2 => Mutation::Delete(n),
            3 => Mutation::Truncate(n),
            4 => Mutation::Escape(n),
            5 => Mutation::SwapKeys(k, n % KEYS.len()),
            6 => Mutation::DurFirst,
            _ => Mutation::Trailing(1 + k % 3),
        }
    })
}

fn mutate(line: &str, m: &Mutation) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    let at = |n: usize, len: usize| if len == 0 { 0 } else { n % len };
    match *m {
        Mutation::Replace(n, c) if !chars.is_empty() => {
            let i = at(n, chars.len());
            chars[i] = c;
        }
        Mutation::Insert(n, c) => chars.insert(at(n, chars.len() + 1), c),
        Mutation::Delete(n) if !chars.is_empty() => {
            chars.remove(at(n, chars.len()));
        }
        Mutation::Truncate(n) => chars.truncate(at(n, chars.len())),
        Mutation::Escape(n) => {
            let alnum: Vec<usize> = (0..chars.len())
                .filter(|&i| chars[i].is_ascii_alphanumeric())
                .collect();
            if !alnum.is_empty() {
                let i = alnum[n % alnum.len()];
                let escape = format!("\\u{:04x}", chars[i] as u32);
                chars.splice(i..=i, escape.chars());
            }
        }
        Mutation::SwapKeys(a, b) => {
            let (ka, kb) = (KEYS[a], KEYS[b]);
            return line
                .replacen(ka, "\u{1}", 1)
                .replacen(kb, ka, 1)
                .replacen('\u{1}', kb, 1);
        }
        Mutation::DurFirst => {
            if let Some(at) = line.rfind(",\"dur_ms\":") {
                let dur = &line[at + 1..line.len() - 1];
                return format!("{{{dur},{}}}", &line[1..at]);
            }
        }
        Mutation::Trailing(n) => chars.extend(std::iter::repeat_n(' ', n)),
        _ => {}
    }
    chars.into_iter().collect()
}

/// Whether `parse_trace` kept its contract on `text`: a refusal, or
/// events whose encodings are the text's non-blank lines.
fn refused_or_canonical(text: &str) -> Result<(), String> {
    match parse_trace(text) {
        Err(e) if e.starts_with("line ") => Ok(()),
        Err(e) => Err(format!("refused without naming the line: {e}")),
        Ok(events) => {
            let lines: Vec<&str> = text.split('\n').filter(|l| !l.trim().is_empty()).collect();
            let encoded: Vec<String> = events.iter().map(TraceEvent::to_json_line).collect();
            if lines == encoded {
                Ok(())
            } else {
                Err(format!("accepted {text:?} as {encoded:?}"))
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Edited canonical lines — characters flipped, inserted, deleted,
    /// the line cut short, letters spelled as `\u00XX`, keys swapped or
    /// reordered, trailing spaces — never panic the reader, and each
    /// is either refused (naming its line) or read as the event whose
    /// encoding it is.
    #[test]
    fn a_mutated_line_is_refused_or_its_own_encoding(
        ops in proptest::collection::vec(op(), 0..6),
        (span, phase, last) in (text(5), text(5), labels()),
        pick in any::<usize>(),
        edits in proptest::collection::vec(mutation(), 1..4),
    ) {
        // At least one event: a point after whatever `ops` did.
        let ops: Vec<Op> = ops.into_iter().chain([Op::Point(span, phase, last)]).collect();
        let (sink, _) = run(&ops);
        let jsonl = sink.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        let mut line = lines[pick % lines.len()].to_string();
        for edit in &edits {
            line = mutate(&line, edit);
            prop_assert_eq!(refused_or_canonical(&line), Ok(()));
        }
        // In a file, after a line that reads.
        let text = format!("{}\n{line}\n", lines[0]);
        prop_assert_eq!(refused_or_canonical(&text), Ok(()));
    }
}

/// splitmix64: the oracle's own generator, so a failure names a seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Up to `max` characters of [`ALPHABET`]: every escape the
    /// encoder writes, multi-byte UTF-8 and JSON punctuation.
    fn text(&mut self, max: usize) -> String {
        let len = self.below(max + 1);
        (0..len).map(|_| ALPHABET[self.below(ALPHABET.len())]).collect()
    }

    /// Up to `max` characters of [`PLAIN`]: a key.
    fn plain(&mut self, max: usize) -> String {
        let len = self.below(max + 1);
        (0..len).map(|_| PLAIN[self.below(PLAIN.len())]).collect()
    }

    /// Any `u64`, with the ends of the range and 2^53 ± 1 drawn often.
    fn id(&mut self) -> u64 {
        match self.below(8) {
            0 => u64::MAX,
            1 => (1 << 53) + self.below(3) as u64 - 1,
            2 => self.next() % 1000,
            _ => self.next(),
        }
    }

    /// Any double, non-finite and negative ones included.
    fn dur(&mut self) -> f64 {
        match self.below(8) {
            0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0][self.below(5)],
            1 => -((self.next() % 1000) as f64) / 8.0,
            2 => (self.next() % 100_000) as f64 / 1000.0,
            _ => f64::from_bits(self.next()),
        }
    }
}

/// The full reader oracle: a million random events — timestamps and
/// ids over the whole `u64` range, every escape, non-finite and
/// negative durations — through a sink, `to_jsonl` and `parse_trace`,
/// and as free-standing lines with ids no sink hands out; then random
/// single-byte edits of the lines. Seconds in a release build:
/// `cargo test --release -p entitlement-obs -- --ignored`.
#[test]
#[ignore = "a million events: run it in release"]
fn a_million_random_events_read_back_as_written() {
    const BATCHES: usize = 100;
    const EVENTS: usize = 10_000;
    let mut rng = Rng(0x5EED_7ACE_0000_0001);
    let (mut mutated, mut accepted) = (0u64, 0u64);
    for batch in 0..BATCHES {
        let sink = TraceSink::new();
        let mut written = Vec::with_capacity(EVENTS);
        for _ in 0..EVENTS {
            let (ts_ms, dur_ms) = (rng.id(), rng.dur());
            let (span, phase) = (rng.text(4), rng.text(4));
            let mut labels: Vec<(String, String)> =
                (0..rng.below(4)).map(|_| (rng.plain(3), rng.text(6))).collect();
            labels.sort();
            labels.dedup_by(|a, b| a.0 == b.0);
            let mut timer = sink.child(ts_ms, dur_ms, &span, &phase);
            for (k, v) in &labels {
                timer.add_label(checked(k), v);
            }
            drop(timer);
            written.push((ts_ms, on_the_wire(dur_ms), span, phase, labels));
        }
        let events = sink.events();
        let jsonl = sink.to_jsonl();
        assert_eq!(parse_trace(&jsonl).as_ref(), Ok(&events), "batch {batch}");
        assert_eq!(events.len(), EVENTS);
        for ((e, (ts_ms, dur_ms, span, phase, labels)), line) in
            events.iter().zip(&written).zip(jsonl.lines())
        {
            assert_eq!(
                (e.ts_ms, e.dur_ms.to_bits(), &e.span, &e.phase, &e.labels),
                (*ts_ms, dur_ms.to_bits(), span, phase, labels),
                "batch {batch}: {line}"
            );
            // The same event under ids over the whole range.
            let far = TraceEvent {
                trace_id: rng.id(),
                span_id: rng.id().max(1),
                parent_id: rng.id(),
                ..e.clone()
            };
            let far_line = far.to_json_line();
            assert_eq!(parse_trace(&far_line), Ok(vec![far]), "{far_line}");
            // One byte of the line replaced by any byte.
            let mut bytes = line.as_bytes().to_vec();
            let at = rng.below(bytes.len());
            bytes[at] = rng.next() as u8;
            if let Ok(text) = String::from_utf8(bytes) {
                mutated += 1;
                accepted += u64::from(parse_trace(&text).is_ok());
                assert_eq!(refused_or_canonical(&text), Ok(()), "{line}");
            }
        }
    }
    // About half the edits leave UTF-8 (a byte above 0x7f rarely
    // does). Most break the line; a few land on a digit or a label's
    // text and make another event, which must then be their encoding.
    assert!(mutated > (BATCHES * EVENTS) as u64 * 2 / 5, "{mutated} edits were UTF-8");
    assert!(accepted > 0 && accepted < mutated / 2, "{accepted} of {mutated} edits read");
}
