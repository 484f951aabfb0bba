//! Structured span events and the JSONL trace sink (schema v2).
//!
//! Every event serializes to one JSON line with a **stable schema**:
//!
//! ```json
//! {"ts_ms":1234,"trace_id":1,"span_id":3,"parent_id":1,"span":"approval","phase":"hose_approval","labels":{"qos":"C1"},"dur_ms":4.5}
//! ```
//!
//! * `ts_ms` — u64, span start time from the caller-supplied [`Clock`];
//! * `trace_id` — u64, the root span's `span_id` (every span in one
//!   causal tree shares it);
//! * `span_id` — u64, unique per event within a sink, allocated from a
//!   seeded counter starting at 1 (no wall clock, no randomness:
//!   identical runs produce identical ids);
//! * `parent_id` — u64, the `span_id` of the innermost span open when
//!   this event started, or `0` for roots;
//! * `span` — the subsystem (e.g. `approval`, `risk`, `kv`, `agent`);
//! * `phase` — the step within the subsystem;
//! * `labels` — a flat string→string object (sorted by key);
//! * `dur_ms` — f64 duration (0 for instantaneous events).
//!
//! Parentage is tracked by an open-span stack inside the sink: starting
//! a span pushes its id, dropping it removes it. Because spans close in
//! RAII order and events are appended at close time, a child's line
//! appears *before* its parent's in the JSONL — tree reconstruction
//! ([`crate::tree`]) is therefore a two-pass walk over ids, never a
//! positional scan.
//!
//! The JSONL is hand-emitted (the vendored serde stub serializes maps
//! as arrays of pairs, which would break the `labels` object), and
//! keys always appear in the order above so identical runs produce
//! byte-identical traces.
//!
//! **Storage.** The sink is an append-only log in three flat arenas —
//! one fixed-size [`Record`] per event, one `(key end, value end)` pair
//! per label, one text buffer holding every name, key and value in
//! emit order — so recording an event is a few `memcpy`s and no heap
//! allocation once the arenas have grown. A [`SpanTimer`] formats its
//! labels in place into a [`Scratch`] buffer that the sink hands out
//! when the span opens and takes back when it closes, under the two
//! locks a span takes anyway. One encoder ([`Line::encode`]) renders
//! [`TraceEvent::to_json_line`], [`TraceSink::to_jsonl`] and
//! [`TraceSink::write_jsonl`]; readers get owned [`TraceEvent`]s from
//! [`TraceSink::events`]. DESIGN.md §9 has the cost model and the wire
//! contract.

use crate::clock::Clock;
use std::fmt::{self, Write as _};
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

/// One structured event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Start time in milliseconds (from the injected clock).
    pub ts_ms: u64,
    /// Root span id of the causal tree this event belongs to.
    pub trace_id: u64,
    /// Unique id of this event within the sink (counter-based).
    pub span_id: u64,
    /// `span_id` of the enclosing open span; `0` = root.
    pub parent_id: u64,
    /// Subsystem name.
    pub span: String,
    /// Step within the subsystem.
    pub phase: String,
    /// Flat key→value labels, sorted by key at emit time.
    pub labels: Vec<(String, String)>,
    /// Duration in milliseconds (0 for point events).
    pub dur_ms: f64,
}

/// A label an event's reader requires that is absent or does not
/// parse: what a strict decode reports in place of a default.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadLabel {
    /// `span_id` of the offending event.
    pub span_id: u64,
    /// Its `span/phase`.
    pub event: String,
    /// The label.
    pub key: String,
    /// The unusable value; `None` = the label is missing.
    pub value: Option<String>,
}

impl fmt::Display for BadLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let BadLabel { span_id, event, key, value } = self;
        write!(f, "{event} event span_id {span_id}: label `{key}` ")?;
        match value {
            None => f.write_str("is missing"),
            Some(v) => write!(f, "has unusable value `{v}`"),
        }
    }
}

impl TraceEvent {
    /// An event with unassigned ids (all zero) — handed to
    /// [`TraceSink::push_child`], which allocates them under the
    /// currently open span.
    #[must_use]
    pub fn new(
        ts_ms: u64,
        span: &str,
        phase: &str,
        labels: Vec<(String, String)>,
        dur_ms: f64,
    ) -> Self {
        TraceEvent {
            ts_ms,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            span: span.to_string(),
            phase: phase.to_string(),
            labels,
            dur_ms,
        }
    }

    /// End of the event's interval (`ts_ms + dur_ms`, in f64 ms).
    #[must_use]
    pub fn end_ms(&self) -> f64 {
        self.ts_ms as f64 + self.dur_ms
    }

    /// Value of one label, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Value of a label the reader cannot do without.
    ///
    /// # Errors
    ///
    /// Names the event and the label when it is absent.
    pub fn need(&self, key: &str) -> Result<&str, BadLabel> {
        self.label(key).ok_or_else(|| self.bad(key, None))
    }

    /// A required label parsed as `T` (`u64`, `bool`, ...).
    ///
    /// # Errors
    ///
    /// Names the event, the label and the value when the label is
    /// absent or its value is not a `T`.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, BadLabel> {
        let value = self.need(key)?;
        value.parse().map_err(|_| self.bad(key, Some(value)))
    }

    /// A required float label. The writer renders non-finite values as
    /// `0` ([`SpanTimer::label_f64`]), so `NaN`/`inf` on the wire is
    /// corruption like any other non-number.
    ///
    /// # Errors
    ///
    /// As [`parsed`](Self::parsed), also for a non-finite value.
    pub fn num(&self, key: &str) -> Result<f64, BadLabel> {
        let v: f64 = self.parsed(key)?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(self.bad(key, self.label(key)))
        }
    }

    fn bad(&self, key: &str, value: Option<&str>) -> BadLabel {
        BadLabel {
            span_id: self.span_id,
            event: format!("{}/{}", self.span, self.phase),
            key: key.to_string(),
            value: value.map(str::to_string),
        }
    }

    /// Render this event as its canonical single JSON line (no
    /// trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        Line {
            ids: Ids {
                span_id: self.span_id,
                trace_id: self.trace_id,
                parent_id: self.parent_id,
            },
            ts_ms: self.ts_ms,
            dur_ms: self.dur_ms,
            span: &self.span,
            phase: &self.phase,
            labels: self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())),
        }
        .encode(&mut out);
        out
    }
}

/// The ids of one event: its own, its tree's root, its parent's.
#[derive(Clone, Copy)]
struct Ids {
    span_id: u64,
    trace_id: u64,
    parent_id: u64,
}

/// A borrowed view of one event — what the encoder consumes, whether
/// the event lives in a [`TraceEvent`] or in the sink's arenas.
struct Line<'a, L> {
    ids: Ids,
    ts_ms: u64,
    dur_ms: f64,
    span: &'a str,
    phase: &'a str,
    labels: L,
}

impl<'a, L: Iterator<Item = (&'a str, &'a str)>> Line<'a, L> {
    /// Append the event's canonical JSON line (no trailing newline):
    /// the one encoder behind every trace export.
    fn encode(self, out: &mut String) {
        out.push_str("{\"ts_ms\":");
        push_u64(out, self.ts_ms);
        out.push_str(",\"trace_id\":");
        push_u64(out, self.ids.trace_id);
        out.push_str(",\"span_id\":");
        push_u64(out, self.ids.span_id);
        out.push_str(",\"parent_id\":");
        push_u64(out, self.ids.parent_id);
        out.push_str(",\"span\":");
        push_json_str(out, self.span);
        out.push_str(",\"phase\":");
        push_json_str(out, self.phase);
        out.push_str(",\"labels\":{");
        for (i, (k, v)) in self.labels.enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(out, k);
            out.push(':');
            push_json_str(out, v);
        }
        out.push_str("},\"dur_ms\":");
        push_f64(out, self.dur_ms);
        out.push('}');
    }
}

/// Bytes of one encoded line besides its numbers and strings
/// (newline included); each label adds [`LABEL_FRAME`].
const LINE_FRAME: usize =
    "{\"ts_ms\":,\"trace_id\":,\"span_id\":,\"parent_id\":,\"span\":\"\",\"phase\":\"\",\"labels\":{},\"dur_ms\":}\n"
        .len();
/// `"":"",` around one label.
const LABEL_FRAME: usize = 6;
/// Room reserved for the five numbers of a line (ids in these traces
/// are a handful of digits each; the estimate only has to be close).
const NUMBERS_ESTIMATE: usize = 32;

/// Append `v` in decimal.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // ASCII digits, so this never fails.
    if let Ok(digits) = std::str::from_utf8(&buf[at..]) {
        out.push_str(digits);
    }
}

/// Append a float under the trace policy: plain shortest-round-trip
/// decimal, non-finite values (which valid spans never produce) as
/// `0`. Non-negative integral values below 2^53 — every counting- and
/// manual-clock duration — print as the integer they are, which is
/// what `{}` prints for them too.
fn push_f64(out: &mut String, v: f64) {
    const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;
    if !v.is_finite() {
        out.push('0');
    } else if v.is_sign_positive() && v < EXACT_INTEGERS && v.fract() == 0.0 {
        push_u64(out, v as u64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Append `s` as a JSON string. Text with nothing to escape — every
/// name and almost every value — is copied as is.
fn push_json_str(out: &mut String, s: &str) {
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push('"');
        out.push_str(s);
        out.push('"');
    } else {
        serde::write_json_string(s, out);
    }
}

/// One label being accumulated: byte offsets into [`Scratch::text`].
struct ScratchLabel {
    start: usize,
    key_end: usize,
    end: usize,
}

/// The write buffer of one event in flight: its names, then each
/// label's key and value back to back, in the order they were added.
/// Owned by the sink's pool between events, so a steady stream of
/// spans formats into the same few buffers.
#[derive(Default)]
struct Scratch {
    text: String,
    span_end: usize,
    phase_end: usize,
    labels: Vec<ScratchLabel>,
}

impl Scratch {
    fn begin(&mut self, span: &str, phase: &str) {
        self.text.clear();
        self.labels.clear();
        self.text.push_str(span);
        self.span_end = self.text.len();
        self.text.push_str(phase);
        self.phase_end = self.text.len();
    }

    /// Add a label whose value `write` appends to the text.
    fn label(&mut self, key: &str, write: impl FnOnce(&mut String)) {
        let start = self.text.len();
        self.text.push_str(key);
        let key_end = self.text.len();
        write(&mut self.text);
        self.labels.push(ScratchLabel {
            start,
            key_end,
            end: self.text.len(),
        });
    }
}

/// One event's fixed-size part. Its strings are the next run of the
/// sink's text arena — span name, phase name, then each label's key
/// and value — delimited by end offsets only: an event starts where
/// the previous one ended, so the arenas are read front to back.
struct Record {
    ids: Ids,
    ts_ms: u64,
    dur_ms: f64,
    /// End of the span name in the text arena.
    span_end: usize,
    /// End of the phase name; the first label's key starts here.
    phase_end: usize,
    /// End of this event's run in the label arena.
    labels_end: usize,
}

#[derive(Default)]
struct SinkInner {
    records: Vec<Record>,
    /// `(key end, value end)` per label, in text-arena offsets.
    labels: Vec<(usize, usize)>,
    text: String,
    /// Running estimate of the rendered JSONL size.
    jsonl_bytes: usize,
    /// Next span id to hand out; ids start at 1 so 0 can mean "root".
    next_id: u64,
    /// Open spans, innermost last: `(span_id, trace_id)`.
    open: Vec<(u64, u64)>,
    /// Scratch buffers not in use by an open span.
    pool: Vec<Scratch>,
}

impl SinkInner {
    /// Allocate a fresh span id with parentage from the open stack.
    fn alloc(&mut self) -> Ids {
        self.next_id += 1;
        let span_id = self.next_id;
        match self.open.last() {
            Some(&(parent_id, trace_id)) => Ids {
                span_id,
                trace_id,
                parent_id,
            },
            None => Ids {
                span_id,
                trace_id: span_id,
                parent_id: 0,
            },
        }
    }

    fn take_scratch(&mut self, span: &str, phase: &str) -> Scratch {
        let mut scratch = self.pool.pop().unwrap_or_default();
        scratch.begin(span, phase);
        scratch
    }

    /// Append the event in `scratch` to the arenas, labels ordered by
    /// (key, value) — the order `Vec<(String, String)>::sort` gives,
    /// duplicates kept — and return the buffer to the pool.
    fn commit(&mut self, ids: Ids, ts_ms: u64, dur_ms: f64, mut scratch: Scratch) {
        let text = scratch.text.as_str();
        let pair = |l: &ScratchLabel| (&text[l.start..l.key_end], &text[l.key_end..l.end]);
        // Equal labels are the same bytes, so stability buys nothing
        // and the unstable sort never allocates.
        scratch
            .labels
            .sort_unstable_by(|a, b| pair(a).cmp(&pair(b)));

        let base = self.text.len();
        self.text.push_str(&text[..scratch.phase_end]);
        for l in &scratch.labels {
            let at = self.text.len();
            self.text.push_str(&text[l.start..l.end]);
            self.labels
                .push((at + (l.key_end - l.start), at + (l.end - l.start)));
        }
        self.records.push(Record {
            ids,
            ts_ms,
            dur_ms,
            span_end: base + scratch.span_end,
            phase_end: base + scratch.phase_end,
            labels_end: self.labels.len(),
        });
        self.jsonl_bytes +=
            LINE_FRAME + NUMBERS_ESTIMATE + text.len() + LABEL_FRAME * scratch.labels.len();
        self.pool.push(scratch);
    }

    /// Append an event whose parts the caller already holds as strings.
    fn append<'a>(
        &mut self,
        ids: Ids,
        ts_ms: u64,
        dur_ms: f64,
        (span, phase): (&str, &str),
        labels: impl Iterator<Item = (&'a str, &'a str)>,
    ) {
        let mut scratch = self.take_scratch(span, phase);
        for (k, v) in labels {
            scratch.label(k, |text| text.push_str(v));
        }
        self.commit(ids, ts_ms, dur_ms, scratch);
    }

    /// Every recorded event, in emit order.
    fn lines(&self) -> Lines<'_> {
        Lines {
            sink: self,
            records: self.records.iter(),
            text_at: 0,
            labels_at: 0,
        }
    }
}

/// Front-to-back reader of the arenas.
struct Lines<'a> {
    sink: &'a SinkInner,
    records: std::slice::Iter<'a, Record>,
    text_at: usize,
    labels_at: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = Line<'a, LabelIter<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        let rec = self.records.next()?;
        let sink = self.sink;
        let ends = &sink.labels[self.labels_at..rec.labels_end];
        let line = Line {
            ids: rec.ids,
            ts_ms: rec.ts_ms,
            dur_ms: rec.dur_ms,
            span: &sink.text[self.text_at..rec.span_end],
            phase: &sink.text[rec.span_end..rec.phase_end],
            labels: LabelIter {
                text: &sink.text,
                ends: ends.iter(),
                at: rec.phase_end,
            },
        };
        self.text_at = ends
            .last()
            .map_or(rec.phase_end, |&(_, value_end)| value_end);
        self.labels_at = rec.labels_end;
        Some(line)
    }
}

/// The `(key, value)` pairs of one event in the arenas.
struct LabelIter<'a> {
    text: &'a str,
    ends: std::slice::Iter<'a, (usize, usize)>,
    at: usize,
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let &(key_end, value_end) = self.ends.next()?;
        let pair = (&self.text[self.at..key_end], &self.text[key_end..value_end]);
        self.at = value_end;
        Some(pair)
    }
}

/// [`TraceSink::write_jsonl`] hands its buffer to the writer whenever
/// it holds this much.
const WRITE_CHUNK: usize = 64 * 1024;

/// A cloneable, append-only event sink. Disabled sinks drop events at
/// the door so un-traced runs pay almost nothing.
#[derive(Clone)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<SinkInner>>>,
}

fn lock(inner: &Mutex<SinkInner>) -> MutexGuard<'_, SinkInner> {
    inner
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl TraceSink {
    /// An enabled sink.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(SinkInner::default()))),
        }
    }

    /// A sink that records nothing.
    #[inline]
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether events are recorded.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Append a fully formed event with the ids it carries (none is
    /// assigned here); its labels are stored sorted. Use
    /// [`TraceSink::event`], [`TraceSink::span`], or
    /// [`TraceSink::push_child`] when the sink should assign ids.
    pub fn push(&self, event: TraceEvent) {
        self.push_with(&event, |_| Ids {
            span_id: event.span_id,
            trace_id: event.trace_id,
            parent_id: event.parent_id,
        });
    }

    /// Append an event with ids allocated under the currently open
    /// span (the event becomes its child; a leaf, not itself openable).
    /// This is how instrumented components that time themselves (e.g.
    /// the observed KV client) join the causal tree.
    pub fn push_child(&self, event: TraceEvent) {
        self.push_with(&event, SinkInner::alloc);
    }

    fn push_with(&self, event: &TraceEvent, ids: impl FnOnce(&mut SinkInner) -> Ids) {
        if let Some(inner) = &self.inner {
            let mut guard = lock(inner);
            let ids = ids(&mut guard);
            guard.append(
                ids,
                event.ts_ms,
                event.dur_ms,
                (&event.span, &event.phase),
                event.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())),
            );
        }
    }

    /// Emit an instantaneous event stamped by `clock`, parented under
    /// the currently open span.
    pub fn event(&self, clock: &Clock, span: &str, phase: &str, labels: &[(&str, &str)]) {
        if let Some(inner) = &self.inner {
            let ts_ms = clock.now_ms();
            let mut guard = lock(inner);
            let ids = guard.alloc();
            guard.append(ids, ts_ms, 0.0, (span, phase), labels.iter().copied());
        }
    }

    /// Start an instantaneous event whose labels are formatted in
    /// place: add them to the returned timer, which emits the event
    /// (`dur_ms` = 0, one clock read, a leaf under the currently open
    /// span) when it drops — at the end of the statement, when used as
    /// one. On a disabled sink nothing is read or formatted at all.
    #[inline]
    #[must_use]
    pub fn point(&self, clock: &Clock, span: &str, phase: &str) -> SpanTimer {
        match &self.inner {
            Some(inner) => Armed::open(inner, None, clock.now_ms(), 0.0, span, phase),
            None => SpanTimer(None),
        }
    }

    /// [`TraceSink::push_child`] with labels formatted in place: a leaf
    /// under the currently open span covering an interval the caller
    /// timed itself (no clock is read), ids allocated now, emitted when
    /// the returned timer drops.
    #[inline]
    #[must_use]
    pub fn child(&self, ts_ms: u64, dur_ms: f64, span: &str, phase: &str) -> SpanTimer {
        match &self.inner {
            Some(inner) => Armed::open(inner, None, ts_ms, dur_ms, span, phase),
            None => SpanTimer(None),
        }
    }

    /// Start a span; the event is emitted when the returned
    /// [`SpanTimer`] drops (with `dur_ms` = clock delta). The span's id
    /// is allocated *now* and pushed on the open stack, so everything
    /// emitted before the drop becomes its descendant.
    #[inline]
    #[must_use]
    pub fn span(&self, clock: &Clock, span: &str, phase: &str) -> SpanTimer {
        match &self.inner {
            Some(inner) => Armed::open(inner, Some(clock), 0, 0.0, span, phase),
            None => SpanTimer(None),
        }
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => lock(inner).records.len(),
            None => 0,
        }
    }

    /// Whether the sink holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out all buffered events.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let guard = lock(inner);
        let mut events = Vec::with_capacity(guard.records.len());
        events.extend(guard.lines().map(|line| {
            TraceEvent {
                ts_ms: line.ts_ms,
                trace_id: line.ids.trace_id,
                span_id: line.ids.span_id,
                parent_id: line.ids.parent_id,
                span: line.span.to_string(),
                phase: line.phase.to_string(),
                labels: line
                    .labels
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                dur_ms: line.dur_ms,
            }
        }));
        events
    }

    /// Render every buffered event as JSONL (one event per line,
    /// trailing newline when non-empty) into one buffer.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        // Nothing is handed off, so nothing can fail.
        let _ = self.render(&mut out, usize::MAX, |_| Ok(()));
        out
    }

    /// Stream the same bytes [`TraceSink::to_jsonl`] returns into
    /// `out`, a bounded chunk at a time. The sink stays locked for the
    /// duration, so the export is one consistent snapshot.
    pub fn write_jsonl(&self, out: &mut impl io::Write) -> io::Result<()> {
        self.render(&mut String::new(), WRITE_CHUNK, |chunk| {
            out.write_all(chunk.as_bytes())?;
            chunk.clear();
            Ok(())
        })
    }

    /// Encode every event into `buf`, calling `full` each time it holds
    /// `chunk` bytes or more and once at the end.
    fn render(
        &self,
        buf: &mut String,
        chunk: usize,
        mut full: impl FnMut(&mut String) -> io::Result<()>,
    ) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let guard = lock(inner);
        buf.reserve(guard.jsonl_bytes.min(chunk.saturating_add(WRITE_CHUNK)));
        for line in guard.lines() {
            line.encode(buf);
            buf.push('\n');
            if buf.len() >= chunk {
                full(buf)?;
            }
        }
        full(buf)
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The state of a timer on an enabled sink.
struct Armed {
    sink: Arc<Mutex<SinkInner>>,
    /// An open span's clock, read once more at close. `None` for a
    /// leaf: its interval is already known and it never went on the
    /// open stack.
    clock: Option<Clock>,
    scratch: Scratch,
    start_ms: u64,
    dur_ms: f64,
    ids: Ids,
}

impl Armed {
    /// Allocate ids and take a buffer under one lock. With a `clock`
    /// this opens a span — pushed on the open stack, started at the
    /// clock's next reading — otherwise a leaf over the given interval.
    fn open(
        inner: &Arc<Mutex<SinkInner>>,
        clock: Option<&Clock>,
        ts_ms: u64,
        dur_ms: f64,
        span: &str,
        phase: &str,
    ) -> SpanTimer {
        let (ids, scratch) = {
            let mut guard = lock(inner);
            let ids = guard.alloc();
            if clock.is_some() {
                guard.open.push((ids.span_id, ids.trace_id));
            }
            (ids, guard.take_scratch(span, phase))
        };
        SpanTimer(Some(Armed {
            sink: Arc::clone(inner),
            start_ms: clock.map_or(ts_ms, Clock::now_ms),
            clock: clock.cloned(),
            scratch,
            dur_ms,
            ids,
        }))
    }

    /// Read the closing time, leave the open stack and append the
    /// event, the last two under one lock.
    fn close(self) {
        let dur_ms = match &self.clock {
            Some(clock) => clock.now_ms().saturating_sub(self.start_ms) as f64,
            None => self.dur_ms,
        };
        let mut guard = lock(&self.sink);
        if self.clock.is_some() {
            let span_id = self.ids.span_id;
            guard.open.retain(|&(id, _)| id != span_id);
        }
        guard.commit(self.ids, self.start_ms, dur_ms, self.scratch);
    }
}

/// RAII span: stamps the start on creation, emits the event with the
/// measured duration when dropped. On a disabled sink it is empty —
/// no clock, no buffer — and every label adder returns before
/// formatting anything.
pub struct SpanTimer(Option<Armed>);

impl SpanTimer {
    /// This span's allocated id (0 for a no-op span on a disabled
    /// sink). Lets emitters cross-reference the span in labels.
    #[inline]
    #[must_use]
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |armed| armed.ids.span_id)
    }

    /// Attach a label (builder style).
    #[inline]
    #[must_use]
    pub fn label(mut self, k: &str, v: &str) -> Self {
        self.add_label(k, v);
        self
    }

    /// Attach a label whose value is `v` as `{}` prints it, formatted
    /// straight into the span's buffer (builder style).
    #[inline]
    #[must_use]
    pub fn label_fmt(mut self, k: &str, v: impl fmt::Display) -> Self {
        self.add_label_fmt(k, v);
        self
    }

    /// Attach a float label under the trace policy: shortest
    /// round-trip decimal, non-finite values as `0` (builder style).
    #[inline]
    #[must_use]
    pub fn label_f64(mut self, k: &str, v: f64) -> Self {
        self.add_label_f64(k, v);
        self
    }

    /// Attach a label to a span by reference (for spans held across
    /// loop bodies).
    #[inline]
    pub fn add_label(&mut self, k: &str, v: &str) {
        if let Some(armed) = &mut self.0 {
            armed.scratch.label(k, |text| text.push_str(v));
        }
    }

    /// [`SpanTimer::label_fmt`] by reference.
    #[inline]
    pub fn add_label_fmt(&mut self, k: &str, v: impl fmt::Display) {
        if let Some(armed) = &mut self.0 {
            armed.scratch.label(k, |text| {
                let _ = write!(text, "{v}");
            });
        }
    }

    /// [`SpanTimer::label_f64`] by reference.
    #[inline]
    pub fn add_label_f64(&mut self, k: &str, v: f64) {
        if let Some(armed) = &mut self.0 {
            armed.scratch.label(k, |text| push_f64(text, v));
        }
    }

    /// End the span now (equivalent to dropping it).
    #[inline]
    pub fn finish(self) {}
}

impl Drop for SpanTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(armed) = self.0.take() {
            armed.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_line_matches_schema_golden() {
        let e = TraceEvent {
            ts_ms: 12,
            trace_id: 1,
            span_id: 3,
            parent_id: 1,
            span: "approval".to_string(),
            phase: "hose_approval".to_string(),
            labels: vec![("qos".to_string(), "C1".to_string())],
            dur_ms: 4.5,
        };
        assert_eq!(
            e.to_json_line(),
            r#"{"ts_ms":12,"trace_id":1,"span_id":3,"parent_id":1,"span":"approval","phase":"hose_approval","labels":{"qos":"C1"},"dur_ms":4.5}"#
        );
    }

    #[test]
    fn span_timer_measures_clock_delta() {
        let sink = TraceSink::new();
        let clock = Clock::manual(100);
        {
            let _t = sink.span(&clock, "kv", "aggregate").label("op", "sum");
            clock.set_ms(130);
        }
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ts_ms, 100);
        assert_eq!(events[0].dur_ms, 30.0);
        assert_eq!(
            events[0].labels,
            vec![("op".to_string(), "sum".to_string())]
        );
    }

    #[test]
    fn ids_form_a_tree() {
        let sink = TraceSink::new();
        let clock = Clock::counting(1);
        {
            let outer = sink.span(&clock, "a", "outer");
            {
                let _inner = sink.span(&clock, "a", "inner");
                sink.event(&clock, "a", "tick", &[]);
            }
            outer.finish();
        }
        sink.event(&clock, "a", "solo", &[]);
        let ev = sink.events();
        // Close order: inner's tick, inner, outer, solo.
        assert_eq!(ev.len(), 4);
        let outer = &ev[2];
        let inner = &ev[1];
        let tick = &ev[0];
        let solo = &ev[3];
        assert_eq!(outer.span_id, 1);
        assert_eq!(outer.parent_id, 0, "outer is a root");
        assert_eq!(outer.trace_id, outer.span_id);
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(inner.trace_id, outer.span_id);
        assert_eq!(tick.parent_id, inner.span_id);
        assert_eq!(tick.trace_id, outer.span_id);
        assert_eq!(solo.parent_id, 0, "emitted after the tree closed");
        assert_eq!(solo.trace_id, solo.span_id);
        // All span ids unique.
        let mut ids: Vec<u64> = ev.iter().map(|e| e.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn push_child_adopts_the_open_span() {
        let sink = TraceSink::new();
        let clock = Clock::manual(0);
        let outer = sink.span(&clock, "agent", "cycle");
        sink.push_child(TraceEvent::new(5, "kv", "put", Vec::new(), 2.0));
        let outer_id = outer.id();
        outer.finish();
        let ev = sink.events();
        assert_eq!(ev[0].span, "kv");
        assert_eq!(ev[0].parent_id, outer_id);
        assert_eq!(ev[0].trace_id, outer_id);
        assert!(ev[0].span_id != 0);
    }

    #[test]
    fn non_lifo_drop_keeps_stack_consistent() {
        let sink = TraceSink::new();
        let clock = Clock::manual(0);
        let a = sink.span(&clock, "x", "a");
        let b = sink.span(&clock, "x", "b");
        // Drop the outer first: inner must still close cleanly and
        // later events must not parent under a closed span.
        drop(a);
        drop(b);
        sink.event(&clock, "x", "after", &[]);
        let ev = sink.events();
        assert_eq!(ev[2].parent_id, 0, "stack fully drained");
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        let clock = Clock::counting(1);
        sink.event(&clock, "a", "b", &[]);
        {
            let t = sink.span(&clock, "a", "b");
            assert_eq!(t.id(), 0);
        }
        sink.push_child(TraceEvent::new(0, "a", "b", Vec::new(), 0.0));
        assert!(sink.is_empty());
        assert_eq!(sink.to_jsonl(), "");
    }

    #[test]
    fn labels_sorted_at_emit() {
        let sink = TraceSink::new();
        let clock = Clock::manual(0);
        {
            let _t = sink
                .span(&clock, "s", "p")
                .label("zeta", "1")
                .label("alpha", "2");
        }
        let line = sink.to_jsonl();
        let zeta = line.find("zeta").unwrap();
        let alpha = line.find("alpha").unwrap();
        assert!(alpha < zeta, "{line}");
    }

    #[test]
    fn jsonl_roundtrips_through_parser() {
        let sink = TraceSink::new();
        let clock = Clock::counting(3);
        sink.event(&clock, "risk", "sweep", &[("scenarios", "42")]);
        {
            let _t = sink.span(&clock, "agent", "cycle");
        }
        for line in sink.to_jsonl().lines() {
            let v = serde_json::parse(line).expect("valid json");
            for key in [
                "ts_ms",
                "trace_id",
                "span_id",
                "parent_id",
                "span",
                "phase",
                "labels",
                "dur_ms",
            ] {
                assert!(v.get(key).is_some(), "missing {key}");
            }
        }
    }
}
