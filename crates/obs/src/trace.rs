//! Structured span events and the JSONL trace sink.
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
//! * `labels` — a flat string→string object, keys strictly increasing;
//! * `dur_ms` — f64 duration (0 for instantaneous events; a negative
//!   or non-finite one is written as 0).
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
//! **Storage.** The sink's buffer *is* the JSONL it exports: an event
//! is encoded once, when it closes, onto the last of the sink's 1 MiB
//! pages of text (a page at a time, so nothing recorded ever moves);
//! a page holds nothing but its text. A dropped sink
//! leaves its pages, cleared, to the next sink on the same thread (at
//! most 32 of them wait), so trace after trace writes into the same
//! memory instead of handing it back to the allocator. A [`SpanTimer`]
//! writes each label straight into wire form — the fragment
//! `"key":"value",`, the value escaped as it is written — in a
//! `Scratch` buffer that the sink hands out when the span opens and
//! takes back when it closes, under the two locks a span takes anyway.
//! A label's key is a [`Key`], checked once where it is declared
//! ([`key!`](crate::key) for a literal, at compile time), so it is
//! copied with no scan, and each adder inlines into its emitter. Every
//! emitter adds its labels in strictly increasing key order (debug
//! builds check each add), so the buffer is the event's wire text and
//! moves to the sink as one copy. Numbers — floats included — are
//! written by `crate::decimal`, never through `core::fmt`, and a float
//! label is encoded once per distinct value: the buffer keeps a small
//! direct-mapped memo of the encoder's own output, keyed by the
//! value's bits. A timer
//! borrows its sink and clock, so opening and closing a span moves no
//! reference count. One encoder (`push_numbers`, `push_names`,
//! `push_label`, `push_tail`) is behind [`TraceEvent::to_json_line`]
//! and the sink; [`TraceSink::to_jsonl`] and
//! [`TraceSink::write_jsonl`] copy the buffer. One decoder,
//! the encoder's strict inverse (`read_event`), reads a line back:
//! [`TraceSink::events`] runs it over the buffer and
//! [`crate::parse_trace`] over a file. DESIGN.md §9 has the cost model
//! and the wire contract.

use crate::clock::Clock;
use crate::decimal::{push_finite, push_u64};
use std::borrow::Cow;
use std::cell::RefCell;
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
    /// Flat key→value labels, keys strictly increasing.
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

    pub(crate) fn bad(&self, key: &str, value: Option<&str>) -> BadLabel {
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
        let ids = Ids {
            span_id: self.span_id,
            trace_id: self.trace_id,
            parent_id: self.parent_id,
        };
        push_numbers(&mut out, ids, self.ts_ms);
        push_names(&mut out, &self.span, &self.phase);
        for (k, v) in &self.labels {
            push_label(&mut out, k, v);
        }
        push_tail(&mut out, self.dur_ms);
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

// The one encoder behind every trace export. A line is `push_numbers`,
// `push_names`, one `push_label` per label in increasing key order and
// `push_tail`; a name is written as the fragment a label would be.

/// Append a line up to its names.
fn push_numbers(out: &mut String, ids: Ids, ts_ms: u64) {
    out.push_str("{\"ts_ms\":");
    push_u64(out, ts_ms);
    out.push_str(",\"trace_id\":");
    push_u64(out, ids.trace_id);
    out.push_str(",\"span_id\":");
    push_u64(out, ids.span_id);
    out.push_str(",\"parent_id\":");
    push_u64(out, ids.parent_id);
    out.push(',');
}

/// What follows the names: the brace that opens the labels.
const LABELS_OPEN: &str = "\"labels\":{";

/// Append a line's names, up to and including [`LABELS_OPEN`]: each
/// written as the fragment a label would be.
fn push_names(out: &mut String, span: &str, phase: &str) {
    out.push_str("\"span\":\"");
    push_escaped(out, span);
    out.push_str("\",\"phase\":\"");
    push_escaped(out, phase);
    out.push_str("\",");
    out.push_str(LABELS_OPEN);
}

/// Append one label's fragment, `"key":"value",`, escaping both: the
/// form of an event built outside a sink, whose keys no [`Key`]
/// checked.
fn push_label(out: &mut String, key: &str, value: &str) {
    out.push('"');
    push_escaped(out, key);
    out.push_str("\":\"");
    push_escaped(out, value);
    out.push_str("\",");
}

/// Close the labels — the last fragment's comma goes — and the line
/// (no trailing newline). A duration that is not a positive number
/// (negative, `-0`, non-finite: none a valid span produces) is written
/// as `0`, so every line this writes reads back as itself.
fn push_tail(out: &mut String, dur_ms: f64) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("},\"dur_ms\":");
    push_f64(out, if dur_ms > 0.0 { dur_ms } else { 0.0 });
    out.push('}');
}

/// Append a float under the trace policy: what `{}` prints for it
/// ([`push_finite`]), non-finite values (which valid spans never
/// produce) as `0`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        push_finite(out, v);
    } else {
        out.push('0');
    }
}

/// Whether `s` is its own JSON string body: no quote, backslash or
/// control character, which is every key, every name and almost every
/// value. Values are short, so a byte loop that stops at the first
/// such byte is as fast as a block-wise scan of the whole string. A
/// `const fn`, so [`key!`](crate::key) runs it while the crate
/// compiles.
const fn is_plain(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut at = 0;
    while at < bytes.len() {
        let b = bytes[at];
        if b < 0x20 || b == b'"' || b == b'\\' {
            return false;
        }
        at += 1;
    }
    true
}

/// Append `s` as the body of a JSON string, escaped as
/// `serde::write_json_string` escapes it: the one escaper of the trace
/// line, for names and text values (and the keys of events built
/// outside a sink). Plain text, the common case, is one scan and one
/// copy.
#[inline]
fn push_escaped(out: &mut String, s: &str) {
    if is_plain(s) {
        out.push_str(s);
    } else {
        push_quoted(out, s);
    }
}

/// [`push_escaped`] for text that needs an escape.
#[cold]
#[inline(never)]
fn push_quoted(out: &mut String, s: &str) {
    let mut quoted = String::with_capacity(s.len() + 8);
    serde::write_json_string(s, &mut quoted);
    out.push_str(&quoted[1..quoted.len() - 1]);
}

/// A label key: text that is its own JSON string body — no quote,
/// backslash or control character — so an adder copies it onto the
/// wire as it is, with no scan. A key is checked once, where it is
/// made: a literal by [`key!`](crate::key) while the crate compiles,
/// a computed one by [`Key::new`] when it is built. No key that needs
/// an escape exists, so none is ever written, and the reader refuses
/// one on the wire.
///
/// `S` is the text's owner: a literal is a `Key<&'static str>`, a
/// computed key kept for reuse a `Key<String>`, and the adders take
/// the `Key<&str>` that [`Key::borrowed`] lends of either.
///
/// ```
/// use entitlement_obs::{key, Clock, Key, Obs};
///
/// let obs = Obs::new(Clock::manual(0));
/// let shard = Key::new(format!("s{}", 3)).expect("no quote, backslash or control character");
/// obs.point("fleet", "shard")
///     .label_fmt(key!("hosts"), 8)
///     .label_f64(shard.borrowed(), 0.5)
///     .finish();
/// assert!(obs.trace.to_jsonl().contains(r#""labels":{"hosts":"8","s3":"0.5"}"#));
/// assert!(Key::new("say \"hi\"").is_none());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key<S = &'static str>(S);

impl Key {
    /// What [`key!`](crate::key) evaluates in a `const`: `text` as a
    /// key, or a panic — so a compile error there — when it needs an
    /// escape.
    #[doc(hidden)]
    #[must_use]
    pub const fn literal(text: &'static str) -> Key {
        assert!(is_plain(text), "a label key holds no quote, backslash or control character");
        Key(text)
    }
}

impl<S: AsRef<str>> Key<S> {
    /// `text` as a key, if it needs no escape: the one run-time check
    /// of a computed key. Build it once and write it through
    /// [`Key::borrowed`] as often as needed.
    #[must_use]
    pub fn new(text: S) -> Option<Self> {
        is_plain(text.as_ref()).then_some(Key(text))
    }

    /// The key's text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        self.0.as_ref()
    }

    /// The key lent to an adder: no check, no copy.
    #[inline]
    #[must_use]
    pub fn borrowed(&self) -> Key<&str> {
        Key(self.0.as_ref())
    }
}

// The encoder's inverse, the one reader of the trace line: for the
// sink's own lines and, through `parse_trace`, for files. Strict on
// text: it yields a string only for the bytes the functions above
// would have written for it.

/// The text a JSON string body stands for.
fn unescape(body: &str) -> Option<Cow<'_, str>> {
    if is_plain(body) {
        return Some(Cow::Borrowed(body));
    }
    let mut text = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find('\\') {
        text.push_str(&rest[..at]);
        let (c, len) = match rest.as_bytes().get(at + 1)? {
            b'"' => ('"', 2),
            b'\\' => ('\\', 2),
            b'n' => ('\n', 2),
            b'r' => ('\r', 2),
            b't' => ('\t', 2),
            b'u' => {
                let code = u32::from_str_radix(rest.get(at + 2..at + 6)?, 16).ok()?;
                (char::from_u32(code)?, 6)
            }
            _ => return None,
        };
        text.push(c);
        rest = &rest[at + len..];
    }
    text.push_str(rest);
    // Only the one spelling the encoder gives this text.
    let mut wire = String::with_capacity(body.len());
    push_escaped(&mut wire, &text);
    (wire == body).then_some(Cow::Owned(text))
}

/// Read one JSON string off the front of `s`: its text and what
/// follows its closing quote.
fn read_json_str(s: &str) -> Option<(Cow<'_, str>, &str)> {
    let s = s.strip_prefix('"')?;
    let bytes = s.as_bytes();
    let mut end = 0;
    while *bytes.get(end)? != b'"' {
        end += if bytes[end] == b'\\' { 2 } else { 1 };
    }
    Some((unescape(&s[..end])?, &s[end + 1..]))
}

/// The four numbers that open a line, each with the key before it.
const NUMBERS: [(&str, &str); 4] = [
    ("{\"ts_ms\":", "ts_ms"),
    (",\"trace_id\":", "trace_id"),
    (",\"span_id\":", "span_id"),
    (",\"parent_id\":", "parent_id"),
];

/// The event one line (without its newline) stands for, or the key of
/// the first field that does not read. `ts_ms` and the ids are read
/// from their digits, exact for every `u64`; `dur_ms` from its text;
/// the strings through [`unescape`]; a label key must be plain text (no
/// writer escapes one: see [`Key`]) and keys must strictly increase.
/// A number's spelling is not checked (`007`, `1e3`, `-1` read as
/// numbers): `parse_trace` re-encodes what this returns and compares,
/// and the sink's own lines are the encoder's by construction.
pub(crate) fn read_event(line: &str) -> Result<TraceEvent, &'static str> {
    let mut rest = line;
    let mut numbers = [0u64; 4];
    for (number, (key, name)) in numbers.iter_mut().zip(NUMBERS) {
        let digits = rest.strip_prefix(key).ok_or(name)?;
        let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap_or(digits.len());
        *number = digits[..end].parse().map_err(|_| name)?;
        rest = &digits[end..];
        if !rest.starts_with(',') {
            return Err(name);
        }
    }
    let [ts_ms, trace_id, span_id, parent_id] = numbers;
    let (span, rest) = rest.strip_prefix(",\"span\":").and_then(read_json_str).ok_or("span")?;
    let (phase, rest) = rest.strip_prefix(",\"phase\":").and_then(read_json_str).ok_or("phase")?;
    let mut rest = rest.strip_prefix(",\"labels\":{").ok_or("labels")?;
    let mut labels = Vec::new();
    while !rest.starts_with('}') {
        let label = read_json_str(rest).and_then(|(key, after)| {
            // Borrowed exactly when the key's wire text holds no escape.
            let Cow::Borrowed(key) = key else {
                return None;
            };
            let (value, after) = read_json_str(after.strip_prefix(':')?)?;
            let next = match after.strip_prefix(',') {
                Some(next) if next.starts_with('"') => next,
                None if after.starts_with('}') => after,
                _ => return None,
            };
            Some(((key.to_string(), value.into_owned()), next))
        });
        let (label, next) = label.ok_or("labels")?;
        if labels.last().is_some_and(|(last, _): &(String, String)| *last >= label.0) {
            return Err("labels");
        }
        labels.push(label);
        rest = next;
    }
    let dur_ms = rest.strip_prefix("},\"dur_ms\":").and_then(|dur| dur.strip_suffix('}'));
    let dur_ms = dur_ms.and_then(|dur| dur.parse().ok()).ok_or("dur_ms")?;
    Ok(TraceEvent {
        ts_ms,
        trace_id,
        span_id,
        parent_id,
        span: span.into_owned(),
        phase: phase.into_owned(),
        labels,
        dur_ms,
    })
}

/// Slots of a buffer's float memo (a power of two).
const MEMO_SLOTS: usize = 4096;
/// Longest text a memo slot holds: every float the admission path
/// writes is shorter, and the rare `1e300` is formatted each time.
const MEMO_TEXT: usize = 24;

/// One direct-mapped memo entry: what the formatter wrote for `bits`.
#[derive(Clone, Copy)]
struct MemoSlot {
    bits: u64,
    /// 0 = empty: no float formats to nothing.
    len: u8,
    text: [u8; MEMO_TEXT],
}

impl MemoSlot {
    const EMPTY: MemoSlot = MemoSlot {
        bits: 0,
        len: 0,
        text: [0; MEMO_TEXT],
    };
}

/// [`push_f64`] through `memo`: a value whose bits are in its slot is
/// copied, any other is formatted and takes the slot over. The cached
/// text is `push_f64`'s own output for the same bits, so the bytes are
/// the same either way.
#[inline]
fn push_f64_memo(memo: &mut [MemoSlot], out: &mut String, v: f64) {
    let bits = v.to_bits();
    // Fibonacci hashing: the product's top bits depend on all of `bits`.
    let at = bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - MEMO_SLOTS.trailing_zeros());
    let Some(slot) = memo.get_mut(at as usize) else {
        return push_f64(out, v);
    };
    if slot.len > 0 && slot.bits == bits {
        if let Ok(text) = std::str::from_utf8(&slot.text[..usize::from(slot.len)]) {
            return out.push_str(text);
        }
    }
    push_f64_into(slot, out, v);
}

/// The memo's miss: format `v` onto `out` and keep the text in `slot`
/// when it fits.
#[inline(never)]
fn push_f64_into(slot: &mut MemoSlot, out: &mut String, v: f64) {
    let start = out.len();
    push_f64(out, v);
    let text = &out.as_bytes()[start..];
    if let Some(cached) = slot.text.get_mut(..text.len()) {
        cached.copy_from_slice(text);
        slot.bits = v.to_bits();
        slot.len = text.len() as u8;
    }
}

/// The write buffer of one event in flight: its wire text from the
/// names on — the two name fragments, [`LABELS_OPEN`], then each
/// label's fragment, in the order the emitter added them: strictly
/// increasing key order, which debug builds check at each add and the
/// reader checks on every line. Owned by the sink's pool between
/// events, so a steady stream of spans writes into the same few
/// buffers and finds its floats in the same few memos.
#[derive(Default)]
struct Scratch {
    text: String,
    /// Where in `text` the last label's key is written.
    #[cfg(debug_assertions)]
    last_key: Option<std::ops::Range<usize>>,
    /// Empty until this buffer's first float label.
    memo: Vec<MemoSlot>,
}

impl Scratch {
    fn begin(&mut self, span: &str, phase: &str) {
        self.text.clear();
        #[cfg(debug_assertions)]
        {
            self.last_key = None;
        }
        push_names(&mut self.text, span, phase);
    }

    /// Open a label, `"key":"` — the key copied as it is, a [`Key`]
    /// needs no escape — and hand back the text its value goes on; the
    /// adder closes it with `",`.
    #[inline]
    fn open(&mut self, key: Key<&str>) -> &mut String {
        #[cfg(debug_assertions)]
        self.check_order(key.0);
        let text = &mut self.text;
        text.push('"');
        text.push_str(key.0);
        text.push_str("\":\"");
        text
    }

    /// Panic unless `key` sorts after the last key added: a [`Key`] is
    /// its own wire text, so the two compare as written.
    #[cfg(debug_assertions)]
    fn check_order(&mut self, key: &str) {
        let at = self.text.len() + 1;
        if let Some(last) = self.last_key.replace(at..at + key.len()) {
            let last = &self.text[last];
            assert!(last < key, "label `{key}` added after `{last}`: add labels in increasing key order");
        }
    }

    /// Add a float label through the memo.
    #[inline]
    fn label_f64(&mut self, key: Key<&str>, v: f64) {
        if self.memo.is_empty() {
            self.memo = new_memo();
        }
        self.open(key);
        push_f64_memo(&mut self.memo, &mut self.text, v);
        self.text.push_str("\",");
    }
}

/// An empty float memo: a buffer's first float label allocates it.
#[cold]
fn new_memo() -> Vec<MemoSlot> {
    vec![MemoSlot::EMPTY; MEMO_SLOTS]
}

/// A page takes lines until its text holds this much: the sink's
/// buffer grows a page at a time and never moves what it holds. (As
/// one `String` it doubled, and whether the allocator could reuse the
/// 32 MB block the last doubling of a 50 k-admit trace left behind
/// moved the process's peak by 20 MB from run to run.)
const PAGE: usize = 1 << 20;
/// A page's text capacity: room for the line that crosses the mark.
const PAGE_TEXT: usize = PAGE + PAGE / 256;
/// Most spare pages one thread keeps (≈ 40 MB).
const SPARE_PAGES: usize = 32;

thread_local! {
    /// Cleared pages that sinks dropped on this thread left behind,
    /// taken by the next sink before it allocates one.
    static SPARE: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// A spare page of this thread's, or a new one.
fn take_page() -> String {
    let spare = SPARE.try_with(|spare| spare.borrow_mut().pop());
    spare.ok().flatten().unwrap_or_else(|| String::with_capacity(PAGE_TEXT))
}

#[derive(Default)]
struct SinkInner {
    /// Every event, in emit order: pages of canonical lines, each
    /// newline-terminated, never empty while the sink holds them. End
    /// to end they are the bytes every export copies.
    pages: Vec<String>,
    /// Next span id to hand out; ids start at 1 so 0 can mean "root".
    next_id: u64,
    /// Open spans, innermost last: `(span_id, trace_id)`.
    open: Vec<(u64, u64)>,
    /// Scratch buffers not in use by an open span. Boxed, so a
    /// [`SpanTimer`] — moved by value through every builder call,
    /// enabled or not — carries a pointer and not the buffer's fields.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<Scratch>>,
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

    fn take_scratch(&mut self, span: &str, phase: &str) -> Box<Scratch> {
        let mut scratch = self.pool.pop().unwrap_or_default();
        scratch.begin(span, phase);
        scratch
    }

    /// Append the event in `scratch` to the buffer — its numbers, a
    /// copy of its wire text, its tail — and return the buffer to the
    /// pool.
    fn commit(&mut self, ids: Ids, ts_ms: u64, dur_ms: f64, scratch: Box<Scratch>) {
        if self.pages.last().is_none_or(|page| page.len() >= PAGE) {
            self.pages.push(take_page());
        }
        let last = self.pages.len() - 1;
        let out = &mut self.pages[last];
        push_numbers(out, ids, ts_ms);
        out.push_str(&scratch.text);
        push_tail(out, dur_ms);
        out.push('\n');
        self.pool.push(scratch);
    }
}

impl Drop for SinkInner {
    /// Hand the pages still the size [`take_page`] makes them (a line
    /// longer than the room past the mark grows one), cleared, to this
    /// thread's spares, up to [`SPARE_PAGES`]; the rest are freed.
    fn drop(&mut self) {
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let full_size = |page: &String| page.capacity() == PAGE_TEXT;
            for mut page in self.pages.drain(..).filter(full_size) {
                if spare.len() == SPARE_PAGES {
                    break;
                }
                page.clear();
                spare.push(page);
            }
        });
    }
}

/// [`TraceSink::write_jsonl`] hands the writer this much at a time.
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

    /// Start an instantaneous event whose labels are formatted in
    /// place: add them to the returned timer, which emits the event
    /// (`dur_ms` = 0, one clock read, a leaf under the currently open
    /// span) when it drops — at the end of the statement, when used as
    /// one. On a disabled sink nothing is read or formatted at all.
    #[inline]
    #[must_use]
    pub fn point(&self, clock: &Clock, span: &str, phase: &str) -> SpanTimer<'_> {
        match &self.inner {
            Some(inner) => Armed::open(inner, None, clock.now_ms(), 0.0, span, phase),
            None => SpanTimer(None),
        }
    }

    /// A leaf under the currently open span covering an interval the
    /// caller timed itself (no clock is read), labels formatted in
    /// place, ids allocated now, emitted when the returned timer drops.
    /// This is how traced components that time themselves (e.g. the
    /// observed KV client) join the causal tree.
    #[inline]
    #[must_use]
    pub fn child(&self, ts_ms: u64, dur_ms: f64, span: &str, phase: &str) -> SpanTimer<'_> {
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
    pub fn span<'a>(&'a self, clock: &'a Clock, span: &str, phase: &str) -> SpanTimer<'a> {
        match &self.inner {
            Some(inner) => Armed::open(inner, Some(clock), 0, 0.0, span, phase),
            None => SpanTimer(None),
        }
    }

    /// Number of buffered events: the lines on the pages.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => lock(inner)
                .pages
                .iter()
                .map(|page| page.bytes().filter(|&b| b == b'\n').count())
                .sum(),
            None => 0,
        }
    }

    /// Whether the sink holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner
            .as_ref()
            .is_none_or(|inner| lock(inner).pages.is_empty())
    }

    /// Copy out all buffered events, read back from the buffer's own
    /// lines by the reader [`crate::parse_trace`] uses, so they are
    /// exactly what the file this sink writes reads as. A line the
    /// encoder did not write — a bug in this module, nothing a caller
    /// can cause — trips a debug assertion and is left out; telemetry
    /// does not panic the run it describes.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let guard = lock(inner);
        let lines = guard.pages.iter().flat_map(|page| page.split_terminator('\n'));
        lines
            .filter_map(|line| {
                let event = read_event(line).ok();
                debug_assert!(event.is_some(), "not the encoder's: {line:?}");
                event
            })
            .collect()
    }

    /// Every buffered event as JSONL (one event per line, trailing
    /// newline when non-empty): a copy of the sink's buffer.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        match &self.inner {
            Some(inner) => {
                let guard = lock(inner);
                let bytes = guard.pages.iter().map(String::len).sum();
                let mut out = String::with_capacity(bytes);
                for page in &guard.pages {
                    out.push_str(page);
                }
                out
            }
            None => String::new(),
        }
    }

    /// Write the same bytes [`TraceSink::to_jsonl`] returns to `out`, a
    /// bounded chunk at a time and without copying them first. The
    /// sink stays locked for the duration, so the export is one
    /// consistent snapshot.
    ///
    /// # Errors
    ///
    /// The first error `out` reports; nothing more is written after it.
    pub fn write_jsonl(&self, out: &mut impl io::Write) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let guard = lock(inner);
        guard
            .pages
            .iter()
            .flat_map(|page| page.as_bytes().chunks(WRITE_CHUNK))
            .try_for_each(|chunk| out.write_all(chunk))
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The state of a timer on an enabled sink. It borrows the sink and
/// the clock: opening and closing a span clones no `Arc`.
struct Armed<'a> {
    sink: &'a Mutex<SinkInner>,
    /// An open span's clock, read once more at close. `None` for a
    /// leaf: its interval is already known and it never went on the
    /// open stack.
    clock: Option<&'a Clock>,
    scratch: Box<Scratch>,
    start_ms: u64,
    dur_ms: f64,
    ids: Ids,
}

impl<'a> Armed<'a> {
    /// Allocate ids and take a buffer under one lock. With a `clock`
    /// this opens a span — pushed on the open stack, started at the
    /// clock's next reading — otherwise a leaf over the given interval.
    fn open(
        inner: &'a Mutex<SinkInner>,
        clock: Option<&'a Clock>,
        ts_ms: u64,
        dur_ms: f64,
        span: &str,
        phase: &str,
    ) -> SpanTimer<'a> {
        let (ids, scratch) = {
            let mut guard = lock(inner);
            let ids = guard.alloc();
            if clock.is_some() {
                guard.open.push((ids.span_id, ids.trace_id));
            }
            (ids, guard.take_scratch(span, phase))
        };
        SpanTimer(Some(Armed {
            sink: inner,
            start_ms: clock.map_or(ts_ms, Clock::now_ms),
            clock,
            scratch,
            dur_ms,
            ids,
        }))
    }

    /// Read the closing time, leave the open stack and append the
    /// event, the last two under one lock; returns its `dur_ms`.
    fn close(self) -> f64 {
        let dur_ms = match self.clock {
            Some(clock) => clock.now_ms().saturating_sub(self.start_ms) as f64,
            None => self.dur_ms,
        };
        let mut guard = lock(self.sink);
        if self.clock.is_some() {
            let span_id = self.ids.span_id;
            guard.open.retain(|&(id, _)| id != span_id);
        }
        guard.commit(self.ids, self.start_ms, dur_ms, self.scratch);
        dur_ms
    }
}

/// RAII span: stamps the start on creation, emits the event with the
/// measured duration when dropped. It borrows the sink (and an open
/// span's clock) for as long as it lives. On a disabled sink it is
/// empty — no clock, no buffer — and every label adder returns before
/// formatting anything.
pub struct SpanTimer<'a>(Option<Armed<'a>>);

impl SpanTimer<'_> {
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
    pub fn label(mut self, k: Key<&str>, v: &str) -> Self {
        self.add_label(k, v);
        self
    }

    /// Attach a label whose value is `v` as `{}` prints it, formatted
    /// straight into the span's buffer (builder style).
    #[inline]
    #[must_use]
    pub fn label_fmt(mut self, k: Key<&str>, v: impl fmt::Display) -> Self {
        self.add_label_fmt(k, v);
        self
    }

    /// Attach a float label under the trace policy: shortest
    /// round-trip decimal, non-finite values as `0` (builder style).
    #[inline]
    #[must_use]
    pub fn label_f64(mut self, k: Key<&str>, v: f64) -> Self {
        self.add_label_f64(k, v);
        self
    }

    /// Attach a label to a span by reference (for spans held across
    /// loop bodies).
    #[inline]
    pub fn add_label(&mut self, k: Key<&str>, v: &str) {
        if let Some(armed) = &mut self.0 {
            let text = armed.scratch.open(k);
            push_escaped(text, v);
            text.push_str("\",");
        }
    }

    /// [`SpanTimer::label_fmt`] by reference.
    #[inline]
    pub fn add_label_fmt(&mut self, k: Key<&str>, v: impl fmt::Display) {
        if let Some(armed) = &mut self.0 {
            let text = armed.scratch.open(k);
            let start = text.len();
            let _ = write!(text, "{v}");
            if !is_plain(&text[start..]) {
                let raw = text.split_off(start);
                push_quoted(text, &raw);
            }
            text.push_str("\",");
        }
    }

    /// Attach a label whose value is `prefix` followed by `v` in
    /// decimal — what `{}` prints for an id such as `r3` or `s0` —
    /// without going through `core::fmt`.
    #[inline]
    pub fn add_label_u64(&mut self, k: Key<&str>, prefix: &str, v: u64) {
        if let Some(armed) = &mut self.0 {
            let text = armed.scratch.open(k);
            push_escaped(text, prefix);
            push_u64(text, v);
            text.push_str("\",");
        }
    }

    /// [`SpanTimer::label_f64`] by reference.
    #[inline]
    pub fn add_label_f64(&mut self, k: Key<&str>, v: f64) {
        if let Some(armed) = &mut self.0 {
            armed.scratch.label_f64(k, v);
        }
    }

    /// End the span now (equivalent to dropping it).
    #[inline]
    pub fn finish(self) {}

    /// End the span now and hand back its duration (an open span's
    /// clock delta); `None` on a disabled sink, which read no clock.
    #[inline]
    pub fn finish_ms(mut self) -> Option<f64> {
        self.0.take().map(Armed::close)
    }
}

impl Drop for SpanTimer<'_> {
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
    use crate::key;

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
    fn the_reader_takes_only_the_encoders_own_spelling() {
        let text = "quote \" backslash \\ bell \u{7} tab \t é";
        let mut wire = String::new();
        serde::write_json_string(text, &mut wire);
        let (read, rest) = read_json_str(&wire).expect("the encoder's own output");
        assert_eq!((read.as_ref(), rest), (text, ""));
        // Valid JSON strings the encoder never writes, and broken ones.
        for body in [
            r"\u0041",  // an escape where the letter itself goes
            r"\u001F",  // upper-case hex
            r"\u0009",  // a tab is spelled \t
            r"\/",      // a solidus is never escaped
            r"\x41",
            r"\u00",
            "\\",
            "raw \u{1} control",
            "raw \" quote",
        ] {
            assert_eq!(unescape(body), None, "{body:?}");
        }
        assert_eq!(read_json_str("\"unterminated"), None);
        assert_eq!(read_json_str("\"ends on a backslash\\"), None);

        let event = TraceEvent {
            ts_ms: 5,
            trace_id: 1,
            span_id: 2,
            parent_id: 1,
            span: "s\"".to_string(),
            phase: "p".to_string(),
            labels: vec![("k".to_string(), "v\n".to_string()), ("l".to_string(), String::new())],
            dur_ms: 1.5,
        };
        let line = event.to_json_line();
        assert_eq!(read_event(&line), Ok(event));
        for (from, to, field) in [
            ("\"ts_ms\":5", "\"ts_ms\":", "ts_ms"),
            ("\"ts_ms\":5", "\"ts_ms\":5.0", "ts_ms"),
            ("\"span_id\":2", "\"span_id\":-2", "span_id"),
            ("\"span_id\":2", "\"span_id\":18446744073709551616", "span_id"),
            ("\"parent_id\":1", "\"parent_id\":1e3", "parent_id"),
            ("\"span\":", "\"span\": ", "span"),
            (",\"l\":\"\"", ",\"l\":\"\",", "labels"),
            (",\"l\":\"\"", "\"l\":\"\"", "labels"),
            (",\"l\":\"\"", ",\"l\":7", "labels"),
            ("\"dur_ms\":1.5", "\"dur_ms\":x", "dur_ms"),
            // (Braces spelled as escapes: `xtask lint` finds the end of
            // this module by counting them.)
            ("1.5\u{7d}", "1.5", "dur_ms"),
            ("1.5\u{7d}", "1.5\u{7d}\n", "dur_ms"),
            ("\u{7b}\"ts_ms\"", " \u{7b}\"ts_ms\"", "ts_ms"),
        ] {
            let broken = line.replacen(from, to, 1);
            assert_ne!(broken, line, "{from} is in the line");
            assert_eq!(read_event(&broken), Err(field), "{broken}");
        }
        // Every id up to `u64::MAX` reads exactly.
        let far = TraceEvent {
            ts_ms: u64::MAX,
            trace_id: u64::MAX - 1,
            span_id: (1 << 53) + 1,
            parent_id: 16_131_454_690_887_550_962,
            ..read_event(&line).expect("the line above")
        };
        assert_eq!(read_event(&far.to_json_line()), Ok(far));
    }

    #[test]
    fn span_timer_measures_clock_delta() {
        let sink = TraceSink::new();
        let clock = Clock::manual(100);
        {
            let _t = sink.span(&clock, "kv", "aggregate").label(key!("op"), "sum");
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
    fn finish_ms_hands_back_the_written_duration() {
        let sink = TraceSink::new();
        let clock = Clock::counting(3);
        assert_eq!(sink.span(&clock, "a", "open").finish_ms(), Some(3.0));
        assert_eq!(sink.child(7, 2.5, "a", "leaf").finish_ms(), Some(2.5));
        let durations: Vec<f64> = sink.events().iter().map(|e| e.dur_ms).collect();
        assert_eq!(durations, [3.0, 2.5]);
        assert_eq!(clock.now_ms(), 6, "an open span reads the clock twice");
        let off = TraceSink::disabled();
        assert_eq!(off.span(&clock, "a", "off").finish_ms(), None);
        assert_eq!(clock.now_ms(), 9, "a disabled span reads no clock");
    }

    #[test]
    fn ids_form_a_tree() {
        let sink = TraceSink::new();
        let clock = Clock::counting(1);
        {
            let outer = sink.span(&clock, "a", "outer");
            {
                let _inner = sink.span(&clock, "a", "inner");
                sink.point(&clock, "a", "tick").finish();
            }
            outer.finish();
        }
        sink.point(&clock, "a", "solo").finish();
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
    fn a_child_adopts_the_open_span() {
        let sink = TraceSink::new();
        let clock = Clock::manual(0);
        let outer = sink.span(&clock, "agent", "cycle");
        sink.child(5, 2.0, "kv", "put").finish();
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
        sink.point(&clock, "x", "after").finish();
        let ev = sink.events();
        assert_eq!(ev[2].parent_id, 0, "stack fully drained");
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        let clock = Clock::counting(1);
        sink.point(&clock, "a", "b").finish();
        {
            let t = sink.span(&clock, "a", "b");
            assert_eq!(t.id(), 0);
        }
        sink.child(0, 0.0, "a", "b").finish();
        assert!(sink.is_empty());
        assert_eq!(sink.to_jsonl(), "");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "label `alpha` added after `zeta`")]
    fn a_label_added_out_of_key_order_panics_in_debug_builds() {
        let sink = TraceSink::new();
        let clock = Clock::manual(0);
        let _t = sink
            .span(&clock, "s", "p")
            .label(key!("zeta"), "1")
            .label(key!("alpha"), "2");
    }

    /// How many spare pages this thread holds.
    fn spare_pages() -> usize {
        SPARE.with(|spare| spare.borrow().len())
    }

    /// Run `f` on a thread of its own, whose spare store starts empty.
    fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().expect("the test thread"))
    }

    /// `events` spans, each labelled with `label`, an ordinal and a float.
    fn write(sink: &TraceSink, events: usize, label: &str) {
        let clock = Clock::counting(1);
        for i in 0..events {
            sink.span(&clock, "s", "p")
                .label_fmt(key!("i"), i)
                .label(key!("k"), label)
                .label_f64(key!("x"), i as f64 / 3.0)
                .finish();
        }
    }

    #[test]
    fn a_sink_on_recycled_pages_exports_what_a_fresh_one_does() {
        // ≈ 300-byte lines over two pages.
        let label = "short label ".repeat(12);
        let export = |sink: &TraceSink| {
            let mut written = Vec::new();
            sink.write_jsonl(&mut written).expect("a Vec takes every byte");
            (sink.to_jsonl(), written, sink.events())
        };
        let fresh = on_fresh_thread(|| {
            let sink = TraceSink::new();
            write(&sink, 7_000, &label);
            export(&sink)
        });
        let recycled = on_fresh_thread(|| {
            // Longer, different labels over three pages, then dropped.
            write(&TraceSink::new(), 5_000, &"a longer label ".repeat(30));
            let kept = spare_pages();
            assert_eq!(kept, 3, "the dropped sink's pages");
            let sink = TraceSink::new();
            write(&sink, 7_000, &label);
            assert_eq!(spare_pages(), kept - 2, "the second sink wrote on two of them");
            export(&sink)
        });
        assert!(fresh.0.len() > PAGE, "the trace spans two pages");
        assert_eq!(fresh.0, recycled.0, "to_jsonl");
        assert_eq!(fresh.1, recycled.1, "write_jsonl");
        assert_eq!(fresh.1, fresh.0.as_bytes());
        assert_eq!(fresh.2, recycled.2, "events");
    }

    #[test]
    fn the_spare_store_never_exceeds_its_cap() {
        on_fresh_thread(|| {
            // ≈ 3 KB lines, ≈ 340 to a page: three pages past the cap.
            let sink = TraceSink::new();
            write(&sink, 340 * (SPARE_PAGES + 3), &"x".repeat(3_000));
            drop(sink);
            assert_eq!(spare_pages(), SPARE_PAGES);
            write(&TraceSink::new(), 1, "small");
            assert_eq!(spare_pages(), SPARE_PAGES, "a small sink takes one and gives it back");
        });
    }

    #[test]
    fn a_page_that_grew_past_the_full_size_is_not_kept() {
        on_fresh_thread(|| {
            write(&TraceSink::new(), 1, "small");
            assert_eq!(spare_pages(), 1, "a full-size page is kept");
            // A line longer than the page's room grows its text.
            write(&TraceSink::new(), 1, &"y".repeat(PAGE_TEXT));
            assert_eq!(spare_pages(), 0, "a page a long line grew");
        });
    }

    #[test]
    fn short_lines_recycle_their_pages() {
        on_fresh_thread(|| {
            // ≈ 110-byte lines, ≈ 9 000 to a page: three pages.
            const EVENTS: u64 = 20_000;
            let write = |sink: &TraceSink| {
                let clock = Clock::counting(1);
                for i in 0..EVENTS {
                    sink.point(&clock, "s", "p").label_fmt(key!("i"), i).finish();
                }
                sink.to_jsonl()
            };
            let first = write(&TraceSink::new());
            let line = first.len() as u64 / EVENTS;
            assert!((100..=120).contains(&line), "{line}-byte lines");
            assert_eq!(first.len().div_ceil(PAGE), 3, "{} bytes", first.len());
            assert_eq!(spare_pages(), 3, "every page the short lines filled");
            let sink = TraceSink::new();
            assert_eq!(write(&sink), first);
            assert_eq!(spare_pages(), 0, "the next sink wrote on all three");
        });
    }
}
