//! Offline analysis of emitted telemetry: parse a JSONL trace back
//! into events, render a per-phase latency table, validate a
//! Prometheus text exposition payload, and diff two telemetry files
//! with parsed context. This is what backs `entitlectl obs summarize`
//! / `obs diff` and the CI telemetry checks; span-tree reconstruction
//! and flamegraph export live in [`crate::tree`].

use crate::metrics::Histogram;
use crate::trace::{read_event, TraceEvent};
use crate::tree::{build_span_forest, self_time_ms};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parse a JSONL trace: one event per line, each exactly as
/// [`TraceEvent::to_json_line`] writes it — the keys `ts_ms`,
/// `trace_id`, `span_id`, `parent_id`, `span`, `phase`, `labels`,
/// `dur_ms` in that order, label keys strictly increasing, no
/// whitespace, strings escaped as the encoder escapes them, numbers as
/// it prints them. Blank lines are
/// skipped. The reader is the sink's own ([`TraceSink::events`]):
/// ids are read from their digits, exact up to `u64::MAX`, and a line
/// is accepted only if encoding the event read from it gives the line
/// back byte for byte, so no other spelling of an event — `1e3`, a
/// sign, a leading zero, a space, `\u0041` for `A`, reordered keys —
/// is taken for one. `span_id` 0 is refused too: ids start at 1.
///
/// # Errors
///
/// `line N: …` for the first line refused, naming the field that did
/// not read or the column where the line leaves the encoder's spelling.
///
/// [`TraceSink::events`]: crate::TraceSink::events
pub fn parse_trace(jsonl: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in jsonl.split('\n').enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(read_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

/// One line of a trace file, read as [`parse_trace`] reads it.
fn read_line(line: &str) -> Result<TraceEvent, String> {
    let event = read_event(line).map_err(|field| format!("cannot read `{field}`"))?;
    let canonical = event.to_json_line();
    if canonical != line {
        let same = canonical.bytes().zip(line.bytes()).take_while(|(a, b)| a == b).count();
        return Err(format!(
            "not spelled as the encoder writes its event, from column {}",
            same + 1
        ));
    }
    if event.span_id == 0 {
        return Err("`span_id` must be ≥ 1".to_string());
    }
    Ok(event)
}

/// Per-event *self* durations: duration minus children's durations
/// when the v2 ids reconstruct a forest, raw duration otherwise (a
/// hand-built or partial trace still summarizes, it just can't be
/// de-nested). A parent span's `dur_ms` covers its children, so rolling
/// up raw durations counts every nested child once in its own row *and
/// again* inside each ancestor — self-time is what makes per-phase
/// totals additive.
fn self_durations(events: &[TraceEvent]) -> Vec<f64> {
    match build_span_forest(events) {
        Ok(forest) => (0..events.len())
            .map(|i| self_time_ms(&forest, events, i))
            .collect(),
        Err(_) => events.iter().map(|e| e.dur_ms.max(0.0)).collect(),
    }
}

/// Render a per-`(span, phase)` latency table: event count, total and
/// mean duration, p50/p95/p99.9 estimates, and max. Rows sort by span
/// then phase; durations are per-event **self-time** (children
/// subtracted) in whatever unit the trace used (milliseconds for every
/// emitter in this workspace).
#[must_use]
pub fn summarize_trace(events: &[TraceEvent]) -> String {
    latency_table(events, &[("span", 14), ("phase", 22)], |e| {
        vec![e.span.clone(), e.phase.clone()]
    })
}

/// Render a latency table grouped by the value of one label: one row
/// per distinct value of `key`, same columns (and the same self-time
/// rollup) as [`summarize_trace`]. Events without the label are pooled
/// under `(unlabelled)`; that row appears only when such events exist.
/// Rows sort by label value.
#[must_use]
pub fn summarize_trace_by_label(events: &[TraceEvent], key: &str) -> String {
    latency_table(events, &[(&format!("{key}="), 24)], |e| {
        let value = e.labels.iter().find(|(k, _)| k == key);
        vec![value.map_or_else(|| "(unlabelled)".to_string(), |(_, v)| v.clone())]
    })
}

/// The one latency table: events grouped by `key` (one cell per
/// `(title, width)` column), each group's self-times in a
/// [`Histogram`], rows in key order.
fn latency_table(
    events: &[TraceEvent],
    columns: &[(&str, usize)],
    key: impl Fn(&TraceEvent) -> Vec<String>,
) -> String {
    let mut groups: BTreeMap<Vec<String>, Histogram> = BTreeMap::new();
    for (e, d) in events.iter().zip(self_durations(events)) {
        groups.entry(key(e)).or_default().record(d.max(0.0));
    }
    let mut out = String::new();
    for (title, w) in columns {
        let _ = write!(out, "{title:<w$} ");
    }
    let _ = writeln!(
        out,
        "{:>7} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "count", "total_ms", "mean_ms", "p50_ms", "p95_ms", "p999_ms", "max_ms"
    );
    for (cells, h) in &groups {
        for (cell, (_, w)) in cells.iter().zip(columns) {
            let _ = write!(out, "{cell:<w$} ");
        }
        let count = h.count();
        let total = h.sum();
        let mean = if count > 0 { total / count as f64 } else { 0.0 };
        let p50 = h.quantile(0.50).unwrap_or(0.0);
        let p95 = h.quantile(0.95).unwrap_or(0.0);
        let p999 = h.p999().unwrap_or(0.0);
        let max = h.max().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "{count:>7} {total:>12.1} {mean:>10.2} {p50:>10.2} {p95:>10.2} {p999:>10.2} {max:>10.2}"
        );
    }
    if groups.is_empty() {
        let _ = writeln!(out, "(no events)");
    }
    out
}

/// First-divergence diff of two JSONL traces, with parsed context.
///
/// Returns `None` when the files are byte-identical. Otherwise the
/// report names the first divergent line and, when both lines read as
/// events ([`parse_trace`]), the span/phase/ids on each side plus the fields that
/// differ — so a CI byte-equality failure points at *what* diverged,
/// not just *that* bytes did.
#[must_use]
pub fn diff_traces(a: &str, b: &str) -> Option<String> {
    if a == b {
        return None;
    }
    let (la, lb): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let mut out = String::new();
    if la.len() != lb.len() {
        let _ = writeln!(out, "event counts differ: {} vs {}", la.len(), lb.len());
    }
    for (i, (x, y)) in la.iter().zip(&lb).enumerate() {
        if x == y {
            continue;
        }
        let lineno = i + 1;
        let _ = writeln!(out, "first divergence at line {lineno}:");
        match (read_line(x), read_line(y)) {
            (Ok(ea), Ok(eb)) => {
                let _ = writeln!(
                    out,
                    "  a: {}/{} span_id={} parent_id={} ts={} dur={}",
                    ea.span, ea.phase, ea.span_id, ea.parent_id, ea.ts_ms, ea.dur_ms
                );
                let _ = writeln!(
                    out,
                    "  b: {}/{} span_id={} parent_id={} ts={} dur={}",
                    eb.span, eb.phase, eb.span_id, eb.parent_id, eb.ts_ms, eb.dur_ms
                );
                for field in divergent_fields(&ea, &eb) {
                    let _ = writeln!(out, "  differs in: {field}");
                }
            }
            _ => {
                let _ = writeln!(out, "  a: {x}");
                let _ = writeln!(out, "  b: {y}");
                let _ = writeln!(out, "  (one or both lines are not valid v2 events)");
            }
        }
        return Some(out);
    }
    // All shared lines equal: one file is a prefix of the other.
    let (longer, name) = if la.len() > lb.len() {
        (&la, "a")
    } else {
        (&lb, "b")
    };
    let extra = longer[la.len().min(lb.len())];
    let _ = writeln!(out, "only in {name} (line {}): {extra}", la.len().min(lb.len()) + 1);
    Some(out)
}

fn divergent_fields(a: &TraceEvent, b: &TraceEvent) -> Vec<String> {
    let mut out = Vec::new();
    if a.ts_ms != b.ts_ms {
        out.push(format!("ts_ms ({} vs {})", a.ts_ms, b.ts_ms));
    }
    if a.trace_id != b.trace_id {
        out.push(format!("trace_id ({} vs {})", a.trace_id, b.trace_id));
    }
    if a.span_id != b.span_id {
        out.push(format!("span_id ({} vs {})", a.span_id, b.span_id));
    }
    if a.parent_id != b.parent_id {
        out.push(format!("parent_id ({} vs {})", a.parent_id, b.parent_id));
    }
    if a.span != b.span {
        out.push(format!("span ({} vs {})", a.span, b.span));
    }
    if a.phase != b.phase {
        out.push(format!("phase ({} vs {})", a.phase, b.phase));
    }
    if a.dur_ms != b.dur_ms {
        out.push(format!("dur_ms ({} vs {})", a.dur_ms, b.dur_ms));
    }
    if a.labels != b.labels {
        let ka: BTreeMap<&String, &String> = a.labels.iter().map(|(k, v)| (k, v)).collect();
        let kb: BTreeMap<&String, &String> = b.labels.iter().map(|(k, v)| (k, v)).collect();
        for (k, va) in &ka {
            match kb.get(k) {
                Some(vb) if vb != va => out.push(format!("label {k} (\"{va}\" vs \"{vb}\")")),
                None => out.push(format!("label {k} (only in a)")),
                _ => {}
            }
        }
        for k in kb.keys() {
            if !ka.contains_key(k) {
                out.push(format!("label {k} (only in b)"));
            }
        }
    }
    out
}

/// First-divergence diff of two Prometheus text expositions. Returns
/// `None` when byte-identical; otherwise names the first divergent
/// line with the sample's metric name on each side.
#[must_use]
pub fn diff_prometheus(a: &str, b: &str) -> Option<String> {
    if a == b {
        return None;
    }
    let (la, lb): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let mut out = String::new();
    if la.len() != lb.len() {
        let _ = writeln!(out, "line counts differ: {} vs {}", la.len(), lb.len());
    }
    for (i, (x, y)) in la.iter().zip(&lb).enumerate() {
        if x == y {
            continue;
        }
        let name = |line: &str| {
            line.split(['{', ' '])
                .next()
                .unwrap_or("")
                .to_string()
        };
        let _ = writeln!(out, "first divergence at line {}:", i + 1);
        let _ = writeln!(out, "  a [{}]: {x}", name(x));
        let _ = writeln!(out, "  b [{}]: {y}", name(y));
        return Some(out);
    }
    let (name, extra) = if la.len() > lb.len() {
        ("a", la[lb.len()])
    } else {
        ("b", lb[la.len()])
    };
    let _ = writeln!(out, "only in {name} (line {}): {extra}", la.len().min(lb.len()) + 1);
    Some(out)
}

/// Validate a Prometheus text exposition payload: every line must be
/// a `# HELP`/`# TYPE` comment or a sample of the form
/// `name{label="value",...} value`, with correctly escaped label
/// values and a parseable float sample value. Beyond per-line syntax,
/// two structural rules hold across the payload:
///
/// * a metric family may not carry **conflicting `# TYPE`
///   declarations** (re-stating the same kind is tolerated);
/// * every sample of one **sample name** must use the same label *key
///   set* (cardinality check — `le` on histogram buckets is per
///   sample name, so `_bucket`/`_sum`/`_count` validate independently).
///
/// Returns the number of samples on success.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut types: BTreeMap<String, (String, usize)> = BTreeMap::new();
    let mut keysets: BTreeMap<String, (Vec<String>, usize)> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("HELP ") || rest.starts_with("TYPE ") || rest.is_empty()) {
                // Bare comments are legal in the format; only flag
                // malformed HELP/TYPE-looking lines.
                continue;
            }
            if rest.starts_with("TYPE ") {
                let mut parts = rest.split_whitespace();
                let _type_kw = parts.next();
                let name = parts.next().ok_or(format!("line {lineno}: TYPE without name"))?;
                let kind = parts.next().ok_or(format!("line {lineno}: TYPE without kind"))?;
                if !is_metric_name(name) {
                    return Err(format!("line {lineno}: bad metric name `{name}`"));
                }
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {lineno}: unknown TYPE kind `{kind}`"));
                }
                if let Some((prior, at)) = types.get(name) {
                    if prior != kind {
                        return Err(format!(
                            "line {lineno}: conflicting TYPE for family `{name}`: \
                             `{prior}` (line {at}) vs `{kind}`"
                        ));
                    }
                } else {
                    types.insert(name.to_string(), (kind.to_string(), lineno));
                }
            }
            continue;
        }
        let (name, keys) = parse_sample_line(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if let Some((prior, at)) = keysets.get(&name) {
            if *prior != keys {
                return Err(format!(
                    "line {lineno}: label cardinality mismatch for `{name}`: \
                     {{{}}} (line {at}) vs {{{}}}",
                    prior.join(","),
                    keys.join(",")
                ));
            }
        } else {
            keysets.insert(name, (keys, lineno));
        }
        samples += 1;
    }
    Ok(samples)
}

/// Compare two Prometheus snapshots of the *same process*, flagging
/// counter regressions: for every sample of a `# TYPE … counter`
/// family present in `a`, the matching sample in `b` (same name and
/// label set) must exist and must not have a smaller value — counters
/// are monotone, so a decrease or disappearance between snapshots
/// means a reset, a lost shard, or double-registered state. Returns
/// one violation message per offending sample (empty = clean). This
/// backs `entitlectl obs diff --counters a.prom b.prom`.
///
/// # Errors
///
/// Returns a message when either payload fails
/// [`validate_prometheus`].
pub fn diff_counters(a: &str, b: &str) -> Result<Vec<String>, String> {
    let sa = counter_samples(a).map_err(|e| format!("first snapshot: {e}"))?;
    let sb = counter_samples(b).map_err(|e| format!("second snapshot: {e}"))?;
    let mut out = Vec::new();
    for (key, va) in &sa {
        match sb.get(key) {
            Some(vb) if vb < va => {
                out.push(format!("counter `{key}` decreased: {va} -> {vb}"));
            }
            None => out.push(format!("counter `{key}` disappeared (was {va})")),
            _ => {}
        }
    }
    Ok(out)
}

/// Extract every counter-family sample from a validated exposition as
/// `canonical-sample-key -> value` (key = name plus sorted labels, so
/// the same series matches across snapshots regardless of label
/// order).
fn counter_samples(text: &str) -> Result<BTreeMap<String, f64>, String> {
    validate_prometheus(text)?;
    let mut counters: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                if let (Some(name), Some("counter")) = (parts.next(), parts.next()) {
                    counters.push(name.to_string());
                }
            }
        }
    }
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, labels, value) = parse_sample(line)?;
        if !counters.contains(&name) {
            continue;
        }
        let rendered: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        let key = if rendered.is_empty() {
            name
        } else {
            format!("{name}{{{}}}", rendered.join(","))
        };
        out.insert(key, value);
    }
    Ok(out)
}

fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse one sample line; returns the sample name and its sorted label
/// key set.
fn parse_sample_line(line: &str) -> Result<(String, Vec<String>), String> {
    let (name, labels, _) = parse_sample(line)?;
    Ok((name, labels.into_iter().map(|(k, _)| k).collect()))
}

/// A parsed sample: name, sorted `(key, value)` label pairs, value.
type Sample = (String, Vec<(String, String)>, f64);

/// Fully parse one sample line: sample name, sorted `(key, value)`
/// label pairs (values kept as written, escapes included — they only
/// ever feed equality comparisons), and the sample value.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let name_end = bytes
        .iter()
        .position(|&b| b == b'{' || b == b' ')
        .ok_or("sample has no value")?;
    let name = &line[..name_end];
    if !is_metric_name(name) {
        return Err(format!("bad metric name `{name}`"));
    }
    let mut pos = name_end;
    let mut labels = Vec::new();
    if bytes[pos] == b'{' {
        pos = parse_label_block(line, pos, &mut labels)?;
    }
    labels.sort();
    let value = line[pos..].trim();
    if value.is_empty() {
        return Err("sample has no value".to_string());
    }
    // A sample may carry an optional trailing timestamp.
    let mut fields = value.split_whitespace();
    let v = fields.next().unwrap_or("");
    let parsed = match v {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        _ => v
            .parse::<f64>()
            .map_err(|_| format!("unparseable sample value `{v}`"))?,
    };
    if let Some(ts) = fields.next() {
        if ts.parse::<i64>().is_err() {
            return Err(format!("unparseable timestamp `{ts}`"));
        }
    }
    Ok((name.to_string(), labels, parsed))
}

/// Parse `{k="v",...}` starting at `open` (the `{`); collects
/// `(name, value)` pairs into `labels` and returns the byte index just
/// past the closing `}`.
fn parse_label_block(
    line: &str,
    open: usize,
    labels: &mut Vec<(String, String)>,
) -> Result<usize, String> {
    let bytes = line.as_bytes();
    let mut pos = open + 1;
    loop {
        if bytes.get(pos) == Some(&b'}') {
            return Ok(pos + 1);
        }
        // label name
        let start = pos;
        while matches!(bytes.get(pos), Some(c) if c.is_ascii_alphanumeric() || *c == b'_') {
            pos += 1;
        }
        if pos == start {
            return Err(format!("expected label name at byte {pos}"));
        }
        let key = line[start..pos].to_string();
        if bytes.get(pos) != Some(&b'=') {
            return Err(format!("expected `=` at byte {pos}"));
        }
        pos += 1;
        if bytes.get(pos) != Some(&b'"') {
            return Err(format!("expected `\"` at byte {pos}"));
        }
        pos += 1;
        // quoted value with \\, \", \n escapes
        let value_start = pos;
        loop {
            match bytes.get(pos) {
                Some(b'\\') => {
                    match bytes.get(pos + 1) {
                        Some(b'\\' | b'"' | b'n') => pos += 2,
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                }
                Some(b'"') => {
                    labels.push((key, line[value_start..pos].to_string()));
                    pos += 1;
                    break;
                }
                Some(_) => pos += 1,
                None => return Err("unterminated label value".to_string()),
            }
        }
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => {}
            other => return Err(format!("expected `,` or `}}`, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fold_metrics, key, Clock, Obs};

    #[test]
    fn parse_rejects_schema_violations() {
        assert!(parse_trace(r#"{"span":"a"}"#).is_err()); // missing ts_ms
        assert!(parse_trace(
            r#"{"ts_ms":-1,"trace_id":1,"span_id":1,"parent_id":0,"span":"a","phase":"b","labels":{},"dur_ms":0}"#
        )
        .is_err());
        // v1 lines (no ids) are rejected under v2.
        assert!(parse_trace(r#"{"ts_ms":1,"span":"a","phase":"b","labels":{},"dur_ms":0}"#).is_err());
        assert!(parse_trace(
            r#"{"ts_ms":1,"trace_id":1,"span_id":0,"parent_id":0,"span":"a","phase":"b","labels":{},"dur_ms":0}"#
        )
        .is_err());
        assert!(parse_trace(
            r#"{"ts_ms":1,"trace_id":1,"span_id":1,"parent_id":0,"span":"a","phase":"b","labels":[],"dur_ms":0}"#
        )
        .is_err());
        assert!(parse_trace(
            r#"{"ts_ms":1,"trace_id":1,"span_id":1,"parent_id":0,"span":"a","phase":"b","labels":{"x":3},"dur_ms":0}"#
        )
        .is_err());
        assert!(parse_trace("not json").is_err());
    }

    #[test]
    fn ids_up_to_u64_max_read_exactly() {
        let line = |key: &str, value: &str| {
            let field = |k: &str, v: &str| format!("\"{k}\":{}", if k == key { value } else { v });
            format!(
                "{{{},{},{},{},\"span\":\"a\",\"phase\":\"b\",\"labels\":{{}},\"dur_ms\":0}}",
                field("ts_ms", "1"),
                field("trace_id", "1"),
                field("span_id", "2"),
                field("parent_id", "1"),
            )
        };
        let ok = line("", "");
        assert_eq!(parse_trace(&ok).expect("a plain line").len(), 1);
        for key in ["ts_ms", "trace_id", "span_id", "parent_id"] {
            // The f64 reader this replaced read 2^53 + 1 as 2^53, …962
            // as …976, and refused all of these.
            for value in [
                "9007199254740992",
                "9007199254740993",
                "16131454690887550962",
                "18446744073709551615",
            ] {
                let event = &parse_trace(&line(key, value)).expect("an exact id")[0];
                let read = [event.ts_ms, event.trace_id, event.span_id, event.parent_id];
                assert!(read.contains(&value.parse().expect("a u64")), "{key}: {read:?}");
            }
            // Not a u64, or not the encoder's spelling of one.
            for value in ["1e300", "18446744073709551616", "+2", "-2", "02", " 2", "2 ", "2.0"] {
                let text = format!("{ok}\n{}\n", line(key, value));
                let err = parse_trace(&text).expect_err(value);
                assert!(err.starts_with("line 2: "), "{key} = {value}: {err}");
            }
            let text = format!("{ok}\n{}\n", line(key, "1e300"));
            assert_eq!(parse_trace(&text), Err(format!("line 2: cannot read `{key}`")));
        }
        let text = format!("{ok}\n{}", line("span_id", "02"));
        assert_eq!(
            parse_trace(&text),
            Err("line 2: not spelled as the encoder writes its event, from column 35".to_string())
        );
    }

    #[test]
    fn label_keys_out_of_order_or_repeated_are_refused() {
        let line = |labels: &str| {
            format!(
                "{{\"ts_ms\":1,\"trace_id\":1,\"span_id\":1,\"parent_id\":0,\"span\":\"a\",\"phase\":\"b\",\"labels\":{{{labels}}},\"dur_ms\":0}}"
            )
        };
        for ok in ["", r#""a":"1""#, r#""a":"1","b":"0""#, r#""a":"1","a b":"0""#, r#""!":"","a":"""#] {
            assert_eq!(parse_trace(&line(ok)).map(|e| e.len()), Ok(1), "{ok}");
        }
        for bad in [
            r#""b":"0","a":"1""#,
            r#""a":"1","a":"1""#,
            r#""a":"1","a":"2""#,
            r#""a b":"0","a":"1""#,
            r#""a":"","!":"""#,
            r#""a":"1","c":"","b":"""#,
        ] {
            let text = format!("{}\n{}\n", line(""), line(bad));
            assert_eq!(parse_trace(&text), Err("line 2: cannot read `labels`".to_string()), "{bad}");
        }
    }

    #[test]
    fn a_label_key_holding_an_escape_is_refused() {
        // No writer can make such a key (a `Key` is plain text), so the
        // reader takes none, although each is a valid JSON string and
        // the same escapes read in a value.
        let line = |labels: &str| {
            format!(
                "{{\"ts_ms\":1,\"trace_id\":1,\"span_id\":1,\"parent_id\":0,\"span\":\"a\",\"phase\":\"b\",\"labels\":{{{labels}}},\"dur_ms\":0}}"
            )
        };
        let ok = r#""a":"\"","b":"\\","c":"\n""#;
        assert_eq!(parse_trace(&line(ok)).map(|e| e[0].labels.len()), Ok(3));
        for bad in [
            r#""a\"b":"1""#,
            r#""\u0041":"1""#,
            r#""\u0001":"","!":"""#,
            r#""a":"1","b\\":"2""#,
            r#""a":"1","b\n":"2""#,
        ] {
            let text = format!("{}\n{}\n", line(""), line(bad));
            assert_eq!(parse_trace(&text), Err("line 2: cannot read `labels`".to_string()), "{bad}");
        }
    }

    #[test]
    fn emitted_traces_roundtrip() {
        let obs = Obs::new(Clock::counting(2));
        obs.point("kv", "put").label(key!("outcome"), "ok").finish();
        {
            let _s = obs.span("risk", "sweep").label(key!("scenarios"), "9");
        }
        let jsonl = obs.trace.to_jsonl();
        let parsed = parse_trace(&jsonl).expect("roundtrip");
        assert_eq!(parsed, obs.trace.events());
    }

    #[test]
    fn summary_table_has_one_row_per_phase() {
        let obs = Obs::new(Clock::manual(0));
        for d in [5.0, 10.0, 15.0] {
            obs.trace.child(0, d, "approval", "pipe_approval").finish();
        }
        obs.point("kv", "get").finish();
        let table = summarize_trace(&obs.trace.events());
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 3, "header + 2 groups: {table}");
        assert!(rows[1].contains("approval") && rows[1].contains("pipe_approval"));
        assert!(rows[1].contains("30.0"), "total: {table}");
        assert!(rows[2].contains("kv"));
    }

    #[test]
    fn by_label_groups_on_the_label_value() {
        let obs = Obs::new(Clock::manual(0));
        let push = |outcome: Option<&str>, d: f64| {
            let mut get = obs.trace.child(0, d, "kv", "get");
            if let Some(o) = outcome {
                get.add_label(key!("outcome"), o);
            }
        };
        push(Some("ok"), 5.0);
        push(Some("ok"), 7.0);
        push(Some("unavailable"), 40.0);
        push(None, 1.0);
        let table = summarize_trace_by_label(&obs.trace.events(), "outcome");
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 4, "header + 3 groups: {table}");
        assert!(rows[0].starts_with("outcome="), "{table}");
        assert!(rows[1].starts_with("(unlabelled)") && rows[1].contains("1.0"), "{table}");
        assert!(rows[2].starts_with("ok") && rows[2].contains("12.0"), "{table}");
        assert!(rows[3].starts_with("unavailable"), "{table}");
    }

    #[test]
    fn summarize_rolls_up_self_time_not_nested_totals() {
        // Two-level tree: a 10 ms outer span wraps a 4 ms child. The
        // per-phase rollup must charge the outer row 6 ms of self-time;
        // the old raw-duration rollup double-counted the child's 4 ms
        // (once in its own row, again inside the parent's 10).
        let obs = Obs::new(Clock::manual(0));
        {
            let outer = obs.span("agent", "cycle");
            obs.clock.advance_ms(6);
            {
                let _inner = obs.span("kv", "put");
                obs.clock.advance_ms(4);
            }
            outer.finish();
        }
        let events = obs.trace.events();
        assert_eq!(events[0].dur_ms, 4.0, "child total");
        assert_eq!(events[1].dur_ms, 10.0, "parent total covers child");
        let table = summarize_trace(&events);
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 3, "header + 2 rows: {table}");
        let outer_row = rows.iter().find(|r| r.contains("cycle")).unwrap();
        assert!(outer_row.contains("6.0"), "self-time 6, not 10: {table}");
        assert!(!outer_row.contains("10.0"), "{table}");
        let child_row = rows.iter().find(|r| r.contains("put")).unwrap();
        assert!(child_row.contains("4.0"), "leaf keeps its time: {table}");
        // The grand total across rows is additive: 6 + 4 = the wall
        // time of the root, with nothing counted twice.
    }

    #[test]
    fn summarize_falls_back_to_raw_durations_without_ids() {
        // Hand-built events with span_id 0 can't form a forest; the
        // table still renders, using raw durations.
        let e = crate::TraceEvent {
            ts_ms: 0,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            span: "a".to_string(),
            phase: "b".to_string(),
            labels: Vec::new(),
            dur_ms: 7.0,
        };
        let table = summarize_trace(&[e]);
        assert!(table.contains("7.0"), "{table}");
    }

    #[test]
    fn summarize_prints_a_p999_column() {
        let obs = Obs::new(Clock::manual(0));
        obs.point("kv", "get").finish();
        let table = summarize_trace(&obs.trace.events());
        assert!(table.contains("p999_ms"), "{table}");
        let by = summarize_trace_by_label(&obs.trace.events(), "outcome");
        assert!(by.contains("p999_ms"), "{by}");
    }

    #[test]
    fn by_label_on_empty_trace_says_so() {
        assert!(summarize_trace_by_label(&[], "x").contains("(no events)"));
    }

    #[test]
    fn validates_the_folded_metrics() {
        let obs = Obs::new(Clock::counting(1));
        drop(
            obs.span("approval", "hose_approval")
                .label(key!("outcome"), "zero")
                .label(key!("qos"), "weird \"x\"\\\n"),
        );
        drop(
            obs.point("fleet", "run")
                .label(key!("hosts"), "-3.25")
                .label(key!("shards"), "2"),
        );
        let text = fold_metrics(&obs.trace.events()).expect("every label reads");
        let n = validate_prometheus(&text).expect("valid exposition");
        assert!(n > 40, "histogram buckets + counter + gauges: {n}");
    }

    #[test]
    fn rejects_malformed_prometheus() {
        assert!(validate_prometheus("1bad_name 3\n").is_err());
        assert!(validate_prometheus("x{unterminated=\"v 3\n").is_err());
        assert!(validate_prometheus("x{l=\"bad\\q\"} 3\n").is_err());
        assert!(validate_prometheus("x notanumber\n").is_err());
        assert!(validate_prometheus("# TYPE x wibble\n").is_err());
    }

    #[test]
    fn rejects_conflicting_type_declarations() {
        let err = validate_prometheus("# TYPE x counter\nx 3\n# TYPE x gauge\n").unwrap_err();
        assert!(err.contains("conflicting TYPE"), "{err}");
        // Re-stating the same kind is tolerated.
        assert!(validate_prometheus("# TYPE x counter\nx 3\n# TYPE x counter\n").is_ok());
    }

    #[test]
    fn rejects_label_cardinality_mismatch() {
        // Same sample name, different label key sets.
        let err = validate_prometheus("x 3\nx{l=\"v\"} 4.5\n").unwrap_err();
        assert!(err.contains("cardinality"), "{err}");
        let err = validate_prometheus("x{a=\"1\",b=\"2\"} 3\nx{a=\"1\"} 4\n").unwrap_err();
        assert!(err.contains("cardinality"), "{err}");
        // Same key set, different values: fine.
        assert!(validate_prometheus("x{l=\"v\"} 3\nx{l=\"w\"} 4\n").is_ok());
        // Histogram convention: `le` only on `_bucket` samples is fine
        // because cardinality is per sample name.
        assert!(validate_prometheus(
            "h_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 4\nh_sum 7\nh_count 4\n"
        )
        .is_ok());
    }

    #[test]
    fn counter_diff_flags_decreases_and_disappearances() {
        let a = "# TYPE ops_total counter\nops_total{kind=\"put\"} 10\nops_total{kind=\"get\"} 5\n# TYPE level gauge\nlevel 9\n";
        let b = "# TYPE ops_total counter\nops_total{kind=\"put\"} 4\n# TYPE level gauge\nlevel 2\n";
        let violations = diff_counters(a, b).expect("both valid");
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(
            violations.iter().any(|v| v.contains("decreased: 10 -> 4")),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.contains("kind=\"get\"") && v.contains("disappeared")),
            "{violations:?}"
        );
        // Gauges may move freely; equal or growing counters are clean.
        assert!(diff_counters(a, a).unwrap().is_empty());
        let grown = "# TYPE ops_total counter\nops_total{kind=\"put\"} 11\nops_total{kind=\"get\"} 5\n# TYPE level gauge\nlevel 0\n";
        assert!(diff_counters(a, grown).unwrap().is_empty());
    }

    #[test]
    fn counter_diff_matches_series_regardless_of_label_order() {
        let a = "# TYPE x counter\nx{a=\"1\",b=\"2\"} 3\n";
        let b = "# TYPE x counter\nx{b=\"2\",a=\"1\"} 3\n";
        assert!(diff_counters(a, b).unwrap().is_empty());
    }

    #[test]
    fn counter_diff_rejects_invalid_payloads() {
        let err = diff_counters("1bad 3\n", "").unwrap_err();
        assert!(err.contains("first snapshot"), "{err}");
        let err = diff_counters("", "x notanumber\n").unwrap_err();
        assert!(err.contains("second snapshot"), "{err}");
    }

    #[test]
    fn trace_diff_reports_first_divergence() {
        let obs = Obs::new(Clock::counting(1));
        {
            let _s = obs.span("market", "admit").label(key!("outcome"), "granted");
        }
        let a = obs.trace.to_jsonl();
        assert!(diff_traces(&a, &a).is_none(), "identical files");
        let b = a.replace("granted", "denied");
        let report = diff_traces(&a, &b).expect("divergent");
        assert!(report.contains("line 1"), "{report}");
        assert!(report.contains("market/admit"), "{report}");
        assert!(report.contains("label outcome"), "{report}");
    }

    #[test]
    fn trace_diff_reports_length_mismatch() {
        let obs = Obs::new(Clock::counting(1));
        obs.point("a", "b").finish();
        let a = obs.trace.to_jsonl();
        let report = diff_traces(&a, "").expect("divergent");
        assert!(report.contains("event counts differ: 1 vs 0"), "{report}");
        assert!(report.contains("only in a"), "{report}");
    }

    #[test]
    fn prometheus_diff_names_the_metric() {
        let a = "# TYPE x counter\nx{l=\"v\"} 3\n";
        let b = "# TYPE x counter\nx{l=\"v\"} 4\n";
        assert!(diff_prometheus(a, a).is_none());
        let report = diff_prometheus(a, b).expect("divergent");
        assert!(report.contains("line 2"), "{report}");
        assert!(report.contains("[x]"), "{report}");
    }
}
