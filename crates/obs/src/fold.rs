//! The metrics file as a fold of the trace.
//!
//! Nothing in the workspace writes a metric while it runs. Every fact
//! a `--metrics` file states is one the same run's trace already
//! holds, so [`fold_metrics`] reads the Prometheus text exposition off
//! the trace's events once the run is over, and [`check_metrics`] reads
//! it off a trace file again to hold a metrics file to it. Each event
//! kind feeds its families (a histogram records the event's `dur_ms`
//! unless a label is named):
//!
//! | event | families |
//! |---|---|
//! | `market/admit` | `entitlement_market_admits_total{outcome,path}`, `entitlement_market_admit_ms{path}` |
//! | `kv/*` | `entitlement_kv_ops_total{op,outcome}`, `entitlement_kv_op_ms{op}` |
//! | `approval/hose_approval` | `entitlement_approval_hoses_total{outcome,qos}`, `entitlement_approval_hose_ms{qos}` |
//! | `risk/scenario` | `entitlement_risk_scenario_ms` |
//! | `risk/sweep` | `entitlement_risk_worker_items` (its `unique`, the scenarios it routed: one sample a sweep, as the trace does not say how a parallel sweep split them) |
//! | `slo/cycle` | `entitlement_agent_staleness_ms` (its `staleness_ms`), `entitlement_fleet_fail_static_cycles_total` (one per unmeasurable tick) |
//! | `fleet/run` | the gauges `entitlement_fleet_hosts` and `entitlement_fleet_shards` (its `hosts`, `shards`) |
//!
//! A KV phase names its op family: `put`, `put_shard` and
//! `put_shard_batch` are `op="put"`, `aggregate` and `shard_aggregate`
//! are `op="aggregate"`; an `outcome` of `error:<kind>` counts as
//! `outcome="error"`. The first KV event brings in both ops and both
//! outcomes, zeros included, so a dashboard finds the error series
//! before the first error. Every other cell appears with the first
//! event that feeds it.
//!
//! The text lists families in name order, each under one `# HELP` and
//! one `# TYPE` line, and a family's samples in label order. A
//! histogram is its cumulative `_bucket` series over the [`Histogram`]
//! bounds, then `+Inf`, `_sum` and `_count`.

use crate::decimal::{push_finite, push_u64};
use crate::metrics::Histogram;
use crate::summary::validate_prometheus;
use crate::trace::{BadLabel, TraceEvent};

/// A metric family: its name and its `# HELP` text. Its `# TYPE` is
/// its cells' kind.
type Family = (&'static str, &'static str);

const ADMITS: Family = (
    "entitlement_market_admits_total",
    "admission decisions by outcome and serving path",
);
const ADMIT_MS: Family = (
    "entitlement_market_admit_ms",
    "admission latency by serving path",
);
const KV_OPS: Family = (
    "entitlement_kv_ops_total",
    "KV operations by kind and outcome",
);
const KV_OP_MS: Family = (
    "entitlement_kv_op_ms",
    "KV operation latency in milliseconds (from the injected clock)",
);
const HOSES: Family = (
    "entitlement_approval_hoses_total",
    "Hose approvals by QoS class and outcome",
);
const HOSE_MS: Family = (
    "entitlement_approval_hose_ms",
    "Per-hose approval wall time in milliseconds (obs clock)",
);
const SCENARIO_MS: Family = (
    "entitlement_risk_scenario_ms",
    "Per-scenario routing time in milliseconds (obs clock)",
);
const WORKER_ITEMS: Family = (
    "entitlement_risk_worker_items",
    "Scenarios routed per sweep worker (utilization balance)",
);
const STALENESS: Family = (
    "entitlement_agent_staleness_ms",
    "Age of the aggregates behind the agent's standing decision",
);
const FAIL_STATIC: Family = (
    "entitlement_fleet_fail_static_cycles_total",
    "Cycles the fleet held its decision on an unavailable fold",
);
const HOSTS: Family = ("entitlement_fleet_hosts", "Hosts in the sharded fleet");
const SHARDS: Family = ("entitlement_fleet_shards", "Shards in the aggregation tree");

/// A cell's value.
enum Value {
    Count(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// One `(family, labels)` series; label keys in ascending order.
struct Cell {
    family: Family,
    labels: Vec<(&'static str, String)>,
    value: Value,
}

/// The cells the events fed so far.
#[derive(Default)]
struct Fold {
    cells: Vec<Cell>,
}

impl Fold {
    /// Fold one event in. A label an event's families need is read
    /// strictly: nothing is counted under a default.
    fn observe(&mut self, e: &TraceEvent) -> Result<(), BadLabel> {
        match (e.span.as_str(), e.phase.as_str()) {
            ("market", "admit") => {
                let (outcome, path) = (e.need("outcome")?, e.need("path")?);
                self.count(ADMITS, &[("outcome", outcome), ("path", path)]);
                self.record(ADMIT_MS, &[("path", path)], e.dur_ms);
            }
            ("kv", phase) => {
                let op = match phase {
                    "put" | "put_shard" | "put_shard_batch" => "put",
                    "aggregate" | "shard_aggregate" => "aggregate",
                    _ => return Ok(()),
                };
                let outcome = match e.need("outcome")? {
                    "ok" => "ok",
                    v if v.starts_with("error") => "error",
                    v => return Err(e.bad("outcome", Some(v))),
                };
                if !self.cells.iter().any(|c| c.family == KV_OPS) {
                    for op in ["aggregate", "put"] {
                        self.cell(KV_OP_MS, &[("op", op)], || {
                            Value::Histogram(Histogram::new())
                        });
                        for outcome in ["error", "ok"] {
                            self.cell(KV_OPS, &[("op", op), ("outcome", outcome)], || {
                                Value::Count(0)
                            });
                        }
                    }
                }
                self.count(KV_OPS, &[("op", op), ("outcome", outcome)]);
                self.record(KV_OP_MS, &[("op", op)], e.dur_ms);
            }
            ("approval", "hose_approval") => {
                let (outcome, qos) = (e.need("outcome")?, e.need("qos")?);
                self.count(HOSES, &[("outcome", outcome), ("qos", qos)]);
                self.record(HOSE_MS, &[("qos", qos)], e.dur_ms);
            }
            ("risk", "scenario") => self.record(SCENARIO_MS, &[], e.dur_ms),
            ("risk", "sweep") => self.record(WORKER_ITEMS, &[], e.num("unique")?),
            ("slo", "cycle") => {
                let (staleness, measurable) =
                    (e.num("staleness_ms")?, e.parsed::<bool>("measurable")?);
                self.record(STALENESS, &[], staleness);
                if !measurable {
                    self.count(FAIL_STATIC, &[]);
                }
            }
            ("fleet", "run") => {
                let (hosts, shards) = (e.num("hosts")?, e.num("shards")?);
                *self.cell(HOSTS, &[], || Value::Gauge(0.0)) = Value::Gauge(hosts);
                *self.cell(SHARDS, &[], || Value::Gauge(0.0)) = Value::Gauge(shards);
            }
            _ => {}
        }
        Ok(())
    }

    /// The `(family, labels)` cell's value, made by `new` the first time.
    fn cell(
        &mut self,
        family: Family,
        labels: &[(&'static str, &str)],
        new: fn() -> Value,
    ) -> &mut Value {
        let same = |c: &Cell| {
            c.family == family
                && c.labels
                    .iter()
                    .map(|(k, v)| (*k, v.as_str()))
                    .eq(labels.iter().copied())
        };
        let at = match self.cells.iter().position(same) {
            Some(at) => at,
            None => {
                let labels = labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
                self.cells.push(Cell {
                    family,
                    labels,
                    value: new(),
                });
                self.cells.len() - 1
            }
        };
        &mut self.cells[at].value
    }

    fn count(&mut self, family: Family, labels: &[(&'static str, &str)]) {
        if let Value::Count(n) = self.cell(family, labels, || Value::Count(0)) {
            *n += 1;
        }
    }

    fn record(&mut self, family: Family, labels: &[(&'static str, &str)], v: f64) {
        if let Value::Histogram(h) =
            self.cell(family, labels, || Value::Histogram(Histogram::new()))
        {
            h.record(v);
        }
    }

    /// The Prometheus text exposition of every cell.
    fn render(&self) -> String {
        let mut order: Vec<&Cell> = self.cells.iter().collect();
        order.sort_by(|a, b| (a.family.0, &a.labels).cmp(&(b.family.0, &b.labels)));
        let mut out = String::new();
        let mut last: Option<&str> = None;
        for c in order {
            let (name, help) = c.family;
            if last != Some(name) {
                let kind = match c.value {
                    Value::Count(_) => "counter",
                    Value::Gauge(_) => "gauge",
                    Value::Histogram(_) => "histogram",
                };
                for line in [["# HELP ", name, " ", help], ["# TYPE ", name, " ", kind]] {
                    line.iter().for_each(|part| out.push_str(part));
                    out.push('\n');
                }
                last = Some(name);
            }
            // One sample line: `name[suffix]{labels[,le="…"]} value`.
            let mut sample = |suffix: &str, le: Option<f64>, value: Sample| {
                out.push_str(name);
                out.push_str(suffix);
                push_labels(&mut out, &c.labels, le);
                out.push(' ');
                match value {
                    Sample::Count(n) => push_u64(&mut out, n),
                    Sample::Value(v) => push_exposition(&mut out, v),
                }
                out.push('\n');
            };
            match &c.value {
                Value::Count(n) => sample("", None, Sample::Count(*n)),
                Value::Gauge(v) => sample("", None, Sample::Value(*v)),
                Value::Histogram(h) => {
                    for (le, cum) in h.cumulative() {
                        sample("_bucket", Some(le), Sample::Count(cum));
                    }
                    sample("_bucket", Some(f64::INFINITY), Sample::Count(h.count()));
                    sample("_sum", None, Sample::Value(h.sum()));
                    sample("_count", None, Sample::Count(h.count()));
                }
            }
        }
        out
    }
}

/// The Prometheus text exposition of the metric families `events`
/// feed (see the module docs): what a run's `--metrics` file holds,
/// given the events of its trace.
///
/// # Errors
///
/// The first event that lacks a label its families need, or whose
/// label does not read.
pub fn fold_metrics(events: &[TraceEvent]) -> Result<String, BadLabel> {
    let mut fold = Fold::default();
    for e in events {
        fold.observe(e)?;
    }
    Ok(fold.render())
}

/// Hold a metrics file to the trace it was written with: `text` must
/// be valid Prometheus text and, line for line, [`fold_metrics`] of
/// `events`. Returns the number of samples.
///
/// # Errors
///
/// What [`validate_prometheus`] or [`fold_metrics`] reports, or the
/// first line where the file and the fold part, naming the family it
/// falls in and both lines.
pub fn check_metrics(text: &str, events: &[TraceEvent]) -> Result<usize, String> {
    let samples = validate_prometheus(text)?;
    let folded = fold_metrics(events).map_err(|e| format!("cannot fold the trace: {e}"))?;
    if folded == text {
        return Ok(samples);
    }
    let (want, have): (Vec<&str>, Vec<&str>) = (folded.lines().collect(), text.lines().collect());
    let mut family = "";
    for i in 0..want.len().max(have.len()) {
        let (w, h) = (want.get(i).copied(), have.get(i).copied());
        let declared = w
            .and_then(|l| l.strip_prefix("# HELP "))
            .and_then(|l| l.split(' ').next());
        family = declared.unwrap_or(family);
        if w != h {
            let show =
                |l: Option<&str>| l.map_or_else(|| "nothing".to_string(), |l| format!("`{l}`"));
            return Err(format!(
                "line {}, family `{family}`: the trace folds to {}, the file has {}",
                i + 1,
                show(w),
                show(h)
            ));
        }
    }
    Err("the file and the trace's fold differ in their line ends".to_string())
}

/// A sample's value: a count, or a float.
enum Sample {
    Count(u64),
    Value(f64),
}

/// Append `v` escaped per the Prometheus text exposition format:
/// backslash, double-quote, and line-feed become `\\`, `\"`, and `\n`.
fn push_escaped(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
}

/// Append `{k="v",...}` (nothing for no labels), with the histogram
/// bucket bound `le` after the base labels.
fn push_labels(out: &mut String, base: &[(&str, String)], le: Option<f64>) {
    if base.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in base.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        push_escaped(out, v);
        out.push('"');
    }
    if let Some(le) = le {
        if !base.is_empty() {
            out.push(',');
        }
        out.push_str("le=\"");
        push_exposition(out, le);
        out.push('"');
    }
    out.push('}');
}

/// Append an `f64` as the exposition format spells it: `+Inf`/`-Inf`
/// for the infinities, `NaN`, and what `{}` prints for everything else.
fn push_exposition(out: &mut String, v: f64) {
    if v.is_finite() {
        push_finite(out, v);
    } else if v.is_nan() {
        out.push_str("NaN");
    } else if v > 0.0 {
        out.push_str("+Inf");
    } else {
        out.push_str("-Inf");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::parse_trace;

    /// A hand-written trace with one event of every kind the fold
    /// reads (and one it does not), folded into the committed text in
    /// `tests/fixtures/fold.prom`.
    #[test]
    fn a_small_trace_folds_into_the_committed_text() {
        let events =
            parse_trace(include_str!("../tests/fixtures/fold.jsonl")).expect("the fixture reads");
        let text = fold_metrics(&events).expect("every label reads");
        assert_eq!(text, include_str!("../tests/fixtures/fold.prom"));
        assert_eq!(check_metrics(&text, &events), validate_prometheus(&text));
    }

    #[test]
    fn a_label_value_is_escaped() {
        let events = parse_trace(concat!(
            r#"{"ts_ms":1,"trace_id":1,"span_id":1,"parent_id":0,"span":"approval","phase":"hose_approval","#,
            r#""labels":{"outcome":"approved","qos":"a\\b\"c\nd"},"dur_ms":0}"#,
            "\n"
        ))
        .expect("the line reads");
        let text = fold_metrics(&events).expect("every label reads");
        assert!(text.contains("entitlement_approval_hoses_total{outcome=\"approved\",qos=\"a\\\\b\\\"c\\nd\"} 1\n"), "{text}");
    }

    #[test]
    fn a_missing_or_unusable_label_is_named() {
        let event = |labels: &str| {
            parse_trace(&format!(
                "{{\"ts_ms\":1,\"trace_id\":1,\"span_id\":7,\"parent_id\":0,\"span\":\"slo\",\"phase\":\"cycle\",\
                 \"labels\":{{{labels}}},\"dur_ms\":0}}\n"
            ))
            .expect("the line reads")
        };
        let err = fold_metrics(&event(r#""measurable":"true""#)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "slo/cycle event span_id 7: label `staleness_ms` is missing"
        );
        let err = fold_metrics(&event(r#""measurable":"maybe","staleness_ms":"0""#)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "slo/cycle event span_id 7: label `measurable` has unusable value `maybe`"
        );
    }

    #[test]
    fn a_file_that_is_not_the_fold_names_the_family_and_both_lines() {
        let events =
            parse_trace(include_str!("../tests/fixtures/fold.jsonl")).expect("the fixture reads");
        let text = fold_metrics(&events).expect("every label reads");
        let edited = text.replace(
            "entitlement_kv_ops_total{op=\"put\",outcome=\"ok\"} 2",
            "entitlement_kv_ops_total{op=\"put\",outcome=\"ok\"} 3",
        );
        assert_ne!(edited, text);
        let err = check_metrics(&edited, &events).unwrap_err();
        assert!(err.contains("family `entitlement_kv_ops_total`"), "{err}");
        assert!(
            err.contains(
                "the trace folds to `entitlement_kv_ops_total{op=\"put\",outcome=\"ok\"} 2`"
            ),
            "{err}"
        );
        let lines: Vec<&str> = text.lines().collect();
        let cut: String = lines[..lines.len() - 1]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        let err = check_metrics(&cut, &events).unwrap_err();
        assert!(err.ends_with("the file has nothing"), "{err}");
    }
}
