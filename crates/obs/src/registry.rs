//! A handle-based metric registry rendering the Prometheus text
//! exposition format. No globals: callers clone the [`Registry`] and
//! thread it to wherever metrics are recorded; `render()` produces the
//! scrape payload.

use crate::decimal::{push_finite, push_u64};
use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// One `(name, sorted labels)` family member.
type LabelSet = BTreeMap<String, String>;

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    name: String,
    help: String,
    labels: LabelSet,
    cell: Instrument,
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
}

/// A cloneable metric registry. Registration is idempotent: asking for
/// the same `(name, labels)` again returns a handle to the same cell,
/// so fan-out call sites need no coordination.
///
/// The shared state is allocated on first registration or first clone,
/// whichever comes first, so a registry nobody uses (every
/// [`crate::Obs::disabled`] bundle) costs nothing to build or drop.
#[derive(Default)]
pub struct Registry {
    inner: OnceLock<Arc<Mutex<Inner>>>,
}

impl Clone for Registry {
    fn clone(&self) -> Self {
        Self {
            inner: OnceLock::from(Arc::clone(self.shared())),
        }
    }
}

impl Registry {
    /// New empty registry.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn shared(&self) -> &Arc<Mutex<Inner>> {
        self.inner.get_or_init(Arc::default)
    }

    /// Get or create the `(name, labels)` cell of one metric kind.
    /// `labels` may come in any order; a repeated key keeps its last
    /// value. Allocates only when the cell is new.
    fn get_or_create<T: Clone + Default>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        pick: fn(&Instrument) -> Option<&T>,
        wrap: fn(T) -> Instrument,
    ) -> T {
        let mut inner = self
            .shared()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for e in &inner.entries {
            if e.name == name && same_labels(&e.labels, labels) {
                if let Some(cell) = pick(&e.cell) {
                    return cell.clone();
                }
            }
        }
        let cell = T::default();
        inner.entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
            cell: wrap(cell.clone()),
        });
        cell
    }

    /// Get or create a counter.
    #[must_use]
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.get_or_create(
            name,
            help,
            labels,
            |i| match i {
                Instrument::Counter(c) => Some(c),
                _ => None,
            },
            Instrument::Counter,
        )
    }

    /// Get or create a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.get_or_create(
            name,
            help,
            labels,
            |i| match i {
                Instrument::Gauge(g) => Some(g),
                _ => None,
            },
            Instrument::Gauge,
        )
    }

    /// Get or create a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.get_or_create(
            name,
            help,
            labels,
            |i| match i {
                Instrument::Histogram(h) => Some(h),
                _ => None,
            },
            Instrument::Histogram,
        )
    }

    /// Render every registered metric in the Prometheus text
    /// exposition format, deterministically ordered by
    /// `(name, labels)`. Histograms render as cumulative `_bucket`
    /// series plus `_sum` and `_count`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let Some(shared) = self.inner.get() else {
            return out;
        };
        let inner = shared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut order: Vec<&Entry> = inner.entries.iter().collect();
        order.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        let mut last_name: Option<&str> = None;
        for e in order {
            if last_name != Some(e.name.as_str()) {
                let kind = match &e.cell {
                    Instrument::Counter(_) => "counter",
                    Instrument::Gauge(_) => "gauge",
                    Instrument::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
                let _ = writeln!(out, "# TYPE {} {}", e.name, kind);
                last_name = Some(e.name.as_str());
            }
            // One sample line: `name[suffix]{labels[,le="…"]} value`.
            let mut sample = |suffix: &str, le: Option<f64>, value: Sample| {
                out.push_str(&e.name);
                out.push_str(suffix);
                push_labels(&mut out, &e.labels, le);
                out.push(' ');
                match value {
                    Sample::Count(n) => push_u64(&mut out, n),
                    Sample::Value(v) => push_exposition(&mut out, v),
                }
                out.push('\n');
            };
            match &e.cell {
                Instrument::Counter(c) => sample("", None, Sample::Count(c.get())),
                Instrument::Gauge(g) => sample("", None, Sample::Value(g.get())),
                Instrument::Histogram(h) => {
                    let snap = h.snapshot();
                    for (le, cum) in &snap.cumulative {
                        sample("_bucket", Some(*le), Sample::Count(*cum));
                    }
                    sample("_bucket", Some(f64::INFINITY), Sample::Count(snap.count));
                    sample("_sum", None, Sample::Value(snap.sum));
                    sample("_count", None, Sample::Count(snap.count));
                }
            }
        }
        out
    }
}

/// A value — typically metric handles — resolved from one registry at
/// a time, for a caller that records into whichever registry it is
/// handed: [`PerRegistry::get`] builds it on the first call and again
/// whenever the registry differs from the one it was built for, so a
/// steady caller resolves its handles once instead of on every record.
///
/// A registry is told apart by the identity of its shared state, the
/// one its clones share. The value holds a weak reference to it, which
/// keeps that allocation — not the metrics — in place, so no later
/// registry can take its address while the value is held.
#[derive(Clone, Default)]
pub struct PerRegistry<T> {
    held: Option<(Weak<Mutex<Inner>>, T)>,
}

impl<T: Default> PerRegistry<T> {
    /// The value for `registry`: the held one if it was built for this
    /// registry (or a clone of it), a fresh `T::default()` otherwise.
    pub fn get(&mut self, registry: &Registry) -> &mut T {
        let shared = registry.shared();
        let same = |(from, _): &(Weak<Mutex<Inner>>, T)| std::ptr::eq(from.as_ptr(), Arc::as_ptr(shared));
        if !self.held.as_ref().is_some_and(same) {
            self.held = None;
        }
        &mut self
            .held
            .get_or_insert_with(|| (Arc::downgrade(shared), T::default()))
            .1
    }
}

impl<T> std::fmt::Debug for PerRegistry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerRegistry")
            .field("held", &self.held.is_some())
            .finish()
    }
}

/// Whether `want`, normalised the way registration stores it (one
/// value per key, the last one given), is exactly `have`.
fn same_labels(have: &LabelSet, want: &[(&str, &str)]) -> bool {
    want.iter().all(|(k, _)| have.contains_key(*k))
        && have.iter().all(|(k, v)| {
            want.iter()
                .rev()
                .find(|(wk, _)| wk == k)
                .is_some_and(|(_, wv)| wv == v)
        })
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

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double-quote, and line-feed become `\\`, `\"`, and `\n`.
#[must_use]
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    push_escaped(&mut out, v);
    out
}

/// Append `{k="v",...}` (nothing for no labels), with the histogram
/// bucket bound `le` after the sorted base labels.
fn push_labels(out: &mut String, base: &LabelSet, le: Option<f64>) {
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

/// A sample's value: a count, or a float.
enum Sample {
    Count(u64),
    Value(f64),
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

    #[test]
    fn idempotent_registration_shares_cells() {
        let r = Registry::new();
        let a = r.counter("ops_total", "ops", &[("kind", "get")]);
        let b = r.counter("ops_total", "ops", &[("kind", "get")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // Different labels are a different cell.
        let c = r.counter("ops_total", "ops", &[("kind", "put")]);
        assert_eq!(c.get(), 0);
    }

    /// Get-or-create compares labels in place; it must find the cell
    /// the old map-building lookup found: order-free, last value wins
    /// for a repeated key, and no match on a sub- or superset.
    #[test]
    fn lookup_normalises_labels_like_registration() {
        let r = Registry::new();
        let ab = r.counter("n_total", "n", &[("a", "1"), ("b", "2")]);
        ab.inc();
        assert_eq!(
            r.counter("n_total", "n", &[("b", "2"), ("a", "1")]).get(),
            1
        );
        assert_eq!(r.counter("n_total", "n", &[("a", "1")]).get(), 0, "subset");
        assert_eq!(
            r.counter("n_total", "n", &[("a", "1"), ("b", "2"), ("c", "3")])
                .get(),
            0,
            "superset"
        );
        assert_eq!(
            r.counter("n_total", "n", &[("a", "1"), ("b", "3")]).get(),
            0
        );

        // A repeated key keeps its last value, on both sides.
        let dup = r.counter("d_total", "d", &[("k", "old"), ("k", "new")]);
        dup.add(5);
        assert_eq!(r.counter("d_total", "d", &[("k", "new")]).get(), 5);
        assert_eq!(
            r.counter("d_total", "d", &[("k", "new"), ("k", "new")])
                .get(),
            5
        );
        assert_eq!(
            r.counter("d_total", "d", &[("k", "new"), ("k", "old")])
                .get(),
            0
        );
        assert!(r.render().contains("d_total{k=\"new\"} 5\n"));

        // The same name and labels under another kind is another cell.
        r.gauge("n_total", "n", &[("a", "1"), ("b", "2")]).set(9.0);
        assert_eq!(ab.get(), 1);
    }

    #[test]
    fn shared_state_appears_on_first_use_or_first_clone() {
        let r = Registry::new();
        assert_eq!(r.render(), "", "an untouched registry renders empty");
        // Cloning before first use still shares.
        let early = r.clone();
        early.counter("late_total", "late", &[]).inc();
        assert_eq!(r.counter("late_total", "late", &[]).get(), 1);
        assert_eq!(r.render(), early.render());
    }

    #[test]
    fn renders_help_type_once_per_family() {
        let r = Registry::new();
        r.counter("x_total", "the xs", &[("a", "1")]).inc();
        r.counter("x_total", "the xs", &[("a", "2")]).add(2);
        let text = r.render();
        assert_eq!(text.matches("# HELP x_total the xs").count(), 1);
        assert_eq!(text.matches("# TYPE x_total counter").count(), 1);
        assert!(text.contains("x_total{a=\"1\"} 1\n"));
        assert!(text.contains("x_total{a=\"2\"} 2\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat_ms", "latency", &[]);
        h.record(1.0);
        h.record(100.0);
        let text = r.render();
        assert!(text.contains("# TYPE lat_ms histogram"));
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_ms_sum 101\n"));
        assert!(text.contains("lat_ms_count 2\n"));
        // Cumulative counts never decrease down the bucket list.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_ms_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "cumulative: {line}");
            prev = v;
        }
    }

    /// Golden test (satellite): a label value containing backslash,
    /// double-quote, and newline escapes per the exposition spec.
    #[test]
    fn golden_label_escaping() {
        let r = Registry::new();
        r.counter("esc_total", "escapes", &[("path", "a\\b\"c\nd")])
            .inc();
        let text = r.render();
        let expected = "# HELP esc_total escapes\n\
                        # TYPE esc_total counter\n\
                        esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn escape_label_value_cases() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let r = Registry::new();
            r.gauge("g", "a gauge", &[("z", "1")]).set(-2.5);
            r.gauge("g", "a gauge", &[("a", "2")]).set(1e-9);
            r.counter("c_total", "a counter", &[]).add(3);
            r.render()
        };
        assert_eq!(build(), build());
    }
}
