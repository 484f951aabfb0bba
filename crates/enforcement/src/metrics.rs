//! Agent observability.
//!
//! A production enforcement fleet lives or dies by its visibility: §5.3
//! picks host-based remarking partly because it "facilitates
//! troubleshooting and provides better visibility" and "helps service
//! teams easily identify affected hosts". This module is the agent-side
//! half of that story: cheap counters and gauges every component bumps,
//! rendered in the Prometheus text exposition format so any scraper can
//! ingest them.
//!
//! The metric primitives themselves live in [`entitlement_obs`] (one
//! implementation workspace-wide) and are re-exported here. The gauge
//! stores the `f64` bit pattern in its atomic — the earlier fixed-point
//! `(v * 1e6) as u64` encoding saturated every negative value to zero
//! and quantised sub-micro magnitudes away (see the regression tests).

pub use entitlement_obs::{Counter, Gauge};

use entitlement_obs::escape_label_value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The agent's metric registry.
#[derive(Debug, Default)]
pub struct AgentMetrics {
    /// Metering cycles executed.
    pub cycles: Counter,
    /// Cycles that changed the marking decision.
    pub decision_changes: Counter,
    /// Contract database refreshes that succeeded.
    pub contract_refreshes: Counter,
    /// Contract refreshes the DB could not answer, served from the
    /// stale cached entitlement (fail-static on the contract path).
    pub contract_stale_fallbacks: Counter,
    /// Contract lookups that failed with no cached value to fall back
    /// on (the agent is flying blind on this contract).
    pub contract_lookup_failures: Counter,
    /// Rate publications into the KV store.
    pub publishes: Counter,
    /// Publications the KV store could not accept.
    pub publish_failures: Counter,
    /// Aggregate reads that failed (store unavailable).
    pub aggregate_read_failures: Counter,
    /// Cycles that held the previous decision because aggregates were
    /// unavailable (fail-static).
    pub fail_static_cycles: Counter,
    /// Packets classified by the kernel component.
    pub packets_seen: Counter,
    /// Packets remarked non-conforming.
    pub packets_remarked: Counter,
    /// Current conform ratio.
    pub conform_ratio: Gauge,
    /// Current entitled rate, bps.
    pub entitled_bps: Gauge,
    /// Last observed service total rate, bps.
    pub total_rate_bps: Gauge,
    /// Milliseconds since the last successful aggregate read — how
    /// stale the data behind the current decision is (0 when fresh).
    pub aggregate_staleness_ms: Gauge,
}

/// A metric's `(name, help, snapshot accessor)` row.
type MetricRow<T> = (&'static str, &'static str, fn(&MetricsSnapshot) -> T);

/// `(name, help)` for each counter, in render order, paired with an
/// accessor.
const COUNTERS: [MetricRow<u64>; 11] = [
    ("entitlement_agent_cycles_total", "Metering cycles executed", |s| s.cycles),
    (
        "entitlement_agent_decision_changes_total",
        "Cycles that changed the marking decision",
        |s| s.decision_changes,
    ),
    (
        "entitlement_agent_contract_refreshes_total",
        "Successful contract refreshes",
        |s| s.contract_refreshes,
    ),
    (
        "entitlement_agent_contract_stale_fallbacks_total",
        "Failed refreshes served from the stale cached entitlement",
        |s| s.contract_stale_fallbacks,
    ),
    (
        "entitlement_agent_contract_lookup_failures_total",
        "Failed contract lookups with no cached fallback",
        |s| s.contract_lookup_failures,
    ),
    (
        "entitlement_agent_publishes_total",
        "Rate publications to the KV store",
        |s| s.publishes,
    ),
    (
        "entitlement_agent_publish_failures_total",
        "Publications the KV store could not accept",
        |s| s.publish_failures,
    ),
    (
        "entitlement_agent_aggregate_read_failures_total",
        "Aggregate reads that failed (store unavailable)",
        |s| s.aggregate_read_failures,
    ),
    (
        "entitlement_agent_fail_static_cycles_total",
        "Cycles that held the last decision on unavailable aggregates",
        |s| s.fail_static_cycles,
    ),
    ("entitlement_agent_packets_seen_total", "Packets classified", |s| s.packets_seen),
    (
        "entitlement_agent_packets_remarked_total",
        "Packets remarked non-conforming",
        |s| s.packets_remarked,
    ),
];

/// `(name, help)` for each gauge, with an accessor.
const GAUGES: [MetricRow<f64>; 4] = [
    ("entitlement_agent_conform_ratio", "Current conform ratio", |s| s.conform_ratio),
    (
        "entitlement_agent_entitled_bps",
        "Entitled rate in bits per second",
        |s| s.entitled_bps,
    ),
    (
        "entitlement_agent_total_rate_bps",
        "Last observed service total rate",
        |s| s.total_rate_bps,
    ),
    (
        "entitlement_agent_aggregate_staleness_ms",
        "Age of the aggregates behind the current decision",
        |s| s.aggregate_staleness_ms,
    ),
];

impl AgentMetrics {
    /// Fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Render in the Prometheus text exposition format, with the given
    /// constant labels (e.g. `{npg="7",qos="c2"}`). Label values are
    /// escaped per the exposition spec.
    pub fn render(&self, labels: &BTreeMap<&str, String>) -> String {
        let label_str = if labels.is_empty() {
            String::new()
        } else {
            let inner: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        };
        let snap = self.snapshot();
        let mut out = String::new();
        for (name, help, get) in COUNTERS {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name}{label_str} {}\n",
                get(&snap)
            ));
        }
        for (name, help, get) in GAUGES {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name}{label_str} {}\n",
                get(&snap)
            ));
        }
        out
    }

    /// A compact snapshot for logs and tests.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cycles: self.cycles.get(),
            decision_changes: self.decision_changes.get(),
            contract_refreshes: self.contract_refreshes.get(),
            contract_stale_fallbacks: self.contract_stale_fallbacks.get(),
            contract_lookup_failures: self.contract_lookup_failures.get(),
            publishes: self.publishes.get(),
            publish_failures: self.publish_failures.get(),
            aggregate_read_failures: self.aggregate_read_failures.get(),
            fail_static_cycles: self.fail_static_cycles.get(),
            packets_seen: self.packets_seen.get(),
            packets_remarked: self.packets_remarked.get(),
            conform_ratio: self.conform_ratio.get(),
            entitled_bps: self.entitled_bps.get(),
            total_rate_bps: self.total_rate_bps.get(),
            aggregate_staleness_ms: self.aggregate_staleness_ms.get(),
        }
    }
}

/// A point-in-time copy of the registry.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Metering cycles executed.
    pub cycles: u64,
    /// Decision-changing cycles.
    pub decision_changes: u64,
    /// Successful contract refreshes.
    pub contract_refreshes: u64,
    /// Failed refreshes served from the stale cached entitlement.
    pub contract_stale_fallbacks: u64,
    /// Failed lookups with no cached fallback.
    pub contract_lookup_failures: u64,
    /// KV publications.
    pub publishes: u64,
    /// Failed KV publications.
    pub publish_failures: u64,
    /// Failed aggregate reads.
    pub aggregate_read_failures: u64,
    /// Fail-static (held-decision) cycles.
    pub fail_static_cycles: u64,
    /// Packets classified.
    pub packets_seen: u64,
    /// Packets remarked.
    pub packets_remarked: u64,
    /// Current conform ratio.
    pub conform_ratio: f64,
    /// Entitled rate, bps.
    pub entitled_bps: f64,
    /// Last total rate, bps.
    pub total_rate_bps: f64,
    /// Aggregate staleness, ms.
    pub aggregate_staleness_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let m = AgentMetrics::new();
        m.cycles.inc();
        m.cycles.inc();
        m.packets_seen.add(100);
        m.conform_ratio.set(0.75);
        let s = m.snapshot();
        assert_eq!(s.cycles, 2);
        assert_eq!(s.packets_seen, 100);
        assert!((s.conform_ratio - 0.75).abs() < 1e-6);
    }

    /// Regression (satellite): the old fixed-point gauge encoding
    /// `(v * 1e6) as u64` saturated negatives to 0 and truncated
    /// sub-micro values. The bit-pattern encoding round-trips both.
    #[test]
    fn gauge_preserves_negative_and_sub_micro_values() {
        let g = Gauge::new();
        g.set(-1.5);
        assert_eq!(g.get(), -1.5, "negative values must not saturate to 0");
        g.set(-3.2e8);
        assert_eq!(g.get(), -3.2e8);
        g.set(4.2e-7); // below one micro-unit of the old encoding
        assert_eq!(g.get(), 4.2e-7, "sub-micro values must not truncate");
        g.set(0.0);
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn staleness_gauge_survives_clock_skew_negatives() {
        // A skewed chaos clock can make "now - last_read" negative;
        // the gauge must report it rather than clamping to zero.
        let m = AgentMetrics::new();
        m.aggregate_staleness_ms.set(-250.0);
        assert_eq!(m.snapshot().aggregate_staleness_ms, -250.0);
    }

    #[test]
    fn prometheus_rendering() {
        let m = AgentMetrics::new();
        m.cycles.inc();
        m.conform_ratio.set(0.5);
        let labels: BTreeMap<&str, String> =
            [("npg", "7".to_string()), ("qos", "c2".to_string())].into_iter().collect();
        let text = m.render(&labels);
        assert!(text.contains("# TYPE entitlement_agent_cycles_total counter"));
        assert!(text.contains("entitlement_agent_cycles_total{npg=\"7\",qos=\"c2\"} 1"));
        assert!(text.contains("entitlement_agent_conform_ratio{npg=\"7\",qos=\"c2\"} 0.5"));
        // Every line is HELP, TYPE, or a sample.
        for line in text.lines() {
            assert!(
                line.starts_with("# HELP")
                    || line.starts_with("# TYPE")
                    || line.starts_with("entitlement_agent_"),
                "bad line: {line}"
            );
        }
    }

    #[test]
    fn rendered_labels_are_escaped() {
        let m = AgentMetrics::new();
        let labels: BTreeMap<&str, String> =
            [("svc", "a\"b\\c\nd".to_string())].into_iter().collect();
        let text = m.render(&labels);
        assert!(
            text.contains(r#"svc="a\"b\\c\nd""#),
            "escaped label: {text}"
        );
        entitlement_obs::validate_prometheus(&text).expect("parseable exposition");
    }

    #[test]
    fn render_without_labels() {
        let m = AgentMetrics::new();
        let text = m.render(&BTreeMap::new());
        assert!(text.contains("entitlement_agent_cycles_total 0\n"));
    }

    #[test]
    fn concurrent_increments() {
        use std::sync::Arc;
        let m = Arc::new(AgentMetrics::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.cycles.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.cycles.get(), 8000);
    }
}
