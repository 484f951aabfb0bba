//! The SLO report: per-`(entity, QoS)` attainment, utilization audit
//! class, alert timeline, and violation flags, rendered as a fixed-width
//! text table or as JSON with a pinned key order.
//!
//! The vendored serde serializes maps as arrays of pairs, so — like the
//! obs trace sink — the JSON here is emitted by hand to keep the key
//! order stable and the output byte-identical across same-seed runs.

use crate::config::SloPolicy;
use crate::eval::AlertEvent;
use serde::write_json_string;
use std::fmt::Write as _;

/// Utilization audit classification for one entity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditClass {
    /// Mean demand sits well below the approved rate: reclaimable
    /// headroom (renegotiate downward).
    OverEntitled,
    /// Demand tracks the approval comfortably.
    WellEntitled,
    /// Demand presses against the approval: renegotiate upward before
    /// the SLO erodes.
    UnderEntitled,
}

impl AuditClass {
    /// Stable lowercase-kebab form used in reports and JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AuditClass::OverEntitled => "over-entitled",
            AuditClass::WellEntitled => "well-entitled",
            AuditClass::UnderEntitled => "under-entitled",
        }
    }
}

/// One `(entity, QoS)` row of the report.
#[derive(Clone, Debug, PartialEq)]
pub struct EntityReport {
    /// Entity name, e.g. `npg:2`.
    pub entity: String,
    /// QoS class, e.g. `c3`.
    pub qos: String,
    /// Contract SLO target the attainment is judged against.
    pub target: f64,
    /// Intervals observed.
    pub intervals: u64,
    /// Intervals classified good.
    pub good: u64,
    /// `good / intervals` (1.0 when nothing observed).
    pub attainment: f64,
    /// Mean demand / mean approved.
    pub utilization: f64,
    /// Utilization audit band.
    pub audit: AuditClass,
    /// `attainment < target`.
    pub violated: bool,
    /// The burn-alert window label the violation is judged under,
    /// e.g. `fast5/slow60`.
    pub window: String,
    /// Mean offered demand, Gbit/s.
    pub mean_demand_gbps: f64,
    /// Mean conforming delivery, Gbit/s.
    pub mean_delivered_gbps: f64,
    /// Mean approved rate, Gbit/s.
    pub mean_approved_gbps: f64,
    /// Whether the burn alert is still firing at end of run.
    pub firing: bool,
    /// Alert transitions in cycle order.
    pub alerts: Vec<AlertEvent>,
}

/// The full report: the policy it was evaluated under plus one row per
/// `(entity, QoS)` in key order.
#[derive(Clone, Debug, PartialEq)]
pub struct SloReport {
    /// Evaluation policy.
    pub policy: SloPolicy,
    /// Rows, sorted by `(entity, qos)`.
    pub entities: Vec<EntityReport>,
}

/// Shortest-round-trip float form shared with the trace labels (a
/// non-finite value is written `0`, as the trace writer does), for
/// every number a report or a watchdog detail prints.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Append `items` to `out` comma-separated, each written by `item`:
/// the body of a JSON array.
pub(crate) fn push_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
}

impl SloReport {
    /// Whether any entity missed its SLO target.
    #[must_use]
    pub fn has_violations(&self) -> bool {
        self.entities.iter().any(|e| e.violated)
    }

    /// Total alert transitions of kind fire across all entities.
    #[must_use]
    pub fn alerts_fired(&self) -> u64 {
        self.entities
            .iter()
            .flat_map(|e| e.alerts.iter())
            .filter(|a| a.kind == crate::burn::AlertKind::Fire)
            .count() as u64
    }

    /// Render the human-readable table. Violated rows are listed again
    /// under a `violations:` section naming the entity, QoS, and the
    /// alert window they were judged under.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "slo report (windows {}, tolerance {})",
            self.policy.window_label(),
            fmt_f64(self.policy.delivery_tolerance)
        );
        let _ = writeln!(
            out,
            "{:<12} {:<4} {:>8} {:>10} {:>10} {:>7} {:>9} {:>9} {:>9}  {:<14} status",
            "entity",
            "qos",
            "target",
            "attain",
            "intervals",
            "util",
            "dem_gbps",
            "del_gbps",
            "app_gbps",
            "audit"
        );
        for e in &self.entities {
            let status = if e.violated {
                "VIOLATED"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<12} {:<4} {:>8} {:>10} {:>10} {:>7} {:>9} {:>9} {:>9}  {:<14} {}",
                e.entity,
                e.qos,
                fmt_f64(e.target),
                format!("{:.4}", e.attainment),
                format!("{}/{}", e.good, e.intervals),
                format!("{:.2}", e.utilization),
                format!("{:.2}", e.mean_demand_gbps),
                format!("{:.2}", e.mean_delivered_gbps),
                format!("{:.2}", e.mean_approved_gbps),
                e.audit.as_str(),
                status
            );
        }
        let alerts: Vec<(&EntityReport, &AlertEvent)> = self
            .entities
            .iter()
            .flat_map(|e| e.alerts.iter().map(move |a| (e, a)))
            .collect();
        if !alerts.is_empty() {
            let _ = writeln!(out, "alerts:");
            for (e, a) in &alerts {
                let _ = writeln!(
                    out,
                    "  cycle {:>5}  {:<5} {} {} window {} fast_burn {:.2} slow_burn {:.2}",
                    a.cycle,
                    a.kind.as_str(),
                    e.entity,
                    e.qos,
                    a.window,
                    a.fast_burn,
                    a.slow_burn
                );
            }
        }
        let violated: Vec<&EntityReport> =
            self.entities.iter().filter(|e| e.violated).collect();
        if violated.is_empty() {
            let _ = writeln!(out, "violations: none");
        } else {
            let _ = writeln!(out, "violations:");
            for e in &violated {
                let _ = writeln!(
                    out,
                    "  {} {} attainment {:.4} < target {} (window {})",
                    e.entity,
                    e.qos,
                    e.attainment,
                    fmt_f64(e.target),
                    e.window
                );
            }
        }
        out
    }

    /// Render as JSON with a pinned key order (hand-emitted; the
    /// vendored serde cannot guarantee map ordering).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"policy\":{");
        let p = &self.policy;
        let _ = write!(
            out,
            "\"fast_window\":{},\"slow_window\":{},\"fast_burn\":{},\"slow_burn\":{},\
             \"clear_fraction\":{},\"hysteresis\":{},\"delivery_tolerance\":{},\
             \"under_utilization\":{},\"over_utilization\":{}",
            p.fast_window,
            p.slow_window,
            fmt_f64(p.fast_burn),
            fmt_f64(p.slow_burn),
            fmt_f64(p.clear_fraction),
            p.hysteresis,
            fmt_f64(p.delivery_tolerance),
            fmt_f64(p.under_utilization),
            fmt_f64(p.over_utilization)
        );
        out.push_str("},\"entities\":[");
        push_list(&mut out, self.entities.iter(), |out, e| {
            out.push_str("{\"entity\":");
            write_json_string(&e.entity, out);
            out.push_str(",\"qos\":");
            write_json_string(&e.qos, out);
            let _ = write!(
                out,
                ",\"target\":{},\"intervals\":{},\"good\":{},\"attainment\":{},\
                 \"utilization\":{},\"audit\":\"{}\",\"violated\":{},\"window\":",
                fmt_f64(e.target),
                e.intervals,
                e.good,
                fmt_f64(e.attainment),
                fmt_f64(e.utilization),
                e.audit.as_str(),
                e.violated
            );
            write_json_string(&e.window, out);
            let _ = write!(
                out,
                ",\"mean_demand_gbps\":{},\"mean_delivered_gbps\":{},\
                 \"mean_approved_gbps\":{},\"firing\":{},\"alerts\":[",
                fmt_f64(e.mean_demand_gbps),
                fmt_f64(e.mean_delivered_gbps),
                fmt_f64(e.mean_approved_gbps),
                e.firing
            );
            push_list(out, e.alerts.iter(), |out, a| {
                let _ = write!(
                    out,
                    "{{\"cycle\":{},\"kind\":\"{}\",\"window\":",
                    a.cycle,
                    a.kind.as_str()
                );
                write_json_string(&a.window, out);
                let _ = write!(
                    out,
                    ",\"fast_burn\":{},\"slow_burn\":{}}}",
                    fmt_f64(a.fast_burn),
                    fmt_f64(a.slow_burn)
                );
            });
            out.push_str("]}");
        });
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burn::AlertKind;

    fn sample() -> SloReport {
        SloReport {
            policy: SloPolicy::default(),
            entities: vec![EntityReport {
                entity: "npg:2".to_string(),
                qos: "c3".to_string(),
                target: 0.99,
                intervals: 500,
                good: 420,
                attainment: 0.84,
                utilization: 1.3,
                audit: AuditClass::UnderEntitled,
                violated: true,
                window: "fast5/slow60".to_string(),
                mean_demand_gbps: 1300.0,
                mean_delivered_gbps: 900.0,
                mean_approved_gbps: 1000.0,
                firing: false,
                alerts: vec![AlertEvent {
                    entity: "npg:2".to_string(),
                    qos: "c3".to_string(),
                    cycle: 242,
                    kind: AlertKind::Fire,
                    window: "fast5/slow60".to_string(),
                    fast_burn: 40.0,
                    slow_burn: 3.33,
                }],
            }],
        }
    }

    #[test]
    fn violated_rows_name_entity_qos_and_window() {
        let text = sample().render_text();
        assert!(text.contains("VIOLATED"), "{text}");
        assert!(
            text.contains("npg:2 c3 attainment 0.8400 < target 0.99 (window fast5/slow60)"),
            "{text}"
        );
        assert!(text.contains("cycle   242  fire"), "{text}");
    }

    #[test]
    fn healthy_report_says_no_violations() {
        let mut r = sample();
        r.entities[0].violated = false;
        r.entities[0].alerts.clear();
        assert!(!r.has_violations());
        let text = r.render_text();
        assert!(text.contains("violations: none"), "{text}");
        assert!(!text.contains("alerts:"), "{text}");
    }

    #[test]
    fn json_key_order_is_pinned() {
        let json = sample().render_json();
        assert!(json.starts_with("{\"policy\":{\"fast_window\":5,\"slow_window\":60,"));
        let entity_pos = json.find("\"entity\":\"npg:2\"").unwrap();
        let qos_pos = json.find("\"qos\":\"c3\"").unwrap();
        let attain_pos = json.find("\"attainment\":0.84").unwrap();
        assert!(entity_pos < qos_pos && qos_pos < attain_pos);
        assert!(json.contains("\"audit\":\"under-entitled\""));
        assert!(json.contains("\"alerts\":[{\"cycle\":242,\"kind\":\"fire\""));
        // It parses back as JSON.
        serde_json::parse(&json).expect("valid json");
    }

    #[test]
    fn alerts_fired_counts_only_fires() {
        let mut r = sample();
        let clear = AlertEvent {
            kind: AlertKind::Clear,
            cycle: 330,
            ..r.entities[0].alerts[0].clone()
        };
        r.entities[0].alerts.push(clear);
        assert_eq!(r.alerts_fired(), 1);
    }
}
