//! The watch report: typed violations, detector transitions, and the
//! stable text/JSON renderings behind `entitlectl watch`.
//!
//! Rendering policy matches the SLO report: hand-emitted JSON with
//! pinned key order, floats in shortest-round-trip form — the same
//! report built live and rebuilt from an offline trace refold must be
//! byte-identical.

use crate::report::{fmt_f64, push_list};
use crate::AlertKind;
use entitlement_core::Code;
use serde::write_json_string;
use std::fmt::{self, Write as _};

/// One invariant violation, with the offending coordinates.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The stable code (`W0101`–`W0104`).
    pub code: Code,
    /// Entity the observation belongs to, e.g. `npg:2`.
    pub entity: String,
    /// QoS class, e.g. `c3`.
    pub qos: String,
    /// Offending shard index, or `-1` when the check is not per-shard.
    pub shard: i64,
    /// 1-based ordinal of the observation within its stream (metering
    /// cycle, shard check, or admission sequence).
    pub cycle: u64,
    /// Human-readable violation detail.
    pub detail: String,
}

/// One anomaly-detector transition (`W0105`–`W0107`).
#[derive(Clone, Debug, PartialEq)]
pub struct DetectorEvent {
    /// The stable code.
    pub code: Code,
    /// Entity the detector watches.
    pub entity: String,
    /// QoS class.
    pub qos: String,
    /// 1-based ordinal of the observation that caused the transition.
    pub cycle: u64,
    /// Fire or clear.
    pub kind: AlertKind,
    /// Detector statistic at the transition.
    pub stat: f64,
}

impl fmt::Display for Violation {
    /// `W0101 cycle 94 npg:2/c3: <detail>`, the shard after the QoS
    /// (` s3`) when the check named one.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycle {} {}/{}", self.code, self.cycle, self.entity, self.qos)?;
        if self.shard >= 0 {
            write!(f, " s{}", self.shard)?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl fmt::Display for DetectorEvent {
    /// `W0105 fire cycle 243 npg:2/c3 stat=9.5`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (code, kind, stat) = (self.code, self.kind.as_str(), fmt_f64(self.stat));
        write!(f, "{code} {kind} cycle {} {}/{} stat={stat}", self.cycle, self.entity, self.qos)
    }
}

/// Per-code violation summary row.
#[derive(Clone, Debug, PartialEq)]
pub struct CodeStats {
    /// The code.
    pub code: Code,
    /// Violations recorded under it.
    pub count: u64,
    /// First offending cycle.
    pub first_cycle: u64,
    /// Last offending cycle.
    pub last_cycle: u64,
}

/// The streaming watchdog's final state.
#[derive(Clone, Debug, PartialEq)]
pub struct WatchReport {
    /// Detector-parameter label, e.g. `ewma(0.3/0.05)>0.2 cusum(k=0.5,h=8)`.
    pub detectors: String,
    /// Cycle observations folded.
    pub cycles: u64,
    /// Shard-reconciliation checks folded.
    pub shard_checks: u64,
    /// Admission observations folded.
    pub admits: u64,
    /// Every invariant violation, in observation order.
    pub violations: Vec<Violation>,
    /// Every detector transition, in observation order.
    pub transitions: Vec<DetectorEvent>,
    /// Codes of detectors still firing at end of stream, sorted.
    pub firing: Vec<Code>,
}

/// Violations shown in full in the text rendering before eliding.
const TEXT_DETAIL_CAP: usize = 8;

impl WatchReport {
    /// Whether the run was completely silent: no violation, no
    /// transition, nothing left firing.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.violations.is_empty() && self.transitions.is_empty() && self.firing.is_empty()
    }

    /// Detector fire transitions in the run.
    #[must_use]
    pub fn fires(&self) -> u64 {
        self.transitions
            .iter()
            .filter(|t| t.kind == AlertKind::Fire)
            .count() as u64
    }

    /// Per-code violation summary, in code order.
    #[must_use]
    pub fn code_stats(&self) -> Vec<CodeStats> {
        let mut out: Vec<CodeStats> = Vec::new();
        for v in &self.violations {
            match out.iter_mut().find(|s| s.code == v.code) {
                Some(s) => {
                    s.count += 1;
                    s.first_cycle = s.first_cycle.min(v.cycle);
                    s.last_cycle = s.last_cycle.max(v.cycle);
                }
                None => out.push(CodeStats {
                    code: v.code,
                    count: 1,
                    first_cycle: v.cycle,
                    last_cycle: v.cycle,
                }),
            }
        }
        out.sort_by_key(|s| s.code);
        out
    }

    /// Render the human-readable report.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "watch report: cycles={} shard_checks={} admits={} detectors={}",
            self.cycles, self.shard_checks, self.admits, self.detectors
        );
        if !self.violations.is_empty() {
            let _ = writeln!(out, "violations ({}):", self.violations.len());
            for s in self.code_stats() {
                let _ = writeln!(
                    out,
                    "  {} x{} cycles {}..{} — {}",
                    s.code,
                    s.count,
                    s.first_cycle,
                    s.last_cycle,
                    s.code.entry().invariant
                );
            }
            for v in self.violations.iter().take(TEXT_DETAIL_CAP) {
                let _ = writeln!(out, "  {v}");
            }
            if self.violations.len() > TEXT_DETAIL_CAP {
                let _ = writeln!(
                    out,
                    "  … {} more violation(s)",
                    self.violations.len() - TEXT_DETAIL_CAP
                );
            }
        }
        if !self.transitions.is_empty() {
            let _ = writeln!(out, "transitions ({}):", self.transitions.len());
            for t in &self.transitions {
                let _ = writeln!(out, "  {t}");
            }
        }
        if !self.firing.is_empty() {
            let codes: Vec<&str> = self.firing.iter().map(|c| c.as_str()).collect();
            let _ = writeln!(out, "still firing: {}", codes.join(" "));
        }
        if self.healthy() {
            let _ = writeln!(out, "status: healthy");
        } else {
            let _ = writeln!(
                out,
                "status: {} violation(s), {} detector fire(s)",
                self.violations.len(),
                self.fires()
            );
        }
        out
    }

    /// Render as JSON with pinned key order.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"cycles\":{},\"shard_checks\":{},\"admits\":{},\"healthy\":{},",
            self.cycles,
            self.shard_checks,
            self.admits,
            self.healthy()
        );
        out.push_str("\"codes\":[");
        push_list(&mut out, self.code_stats().iter(), |out, s| {
            let _ = write!(
                out,
                "{{\"code\":\"{}\",\"count\":{},\"first_cycle\":{},\"last_cycle\":{}}}",
                s.code, s.count, s.first_cycle, s.last_cycle
            );
        });
        out.push_str("],\"firing\":[");
        push_list(&mut out, self.firing.iter(), |out, c| {
            let _ = write!(out, "\"{c}\"");
        });
        out.push_str("],\"violations\":[");
        push_list(&mut out, self.violations.iter(), |out, v| {
            let _ = write!(out, "{{\"code\":\"{}\",\"entity\":", v.code);
            write_json_string(&v.entity, out);
            out.push_str(",\"qos\":");
            write_json_string(&v.qos, out);
            let _ = write!(out, ",\"shard\":{},\"cycle\":{},\"detail\":", v.shard, v.cycle);
            write_json_string(&v.detail, out);
            out.push('}');
        });
        out.push_str("],\"transitions\":[");
        push_list(&mut out, self.transitions.iter(), |out, t| {
            let _ = write!(out, "{{\"code\":\"{}\",\"entity\":", t.code);
            write_json_string(&t.entity, out);
            out.push_str(",\"qos\":");
            write_json_string(&t.qos, out);
            let _ = write!(
                out,
                ",\"cycle\":{},\"kind\":\"{}\",\"stat\":{}}}",
                t.cycle,
                t.kind.as_str(),
                fmt_f64(t.stat)
            );
        });
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> WatchReport {
        WatchReport {
            detectors: "ewma(0.3/0.05)>0.2 cusum(k=0.5,h=8)".to_string(),
            cycles: 480,
            shard_checks: 0,
            admits: 0,
            violations: vec![
                Violation {
                    code: Code::W0101,
                    entity: "npg:2".to_string(),
                    qos: "c3".to_string(),
                    shard: -1,
                    cycle: 94,
                    detail: "delivered 1.3e12 bps exceeds bound".to_string(),
                },
                Violation {
                    code: Code::W0101,
                    entity: "npg:2".to_string(),
                    qos: "c3".to_string(),
                    shard: -1,
                    cycle: 95,
                    detail: "delivered 1.31e12 bps exceeds bound".to_string(),
                },
            ],
            transitions: vec![DetectorEvent {
                code: Code::W0105,
                entity: "npg:2".to_string(),
                qos: "c3".to_string(),
                cycle: 243,
                kind: AlertKind::Fire,
                stat: 9.5,
            }],
            firing: vec![Code::W0105],
        }
    }

    #[test]
    fn healthy_report_says_so() {
        let r = WatchReport {
            detectors: String::new(),
            cycles: 10,
            shard_checks: 0,
            admits: 0,
            violations: Vec::new(),
            transitions: Vec::new(),
            firing: Vec::new(),
        };
        assert!(r.healthy());
        assert!(r.render_text().contains("status: healthy"));
        assert!(r.render_json().contains("\"healthy\":true"));
    }

    #[test]
    fn code_stats_aggregate_by_code() {
        let stats = report().code_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].code, Code::W0101);
        assert_eq!(stats[0].count, 2);
        assert_eq!((stats[0].first_cycle, stats[0].last_cycle), (94, 95));
    }

    #[test]
    fn text_rendering_names_codes_and_transitions() {
        let text = report().render_text();
        assert!(text.contains("W0101 x2 cycles 94..95"), "{text}");
        assert!(text.contains("W0105 fire cycle 243"), "{text}");
        assert!(text.contains("still firing: W0105"), "{text}");
        assert!(text.contains("status: 2 violation(s), 1 detector fire(s)"), "{text}");
    }

    #[test]
    fn json_rendering_has_pinned_key_order() {
        let json = report().render_json();
        assert!(json.starts_with("{\"cycles\":480,\"shard_checks\":0,\"admits\":0,\"healthy\":false,"));
        assert!(json.contains("\"codes\":[{\"code\":\"W0101\",\"count\":2,"), "{json}");
        assert!(json.contains("\"firing\":[\"W0105\"]"), "{json}");
        assert!(json.contains("\"kind\":\"fire\",\"stat\":9.5"), "{json}");
    }
}
