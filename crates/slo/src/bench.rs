//! Run-to-run regression tracking.
//!
//! Each benchmarked run serializes one [`BenchRecord`] — p50/p99/p99.9
//! clock reads per agent cycle (instrumentation density under the
//! counting clock, not speed: `benchmark/` measures speed), mean
//! delivered throughput, attainment, alert count —
//! to `BENCH_<name>.json`. The next run diffs itself against that file
//! under a [`BenchTolerance`]: small drift passes, a real regression
//! (reads per cycle up by more than the fractional gate, throughput or
//! attainment down) produces findings that fail `entitlectl slo audit`.

use crate::report::SloReport;
use entitlement_obs::{Histogram, TraceEvent};
use serde::write_json_string;
use std::fmt::Write as _;

/// One run's performance record.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name (file is `BENCH_<name>.json`).
    pub name: String,
    /// Seed the run used.
    pub seed: u64,
    /// Cycles (intervals) observed across all entities.
    pub cycles: u64,
    /// Median counting-clock reads inside one `agent/cycle` or
    /// `market/admit` span.
    pub p50_cycle_reads: f64,
    /// Tail (p99) reads per span.
    pub p99_cycle_reads: f64,
    /// Extreme-tail (p99.9) reads per span.
    pub p999_cycle_reads: f64,
    /// Mean conforming delivered throughput across entities, Gbit/s.
    pub mean_delivered_gbps: f64,
    /// Worst per-entity SLO attainment.
    pub attainment: f64,
    /// Alert fire transitions during the run.
    pub alerts_fired: u64,
}

/// Fractional gates for the regression diff.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchTolerance {
    /// Allowed absolute drop in attainment (e.g. 0.005 = half a point).
    pub attainment_drop: f64,
    /// Allowed fractional increase in p50/p99/p99.9 reads per cycle.
    pub reads_frac: f64,
    /// Allowed fractional drop in delivered throughput.
    pub throughput_frac: f64,
}

impl Default for BenchTolerance {
    fn default() -> Self {
        BenchTolerance {
            attainment_drop: 0.005,
            reads_frac: 0.25,
            throughput_frac: 0.25,
        }
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn num(v: &serde::JsonValue, key: &str) -> f64 {
    match v.get(key) {
        Some(serde::JsonValue::Number(n)) => *n,
        _ => 0.0,
    }
}

impl BenchRecord {
    /// Build the record from a run's trace events (agent `cycle` and
    /// market `admit` span durations feed the reads-per-cycle quantiles) and
    /// its [`SloReport`] (throughput, attainment, alerts).
    ///
    /// Under the counting clock the folded durations are *logical*
    /// milliseconds — each clock read inside the span adds one — so a
    /// baseline pins the span's instrumentation density, not wall
    /// time. An index-path `market/admit` reads the clock once inside
    /// its span (its close; trace-schema v3 keeps the slot state as a
    /// label, where v2 spent a read on an `index_probe` event), and a
    /// sweep-path admit adds its scenario spans: adding or removing
    /// provenance instrumentation shows up as a bench diff and the
    /// committed `BENCH_market.json` moves with it.
    #[must_use]
    pub fn from_run(name: &str, seed: u64, events: &[TraceEvent], report: &SloReport) -> Self {
        let reads = Histogram::new();
        for e in events {
            if (e.span == "agent" && e.phase == "cycle")
                || (e.span == "market" && e.phase == "admit")
            {
                reads.record(e.dur_ms);
            }
        }
        let cycles = report.entities.iter().map(|e| e.intervals).sum();
        let mean_delivered_gbps = report
            .entities
            .iter()
            .map(|e| e.mean_delivered_gbps)
            .sum::<f64>();
        let attainment = report
            .entities
            .iter()
            .map(|e| e.attainment)
            .fold(1.0, f64::min);
        BenchRecord {
            name: name.to_string(),
            seed,
            cycles,
            p50_cycle_reads: reads.quantile(0.5).unwrap_or(0.0),
            p99_cycle_reads: reads.quantile(0.99).unwrap_or(0.0),
            p999_cycle_reads: reads.p999().unwrap_or(0.0),
            mean_delivered_gbps,
            attainment,
            alerts_fired: report.alerts_fired(),
        }
    }

    /// Serialize with pinned key order (hand-emitted JSON, same policy
    /// as the trace sink and the SLO report).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"name\":");
        write_json_string(&self.name, &mut out);
        let _ = write!(
            out,
            ",\"seed\":{},\"cycles\":{},\"p50_cycle_reads\":{},\"p99_cycle_reads\":{},\
             \"p999_cycle_reads\":{},\
             \"mean_delivered_gbps\":{},\"attainment\":{},\"alerts_fired\":{}}}",
            self.seed,
            self.cycles,
            fmt_f64(self.p50_cycle_reads),
            fmt_f64(self.p99_cycle_reads),
            fmt_f64(self.p999_cycle_reads),
            fmt_f64(self.mean_delivered_gbps),
            fmt_f64(self.attainment),
            self.alerts_fired
        );
        out
    }

    /// Parse a record previously written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns the parse error string when the input is not a JSON
    /// object with a string `name`.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let v = serde_json::parse(s)?;
        let name = match v.get("name") {
            Some(serde::JsonValue::String(n)) => n.clone(),
            _ => return Err("bench record missing string \"name\"".to_string()),
        };
        Ok(BenchRecord {
            name,
            seed: num(&v, "seed") as u64,
            cycles: num(&v, "cycles") as u64,
            p50_cycle_reads: num(&v, "p50_cycle_reads"),
            p99_cycle_reads: num(&v, "p99_cycle_reads"),
            p999_cycle_reads: num(&v, "p999_cycle_reads"),
            mean_delivered_gbps: num(&v, "mean_delivered_gbps"),
            attainment: num(&v, "attainment"),
            alerts_fired: num(&v, "alerts_fired") as u64,
        })
    }

    /// Diff this run against a prior baseline. Each returned string is
    /// one regression finding; an empty vec passes the gate.
    ///
    /// The reads-per-cycle gates only fire when the baseline is
    /// non-trivial (> 0): manual-clock drills record zero-duration
    /// cycles, and a zero baseline would turn any reading into a
    /// regression by division.
    #[must_use]
    pub fn diff(&self, prior: &BenchRecord, tol: &BenchTolerance) -> Vec<String> {
        let mut out = Vec::new();
        if self.attainment < prior.attainment - tol.attainment_drop {
            out.push(format!(
                "attainment regressed: {} -> {} (allowed drop {})",
                fmt_f64(prior.attainment),
                fmt_f64(self.attainment),
                fmt_f64(tol.attainment_drop)
            ));
        }
        for (label, now, was) in [
            ("p50_cycle_reads", self.p50_cycle_reads, prior.p50_cycle_reads),
            ("p99_cycle_reads", self.p99_cycle_reads, prior.p99_cycle_reads),
            ("p999_cycle_reads", self.p999_cycle_reads, prior.p999_cycle_reads),
        ] {
            if was > 0.0 && now > was * (1.0 + tol.reads_frac) {
                out.push(format!(
                    "{label} regressed: {} -> {} reads (allowed +{}%)",
                    fmt_f64(was),
                    fmt_f64(now),
                    fmt_f64(tol.reads_frac * 100.0)
                ));
            }
        }
        if prior.mean_delivered_gbps > 0.0
            && self.mean_delivered_gbps
                < prior.mean_delivered_gbps * (1.0 - tol.throughput_frac)
        {
            out.push(format!(
                "throughput regressed: {} -> {} gbps (allowed -{}%)",
                fmt_f64(prior.mean_delivered_gbps),
                fmt_f64(self.mean_delivered_gbps),
                fmt_f64(tol.throughput_frac * 100.0)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        BenchRecord {
            name: "drill".to_string(),
            seed: 3607,
            cycles: 500,
            p50_cycle_reads: 2.0,
            p99_cycle_reads: 8.0,
            p999_cycle_reads: 9.5,
            mean_delivered_gbps: 950.0,
            attainment: 0.996,
            alerts_fired: 0,
        }
    }

    #[test]
    fn json_round_trips() {
        let r = record();
        let json = r.to_json();
        assert!(json.starts_with("{\"name\":\"drill\",\"seed\":3607,\"cycles\":500,"));
        let back = BenchRecord::from_json(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let r = record();
        assert!(r.diff(&record(), &BenchTolerance::default()).is_empty());
    }

    #[test]
    fn attainment_drop_is_a_regression() {
        let mut now = record();
        now.attainment = 0.98;
        let findings = now.diff(&record(), &BenchTolerance::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("attainment regressed"));
    }

    #[test]
    fn reads_and_throughput_gates() {
        let mut now = record();
        now.p99_cycle_reads = 11.0; // +37.5% > 25% gate
        now.mean_delivered_gbps = 700.0; // -26% > 25% gate
        let findings = now.diff(&record(), &BenchTolerance::default());
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn p999_tail_blowup_is_a_regression() {
        // p50/p99 hold steady while only the extreme tail blows up —
        // the gate the p999 column exists to catch.
        let mut now = record();
        now.p999_cycle_reads = 20.0; // +110% > 25% gate
        let findings = now.diff(&record(), &BenchTolerance::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("p999_cycle_reads regressed"));
    }

    #[test]
    fn zero_reads_baseline_never_divides_into_a_regression() {
        let mut prior = record();
        prior.p50_cycle_reads = 0.0;
        prior.p99_cycle_reads = 0.0;
        let mut now = record();
        now.p50_cycle_reads = 5.0;
        now.p99_cycle_reads = 5.0;
        assert!(now.diff(&prior, &BenchTolerance::default()).is_empty());
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let mut now = record();
        now.attainment = 0.994; // -0.002 within 0.005
        now.p50_cycle_reads = 2.3; // +15% within 25%
        now.mean_delivered_gbps = 900.0; // -5% within 25%
        assert!(now.diff(&record(), &BenchTolerance::default()).is_empty());
    }
}
