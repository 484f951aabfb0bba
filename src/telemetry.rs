//! CLI-side telemetry plumbing for `entitlectl` and `repro`.
//!
//! Translates the `--trace out.jsonl` / `--metrics out.prom` flags into
//! an [`Obs`] bundle and writes the collected trace/metrics out at the
//! end of a run. The clock is a [`Clock::counting`] source — logical
//! milliseconds that advance on every read — so traces carry non-zero,
//! strictly increasing timestamps while staying byte-identical across
//! runs with the same seed (no wall clock anywhere).

use entitlement_obs::{Clock, Obs};
use std::io::Write as _;

/// Parsed `--trace` / `--metrics` destinations.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySpec {
    /// JSONL trace output path (`--trace`).
    pub trace: Option<String>,
    /// Prometheus text output path (`--metrics`).
    pub metrics: Option<String>,
}

impl TelemetrySpec {
    /// Scan a raw argument list for `--trace <path>` and
    /// `--metrics <path>`.
    #[must_use]
    pub fn from_args(args: &[String]) -> Self {
        let value = |name: &str| {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1).cloned())
        };
        TelemetrySpec {
            trace: value("--trace"),
            metrics: value("--metrics"),
        }
    }

    /// Whether any telemetry output was requested.
    #[must_use]
    pub fn requested(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// Build the [`Obs`] bundle for this run: enabled (with a counting
    /// clock) when any output was requested, disabled otherwise.
    #[must_use]
    pub fn make_obs(&self) -> Obs {
        if self.requested() {
            Obs::new(Clock::counting(1))
        } else {
            Obs::disabled()
        }
    }

    /// Write the requested outputs. Returns one human-readable line per
    /// file written (for the CLI to print), or the first I/O error.
    pub fn write(&self, obs: &Obs) -> Result<Vec<String>, String> {
        let mut written = Vec::new();
        if let Some(path) = &self.trace {
            // Streamed: the trace never exists as one string.
            let events = obs.trace.len();
            std::fs::File::create(path)
                .and_then(|file| {
                    let mut out = std::io::BufWriter::new(file);
                    obs.trace.write_jsonl(&mut out)?;
                    out.flush()
                })
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            written.push(format!("{events} trace event(s) written to {path}"));
        }
        if let Some(path) = &self.metrics {
            let text = obs.registry.render();
            std::fs::write(path, &text)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            let samples = text.lines().filter(|l| !l.starts_with('#')).count();
            written.push(format!("{samples} metric sample(s) written to {path}"));
        }
        Ok(written)
    }
}

/// A small traced approval round: one hose on the seed backbone through
/// the full `Hose_Approval` pipeline. `entitlectl drill --trace` runs
/// this before the drill so one trace file covers every instrumented
/// span family — approval phases, the risk sweep, KV operations, and
/// agent cycles — without paying for a full planning run.
pub fn traced_approval_preamble(seed: u64, obs: &Obs) {
    use entitlement_approval::{hose_approval_obs, ApprovalConfig};
    use entitlement_core::{Direction, NpgId, QosClass, Rate, SloTarget};
    use entitlement_hose::HoseRequest;
    use entitlement_topology::BackboneSpec;

    let topo = BackboneSpec::small(seed).build();
    let dcs = topo.dc_ids();
    if dcs.len() < 2 {
        return;
    }
    let hose = HoseRequest::general(
        NpgId(1),
        QosClass::C2,
        dcs[0],
        Direction::Egress,
        Rate::gbps(200.0),
        dcs[1..].iter().copied(),
    );
    let Ok(slo) = SloTarget::new(0.99) else { return };
    let _ = hose_approval_obs(
        &topo,
        &[hose],
        &[slo],
        &ApprovalConfig {
            tms_per_hose: 2,
            max_cuts: 1,
            ..Default::default()
        },
        obs,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_flags() {
        let args: Vec<String> = ["drill", "--trace", "t.jsonl", "--metrics", "m.prom"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let spec = TelemetrySpec::from_args(&args);
        assert_eq!(spec.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(spec.metrics.as_deref(), Some("m.prom"));
        assert!(spec.requested());
        assert!(spec.make_obs().enabled());
        assert!(!TelemetrySpec::default().requested());
        assert!(!TelemetrySpec::default().make_obs().enabled());
    }

    #[test]
    fn preamble_covers_approval_and_risk_spans() {
        let obs = Obs::new(Clock::counting(1));
        traced_approval_preamble(7, &obs);
        let phases: std::collections::BTreeSet<String> =
            obs.trace.events().iter().map(|e| e.phase.clone()).collect();
        for p in ["preflight", "gen_demand", "hose_approval", "pipe_approval", "sweep"] {
            assert!(phases.contains(p), "missing {p}: {phases:?}");
        }
    }

    #[test]
    fn preamble_is_deterministic() {
        let run = || {
            let obs = Obs::new(Clock::counting(1));
            traced_approval_preamble(7, &obs);
            obs.trace.to_jsonl()
        };
        assert_eq!(run(), run());
    }
}
