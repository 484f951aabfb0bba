//! The `--trace out.jsonl` / `--metrics out.prom` contract shared by
//! `entitlectl` and `repro`: which files a run should leave behind, the
//! [`Obs`] bundle that collects them, and the write at the end.
//!
//! The clock is a [`Clock::counting`] source — logical milliseconds
//! that advance on every read — so traces carry non-zero, strictly
//! increasing timestamps while staying byte-identical across runs with
//! the same seed (no wall clock anywhere).

use crate::{fold_metrics, Clock, Obs};

/// Requested `--trace` / `--metrics` destinations.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySpec {
    /// JSONL trace output path (`--trace`).
    pub trace: Option<String>,
    /// Prometheus text output path (`--metrics`).
    pub metrics: Option<String>,
}

impl TelemetrySpec {
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

    /// Write the requested outputs: the trace as the sink holds it, the
    /// metrics as [`fold_metrics`] of the sink's events. Returns one
    /// human-readable line per file written (for the CLI to print), or
    /// the first error.
    ///
    /// # Errors
    ///
    /// `cannot write <path>: <reason>` for the first file that fails.
    pub fn write(&self, obs: &Obs) -> Result<Vec<String>, String> {
        let mut written = Vec::new();
        if let Some(path) = &self.trace {
            // The sink's buffer goes to the file as it is, a chunk per
            // write: no second copy, and the first error wins.
            let events = obs.trace.len();
            std::fs::File::create(path)
                .and_then(|mut file| obs.trace.write_jsonl(&mut file))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            written.push(format!("{events} trace event(s) written to {path}"));
        }
        if let Some(path) = &self.metrics {
            let text = fold_metrics(&obs.trace.events())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            let samples = text.lines().filter(|l| !l.starts_with('#')).count();
            written.push(format!("{samples} metric sample(s) written to {path}"));
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key;

    #[test]
    fn an_empty_spec_is_disabled_and_writes_nothing() {
        let spec = TelemetrySpec::default();
        assert!(!spec.requested());
        let obs = spec.make_obs();
        assert!(!obs.enabled());
        assert_eq!(spec.write(&obs), Ok(Vec::new()));
    }

    #[test]
    fn the_streamed_trace_file_equals_the_rendered_string() {
        let dir = std::env::temp_dir().join(format!("obs_telemetry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| Some(dir.join(name).display().to_string());
        let spec = TelemetrySpec {
            trace: path("t.jsonl"),
            metrics: path("m.prom"),
        };
        let obs = spec.make_obs();
        assert!(obs.enabled());
        drop(obs.span("approval", "round").label(key!("qos"), "c1"));
        drop(
            obs.point("fleet", "run")
                .label(key!("hosts"), "8")
                .label(key!("shards"), "2"),
        );
        let lines = spec.write(&obs).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("2 trace event(s) written to "),
            "{lines:?}"
        );
        assert!(
            lines[1].starts_with("2 metric sample(s) written to "),
            "{lines:?}"
        );
        let read = |p: &Option<String>| std::fs::read_to_string(p.as_ref().unwrap()).unwrap();
        assert_eq!(read(&spec.trace), obs.trace.to_jsonl());
        assert_eq!(
            read(&spec.metrics),
            fold_metrics(&obs.trace.events()).unwrap()
        );
    }

    #[test]
    fn an_unwritable_path_is_an_error_not_a_panic() {
        let spec = TelemetrySpec {
            trace: Some("/nonexistent-dir/t.jsonl".to_string()),
            metrics: None,
        };
        let err = spec.write(&spec.make_obs()).unwrap_err();
        assert!(err.starts_with("cannot write /nonexistent-dir/t.jsonl: "), "{err}");
    }
}
