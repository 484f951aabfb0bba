//! # entitlement-obs
//!
//! The workspace's telemetry core: metric primitives (counters, gauges,
//! log-bucketed histograms), a [`Registry`] that renders the Prometheus
//! text exposition format, and a [`TraceSink`] that emits structured
//! span events as JSONL with a stable schema.
//!
//! Two constraints shape the design:
//!
//! * **No globals.** Every handle ([`Registry`], [`TraceSink`], [`Clock`],
//!   and the [`Obs`] bundle that carries all three) is an explicit,
//!   cheaply cloneable value threaded through call sites. Library code
//!   that is not handed an `Obs` pays nothing.
//! * **Determinism.** Timestamps come from a caller-supplied [`Clock`],
//!   never from the wall implicitly, so the deterministic crates stay
//!   X0101-clean and identical seeds produce byte-identical traces.
//!   Simulations drive a [`Clock::manual`] clock from their own logical
//!   time; CLI paths that want non-zero durations without wall time use
//!   [`Clock::counting`].
//!
//! ```
//! use entitlement_obs::{Clock, Obs};
//!
//! let obs = Obs::new(Clock::counting(1));
//! {
//!     let _span = obs.span("approval", "hose_approval").label("qos", "C1");
//! } // emitted on drop
//! obs.registry.histogram("demo_ms", "demo latency", &[]).record(4.2);
//! assert!(obs.trace.to_jsonl().contains("\"span\":\"approval\""));
//! assert!(obs.registry.render().contains("demo_ms_count"));
//! ```

#![forbid(unsafe_code)]

pub mod clock;
mod decimal;
pub mod metrics;
pub mod registry;
pub mod summary;
pub mod telemetry;
pub mod trace;
pub mod tree;

pub use clock::Clock;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{escape_label_value, PerRegistry, Registry};
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
/// metric [`Registry`], a [`TraceSink`], and the [`Clock`] that stamps
/// both. Cloning shares all three.
#[derive(Clone)]
pub struct Obs {
    /// Metric registry (counters, gauges, histograms).
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
            registry: Registry::new(),
            trace: TraceSink::new(),
            clock,
        }
    }

    /// A no-op bundle: spans and events vanish, metric handles still
    /// function but nothing retains the registry. This is what
    /// untraced entry points pass down, so the traced
    /// variants are the only implementation.
    #[inline]
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            registry: Registry::new(),
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
