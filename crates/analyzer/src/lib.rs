#![forbid(unsafe_code)]
//! # entitlement-analyzer
//!
//! A static diagnostics engine for the entitlement workspace: it checks
//! contracts, hose/pipe requests, topologies, and availability curves
//! against the paper's invariants *before* any CPU is spent on a risk
//! sweep, and reports violations with stable error codes.
//!
//! Three layers:
//!
//! * [`diag`] — the diagnostics model: [`Code`]s (stable, never
//!   recycled), [`Severity`], structure [`Location`]s, and rendered
//!   text/JSON [`Report`]s;
//! * [`input`] — the [`LintBundle`]: every artifact a planning run
//!   consumes, all sections optional;
//! * [`rules`] — fifteen plain rule functions encoding §3–§4
//!   invariants (segment disjointness, the Algorithm 1 α⁻ > 0.5
//!   boundary, cap sums, the Algorithm 2 bucket order, capacity vs.
//!   max-flow, curve monotonicity, …), run in one fixed order by
//!   [`analyze`].
//!
//! Surfaces: `entitlectl lint` (CLI), the approval engine's pre-flight
//! gate ([`preflight_hoses`]), and the fixture-corpus CI run.
//!
//! ```
//! use entitlement_analyzer::{analyze, Code, LintBundle};
//!
//! let bundle = LintBundle::from_json(
//!     r#"{"approval_order": ["c2_low", "c1_low"]}"#,
//! ).unwrap();
//! let report = analyze(&bundle);
//! assert!(report.has_errors());
//! assert_eq!(report.codes(), vec![Code::E0301]);
//! ```

pub mod diag;
pub mod input;
pub mod rules;

pub use diag::{CatalogEntry, Code, Diagnostic, Location, Report, Severity};
pub use input::{ApprovalConfigCheck, CurveCheck, CurvePoint, HoseFlows, LintBundle, RegionSeries};
pub use rules::{analyze, preflight_hoses};
