//! # entitlement-slo
//!
//! The windowed SLO evaluation engine: the layer that *interprets* the
//! telemetry `entitlement-obs` collects. The paper's contract life
//! cycle (§3, §5.3, §7) hinges on knowing whether the SLO — "approved
//! demand satisfied in at least X% of intervals" — is actually met at
//! runtime, and whether services consume the entitlement they
//! reserved; re-negotiation runs off exactly this attainment and
//! utilization signal.
//!
//! Three pieces, all deterministic (same interval stream ⇒ byte-identical
//! reports):
//!
//! * [`SloEvaluator`] — a streaming fold over per-cycle
//!   [`IntervalObs`] observations, keyed by `(entity, QoS)`. Each
//!   interval is classified *good* (delivered ≥ the approved share of
//!   demand, within tolerance, and the KV aggregates were readable —
//!   unmeasurable intervals count **bad**, fail-closed) or *bad*, and
//!   folded into the attainment fraction compared against the
//!   contract's [`SloTarget`](entitlement_core::SloTarget).
//! * [`BurnAlert`] — multi-window burn-rate alerting à la SRE
//!   practice: a fast window (default 5 cycles) catches sharp burns, a
//!   slow window (default 60) filters blips; an alert fires only when
//!   **both** exceed their thresholds and clears only after the fast
//!   burn stays low for a full hysteresis window, so a monotone burn
//!   series can never flap (see the proptests). Its fire/clear
//!   [`AlertMachine`] is the one the watchdog's detectors step too.
//! * the **utilization audit** — each entity is classified
//!   over-/well-/under-entitled from mean demand vs. approved rate,
//!   flagging the headroom the paper would reclaim at re-negotiation.
//!
//! Alert transitions are emitted as typed [`AlertEvent`]s *and* as
//! `slo`-span trace events with the workspace's pinned JSONL key
//! order, so one trace file carries the raw intervals and the alert
//! timeline; [`SloEvaluator::fold_trace`] rebuilds the same report
//! offline from that file (`entitlectl slo report`).

#![forbid(unsafe_code)]

pub mod burn;
pub mod config;
pub mod eval;
pub mod report;

pub use burn::{AlertKind, AlertMachine, AlertTransition, BurnAlert, BurnWindow};
pub use config::{PolicyIssue, SloPolicy};
pub use eval::{pair_mut, AlertEvent, IntervalObs, PairMap, SloEvaluator};
pub use report::{AuditClass, EntityReport, SloReport};
