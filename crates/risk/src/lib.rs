//! # entitlement-risk
//!
//! The Risk Simulation System (RSS) interface the approval engine calls
//! (paper §4.3 / Algorithm 2 line 19 and reference \[24\]): given the
//! backbone topology with link reliabilities and a batch of pipe demands,
//! produce per-pipe **bandwidth availability curves** — for each volume
//! `b`, the steady-state probability that the surviving network can carry
//! at least `b` of that pipe when the whole batch is placed together.
//!
//! With the curves in hand, "the Pipe approval is calculated by finding
//! the flow volume associated with the desired SLO target".
//!
//! Mechanics: a [`ScenarioSet`](entitlement_topology::ScenarioSet)
//! (exhaustive single/dual fiber cuts or Monte-Carlo samples) is routed
//! scenario-by-scenario with the greedy k-shortest-path multipath router;
//! the admitted volume per pipe per scenario, weighted by scenario
//! probability, is the curve.

#![forbid(unsafe_code)]

pub mod curve;
pub mod simulate;
pub mod sweep;

pub use curve::AvailabilityCurve;
pub use simulate::{assess_risk_detailed, sweep_plan, RiskAssessment, RiskConfig, RiskSamples};
pub use sweep::sweep_ordered_obs;
