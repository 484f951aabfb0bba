//! # entitlement-approval
//!
//! The entitlement contract approval engine (paper §4.3, Algorithm 2).
//!
//! `Hose_Approval` converts hose requests into representative pipe
//! realizations (via [`entitlement_hose::tmgen`]), calls `Pipe_Approval`
//! on each, and aggregates: pipe approvals are summed per realization and
//! the final hose approval is the minimum across realizations — the hose
//! is only guaranteed if *every* representative realization meets the
//! SLO.
//!
//! `Pipe_Approval` enforces strict QoS priority: it walks the eight
//! buckets from `c1_low` to `c4_high`; each bucket's pipes are risk-
//! assessed with all more-premium approvals as background traffic, and
//! each pipe is granted the volume whose availability (from the RSS
//! curve) meets the SLO target.
//!
//! Two approval modes mirror production practice:
//! * **strict batch** — "Only when 100% of the flow meets SLO, the batch
//!   is approved. If any flow fails, the batch is rejected";
//! * **partial** — grant `min(requested, slo_volume)`; the granted value
//!   doubles as the §8 negotiation counter-proposal.

#![forbid(unsafe_code)]

pub mod engine;
pub mod negotiate;
pub mod types;

pub use engine::{
    approve_requests, hose_approval, hose_approval_obs, hose_approval_scenarios, merge_background,
    pipe_approval, ApprovalConfig, ApprovalMode, ApprovalRequest,
};
pub use negotiate::{negotiate, negotiate_scenarios, propose_alternative, rescale_segments, segments_consistent, shrink_to_fit, Agreement, ServiceDecision, ServicePolicy, ThresholdPolicy};
pub use types::{ApprovalSummary, HoseApproval, PipeApproval};
