//! # entitlement-hose
//!
//! Contract representations (paper §4.2): the pipe model, the general
//! hose model, and the paper's contribution — the **segmented hose** —
//! plus the machinery the approval engine needs around them:
//!
//! * [`request`] — pipe and hose request types; reserved-capacity
//!   accounting that reproduces the paper's Fig 6 arithmetic
//!   (pipe 900G → hose 3600G → segmented hose 1800G);
//! * [`segment`] — Algorithm 1: the greedy two-segment split on the
//!   α⁻(S) > 0.5 boundary, generalized to N segments by recursive
//!   splitting (the paper's future-work extension, used for ablations);
//! * [`polytope`] — the hose polytope: membership tests, reserved
//!   capacity, and log-volume (volume reduction is the paper's stated
//!   objective for segmentation);
//! * [`tmgen`] — the Demand Generation Service stand-in: representative
//!   traffic matrices sampled from the polytope boundary, vertex-biased;
//! * [`coverage`] — the hose-coverage metric of Fig 20–21: the fraction
//!   of the hose space dominated by a set of representative TMs, and the
//!   TM count needed to reach a coverage target;
//! * [`balance`] — §8's ingress/egress balancing preprocessing (dummy
//!   service attribution).

#![forbid(unsafe_code)]

pub mod balance;
pub mod coverage;
pub mod polytope;
pub mod request;
pub mod segment;
pub mod tmgen;

pub use coverage::{coverage_of, tms_for_coverage};
pub use polytope::HosePolytope;
pub use request::{HoseRequest, HoseSegment, PipeRequest};
pub use segment::{segment_flow_series, segment_n_way, FlowSeries};
pub use tmgen::{generate_tms, TmGenConfig};
