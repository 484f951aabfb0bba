//! # entitlement-chaos
//!
//! Deterministic fault injection for the distributed enforcement
//! runtime (paper §5).
//!
//! The runtime pillar works because every host agent computes the same
//! decision from shared KV aggregates — which makes a degraded store a
//! *correctness* hazard, not just a performance one: if an outage
//! reads as "aggregate = 0.0", every agent concludes the service is
//! idle and unthrottles the whole fleet past its entitlement. The
//! paper prescribes **fail-static** (§5.3): keep enforcing the last
//! known decision until fresh data arrives.
//!
//! This crate provides the machinery to *prove* that behavior:
//!
//! * [`plan::FaultPlan`] — a seeded, serializable schedule of faults
//!   (per-shard outages, dropped publishes, stale reads, clock skew,
//!   agent crashes, link cuts), each active over a window of logical
//!   milliseconds. Every injection is a pure function of
//!   `(plan, key, now_ms)`, so chaos runs are exactly reproducible.
//!   Each consumer honours some families and refuses a plan naming
//!   any other ([`FaultPlan::check_honoured`]): the drill and the
//!   sharded fleet engine the four store families, the engine agent
//!   crashes too, the market link cuts.
//! * [`store::ChaosStore`] — the one fault wrapper: a `KvAccess` layer
//!   over the sharded store that the drill and the sharded fleet
//!   engine both run against.
//!
//! Like the kvstore it wraps, this crate is deterministic: no ambient
//! clocks, no ambient randomness — time comes in as `now_ms`,
//! randomness from the plan's seed.

#![forbid(unsafe_code)]

pub mod plan;
pub mod store;

pub use plan::{Fault, FaultKind, FaultPlan, TimeWindow};
pub use store::ChaosStore;
