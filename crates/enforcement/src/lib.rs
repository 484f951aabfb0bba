//! # entitlement-enforcement
//!
//! The large-scale distributed run-time enforcement system (paper §5).
//!
//! Production architecture being reproduced (the *second generation* of
//! §5.1): no central controller — every host runs an agent whose
//! user-space side queries the contract database, publishes its flow
//! rates into a distributed KV store, reads back the service-wide
//! aggregates, and decides *how much* traffic to remark
//! ([`metering`], §5.2) and *what* to remark ([`marking`], §5.3); the
//! kernel side is a BPF egress classifier consulting a marking table
//! ([`bpf`]). Switches — not hosts — drop packets: non-conforming DSCP
//! maps to the lowest-priority queue.
//!
//! Also included:
//! * [`controller`] — the *first generation* centralized architecture
//!   (controller computes per-host rate limits) as an ablation baseline,
//!   with its failure modes;
//! * [`convergence`] — the §7.4 iterative simulation behind Figs 23–25
//!   (stateless marking oscillates; stateful converges);
//! * [`drill`] — the §6 end-to-end drill harness coupling agents to the
//!   simnet world and the storage application (Figs 11–17);
//! * [`fleet`] — the sharded fleet engine: every host's agent as
//!   struct-of-arrays state, folded per shard and metered on one
//!   global aggregate, deterministic at 10⁶ hosts.
//!
//! The whole runtime is **fail-static** (§5.3): when the KV store is
//! unavailable, agents hold their last enforcement decision instead of
//! reading the outage as "no traffic" and unthrottling. The drill and
//! the fleet engine both accept an `entitlement_chaos::FaultPlan` to
//! inject store outages, dropped publishes, stale reads and clock skew
//! (and the engine agent crashes) and prove that property end to end.

#![forbid(unsafe_code)]

pub mod agent;
pub mod bpf;
pub mod controller;
pub mod convergence;
pub mod db;
pub mod drill;
pub mod fleet;
pub mod ingress;
pub mod marking;
pub mod metering;
pub mod multidrill;
pub mod shard;

pub use agent::{Agent, AgentConfig};
pub use bpf::{ClassifyInput, MarkAction, MarkingTable};
pub use convergence::{simulate_marking, MarkingSim, MarkingSimResult};
pub use db::ContractDb;
pub use drill::{run_drill, run_drill_with, DrillConfig, DrillStage};
pub use fleet::{
    host_demand_bps, run_fleet_engine, run_fleet_engine_with, FleetConfig, FleetCycleStats,
    FleetOutcome, FleetShardStats, FleetStrategy,
};
pub use shard::ShardPlan;
pub use ingress::{IngressCoordinator, SourceMeter};
pub use multidrill::{run_multi_drill, MultiDrillConfig, ServiceSpec};
pub use marking::{MarkingStrategy, Marker};
pub use metering::{Meter, StatefulMeter, StatelessMeter};
