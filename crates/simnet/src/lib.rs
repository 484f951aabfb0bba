//! # entitlement-simnet
//!
//! A deterministic, tick-based network simulator for the runtime
//! enforcement experiments — the substrate standing in for Meta's
//! production hosts, switches, and the Coldstorage application in the
//! paper's end-to-end drill test (§6, Figs 11–17) and the misbehaving-
//! service incidents (§2.2, Figs 4–5).
//!
//! Fidelity level: fluid rates per host with statistical TCP-connection
//! bookkeeping. Packet-level simulation at O(100 Tbps) is neither
//! feasible nor needed — every metric the paper reports (loss ratio per
//! conformance class, rates, RTT, SYN counts, application latency, block
//! errors) is an aggregate whose dynamics this level reproduces:
//!
//! * [`fabric`] — the bottleneck fabric: strict-priority DSCP queues
//!   (non-conforming traffic maps below every class, §5.1), congestion
//!   drops, M/M/1-style queueing delay, and ACL rules that drop a
//!   configured share of non-conforming traffic (the drill's congestion
//!   mimic);
//! * [`tcp`] — statistical per-tick TCP behavior: SYN retries under
//!   loss, connection failures, goodput/latency inflation;
//! * [`world`] — the simulated host fleet: per-host offered load from a
//!   service's traffic pattern, conformance marking state (host-based or
//!   flow-based, §5.3), and the per-tick step function that produces an
//!   observation for the enforcement layer;
//! * [`app`] — the Coldstorage-like application: reads with host
//!   failover (the mechanism behind Fig 15's latency *drop* at 100%
//!   loss) and sticky write sessions with block errors (Figs 16–17);
//! * [`timeseries`] — a metric recorder shared by all experiments.
//!
//! Enforcement logic is deliberately *not* in this crate: the world
//! exposes [`world::Observation`] and [`world::MarkingCommand`] so the
//! `entitlement-enforcement` crate can drive it, exactly like agents
//! drive kernels in production.

#![forbid(unsafe_code)]

pub mod app;
pub mod fabric;
pub mod netfluid;
pub mod packetsim;
pub mod tcp;
pub mod timeseries;
pub mod world;

pub use app::{AppMetrics, StorageApp};
pub use fabric::{AclRule, Bottleneck, FabricOutcome};
pub use netfluid::{NetTick, NetWorld, ServiceFlow};
pub use packetsim::{simulate_port, PacketSource, PortConfig, PortOutcome};
pub use tcp::TcpTickStats;
pub use timeseries::Recorder;
pub use world::{MarkingCommand, Observation, World, WorldConfig};
