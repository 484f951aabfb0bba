//! # entitlement-core
//!
//! Core vocabulary types shared by every crate in the Network Entitlement
//! workspace: identifiers for services (NPGs), regions and hosts; QoS
//! classes with strict priority ordering; bandwidth [`Rate`]s; enforcement
//! [`Period`]s; the [`contract::EntitlementContract`] abstraction itself;
//! deterministic RNG utilities; small statistics helpers (percentiles,
//! sMAPE) used throughout the evaluation harness; and the stable
//! diagnostic [`Code`]s the analyzer and the watchdog report.
//!
//! The entitlement contract (paper §3.2) is an agreement between the network
//! team and a Network Product Group (NPG). It carries a network SLO target
//! (an availability such as `0.9998`) and a list of bandwidth entitlements,
//! each `<NPG, QoS class, region, entitled rate, enforcement period>`.

#![forbid(unsafe_code)]

pub mod code;
pub mod contract;
pub mod error;
pub mod ids;
pub mod period;
pub mod qos;
pub mod rate;
pub mod rng;
pub mod stats;

pub use code::{CatalogEntry, Code, Severity};
pub use contract::{ContractId, Direction, Entitlement, EntitlementContract, SloTarget};
pub use error::{EntitlementError, Result};
pub use ids::{HostId, NpgId, RegionId};
pub use period::{Period, Quarter};
pub use qos::{QosBand, QosBucket, QosClass};
pub use rate::Rate;
pub use rng::DetRng;
