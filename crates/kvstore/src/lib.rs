//! # entitlement-kvstore
//!
//! A stand-in for "Meta's internal distributed key-value store" that the
//! enforcement agents publish into (paper §5.1): "Each agent publishes
//! flow rate information (bits/sec) periodically... These rates are
//! aggregated remotely across the entire service and read by the agent
//! periodically."
//!
//! One synchronous stack, in layers:
//!
//! * [`store::ShardedStore`] — the core: a fixed number of
//!   mutex-guarded shards, TTL'd numeric entries, prefix-sum aggregation.
//!   Deterministic and directly testable; concurrent agent tasks share
//!   it behind an `Arc`.
//! * [`access`] — the fallible access layer: [`access::KvError`]
//!   distinguishes "store unreachable" from "key absent" (zero is a
//!   legitimate aggregate; an outage is not), and the
//!   [`access::KvAccess`] trait — flat and shard-addressed operations —
//!   lets fault-injection wrappers stand in for the real store so agents
//!   can be tested fail-static.
//! * [`observed`] — [`observed::ObservedKv`], the telemetry decorator
//!   over any [`access::KvAccess`] layer.
//! * [`fanout`] — the per-shard aggregate fan-out:
//!   [`fanout::ShardFanout`] folds per-shard partials in shard index
//!   order with a staleness bound, turning the flat path's O(agents)
//!   global polls into O(shards) reads per cycle.
//!
//! This crate is deterministic: no ambient wall-clock or randomness —
//! every operation takes a caller-supplied logical `now_ms`.

#![forbid(unsafe_code)]

pub mod access;
pub mod fanout;
pub mod observed;
pub mod store;

pub use access::{KvAccess, KvError};
pub use fanout::{FanoutSnapshot, ShardFanout, ShardRead};
pub use observed::ObservedKv;
pub use store::{key_hash, ShardedStore, StoreConfig};
