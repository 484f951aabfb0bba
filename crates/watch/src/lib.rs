//! Runtime watchdog: streaming invariant monitors and anomaly
//! detection over live SLI streams.
//!
//! The watchdog consumes the same per-cycle observations the
//! drill/fleet/market paths fold into `slo`/`interval` events and runs
//! two kinds of checks as a deterministic streaming fold:
//!
//! * **Invariant monitors** (`W0101`–`W0104`) — per-cycle conservation
//!   checks: delivered ≤ min(demand, approved) × (1 + ε); the sharded
//!   aggregation total bit-reconciles with its per-shard re-sum;
//!   residual-index decrements are exact and never go negative; the
//!   marked/conforming fractions are valid shares. Each violation is a
//!   typed `watch`/`violation` trace event carrying the offending
//!   (entity, QoS, shard, cycle) and its stable analyzer code.
//! * **Anomaly detectors** (`W0105`–`W0107`) — CUSUM changepoint over
//!   the staleness and admit-latency series, EWMA drift over SLO
//!   attainment, all behind the burn-alert hysteresis machine so
//!   monotone healthy series provably never flap.
//!
//! Every observation is simultaneously emitted as a `watch`/`cycle`,
//! `watch`/`shards`, or `watch`/`admit` trace event with
//! shortest-round-trip float labels, so
//! [`WatchEvaluator::fold_trace`] rebuilds a byte-identical
//! [`WatchReport`] from the saved trace alone — `entitlectl watch
//! <trace.jsonl>` is the offline entry point, and the chaos matrix
//! asserts fire/clear *timing* per seeded fault family.

#![forbid(unsafe_code)]

pub mod config;
pub mod detector;
pub mod eval;
pub mod monitor;
pub mod report;

pub use config::WatchPolicy;
pub use detector::{Cusum, EwmaDrift, WatchTransition};
pub use eval::{AdmitObs, CycleObs, WatchEvaluator};
pub use monitor::{check_delivery, check_fractions, check_residual, check_shard_sum};
pub use report::{CodeStats, DetectorEvent, Violation, WatchReport};
