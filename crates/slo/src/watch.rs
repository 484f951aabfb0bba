//! Runtime watchdog: streaming invariant monitors and anomaly
//! detection over live SLI streams, as a deterministic fold:
//!
//! * **Invariant monitors** (`W0101`–`W0104`) — delivered ≤
//!   min(demand, approved) × (1 + ε); the sharded aggregation total
//!   bit-reconciles with its per-shard re-sum; residual-index
//!   decrements are exact and never go negative; the marked/conforming
//!   fractions are valid shares. Each violation is a typed
//!   `watch`/`violation` trace event carrying the offending (entity,
//!   QoS, shard, cycle) and its stable [`Code`](entitlement_core::Code).
//! * **Anomaly detectors** (`W0105`–`W0107`) — CUSUM changepoint over
//!   the staleness and admit-latency series, EWMA drift over SLO
//!   attainment, all behind the burn-alert hysteresis machine so
//!   monotone healthy series provably never flap; a transition is a
//!   `watch`/`fire` or `watch`/`clear` event.
//!
//! Three channels feed [`WatchEvaluator`]:
//! [`observe_cycle`](WatchEvaluator::observe_cycle) takes the metered
//! tick the SLO evaluator folds too (W0101, W0104–W0106), on the wire
//! once as the `slo`/`cycle` event
//! [`SloEvaluator::observe_cycle`](crate::SloEvaluator::observe_cycle)
//! writes; [`observe_shards`](WatchEvaluator::observe_shards) takes a
//! sharded fold (W0102), written as `watch`/`shards`; and
//! [`observe_admit`](WatchEvaluator::observe_admit) a market admission
//! (W0103, W0107), on the wire as its `market`/`admit` span, in bps;
//! the latency is `dur_ms`, clock reads under a counting clock, so a
//! traced sweep is slower than an untraced one. Those events carry the
//! inputs, never the verdicts, so [`WatchEvaluator::fold_trace`]
//! recomputes every finding and rebuilds a byte-identical
//! [`WatchReport`] from the saved trace alone (`entitlectl watch`).

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
