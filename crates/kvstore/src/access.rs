//! Fallible access to the rate store.
//!
//! The paper's runtime (§5.3) prescribes *fail-static* degradation:
//! when the telemetry plane is unhealthy, agents must keep enforcing
//! the last known decision rather than treating silence as "no
//! traffic". That only works if the type system distinguishes the two:
//! a zero aggregate is **data** (`Ok(0.0)` — e.g. a drained service),
//! while an unreachable store is **absence of data** (`Err(KvError)`).
//!
//! [`KvAccess`] is the synchronous capability trait every store-like
//! layer implements: the real [`ShardedStore`] (infallible, always
//! `Ok`) and fault-injecting wrappers such as `entitlement-chaos`'s
//! `ChaosStore`. Enforcement agents are written against the trait, so
//! the same agent code runs against a healthy store in production
//! paths and a degraded one under chaos tests.

use crate::store::ShardedStore;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a KV operation could not be served. Distinct from `Ok(0.0)`:
/// a zero sum is data, unavailability is absence of data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvError {
    /// The shard holding the key — or at least one shard spanned by an
    /// aggregate — is unreachable.
    ShardUnavailable,
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::ShardUnavailable => write!(f, "kv shard unavailable"),
        }
    }
}

impl std::error::Error for KvError {}

/// Synchronous, possibly-degraded access to a rate store.
///
/// Two families of operations. The flat ones route a key to its shard
/// by hash and aggregate across every shard. The shard-addressed ones
/// are what the hierarchical aggregation tree runs on: fleet shard `s`
/// publishes its two partial keys directly into storage shard `s` and
/// reads them back from there, so a `ShardOutage` on storage shard `s`
/// darkens exactly fleet shard `s` and nothing else.
pub trait KvAccess {
    /// Write a value at logical time `now_ms`.
    fn try_put(&self, key: &str, value: f64, now_ms: u64) -> Result<(), KvError>;

    /// Sum of live values under `prefix`.
    fn try_aggregate(&self, prefix: &str, now_ms: u64) -> Result<f64, KvError>;

    /// Write `key` directly into shard `shard` (bypassing the key
    /// hash). Keys placed this way are visible to prefix aggregation
    /// like any other.
    fn try_put_shard(&self, shard: usize, key: &str, value: f64, now_ms: u64)
        -> Result<(), KvError>;

    /// Write a batch of keys into one shard. The default loops over
    /// [`try_put_shard`](Self::try_put_shard); stores that can take a
    /// single lock per batch override it.
    fn try_put_shard_batch(
        &self,
        shard: usize,
        entries: &[(String, f64)],
        now_ms: u64,
    ) -> Result<(), KvError> {
        for (key, value) in entries {
            self.try_put_shard(shard, key, *value, now_ms)?;
        }
        Ok(())
    }

    /// Sum of live values under `prefix` within one shard only. An
    /// `Err` means *this shard* is unreachable — other shards may
    /// still be served, which is what lets a dark shard degrade only
    /// its own hosts.
    fn try_shard_aggregate(&self, prefix: &str, shard: usize, now_ms: u64)
        -> Result<f64, KvError>;
}

impl KvAccess for ShardedStore {
    fn try_put(&self, key: &str, value: f64, now_ms: u64) -> Result<(), KvError> {
        self.put(key, value, now_ms);
        Ok(())
    }

    fn try_aggregate(&self, prefix: &str, now_ms: u64) -> Result<f64, KvError> {
        Ok(self.aggregate_sum(prefix, now_ms))
    }

    fn try_put_shard(
        &self,
        shard: usize,
        key: &str,
        value: f64,
        now_ms: u64,
    ) -> Result<(), KvError> {
        self.put_in_shard(shard, key, value, now_ms);
        Ok(())
    }

    fn try_put_shard_batch(
        &self,
        shard: usize,
        entries: &[(String, f64)],
        now_ms: u64,
    ) -> Result<(), KvError> {
        self.put_shard_batch(shard, entries, now_ms);
        Ok(())
    }

    fn try_shard_aggregate(
        &self,
        prefix: &str,
        shard: usize,
        now_ms: u64,
    ) -> Result<f64, KvError> {
        Ok(self.aggregate_sum_shard(prefix, shard, now_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use std::time::Duration;

    #[test]
    fn sharded_store_is_infallible() {
        let s = ShardedStore::new(StoreConfig {
            shards: 4,
            ttl: Duration::from_secs(10),
        });
        assert_eq!(s.try_put("k", 1.0, 0), Ok(()));
        assert_eq!(s.try_aggregate("k", 0), Ok(1.0));
        assert_eq!(s.try_aggregate("absent", 0), Ok(0.0), "absence is data");
    }

    #[test]
    fn kv_error_renders() {
        assert_eq!(KvError::ShardUnavailable.to_string(), "kv shard unavailable");
    }
}
