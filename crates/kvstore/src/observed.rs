//! Telemetry-wrapping store access.
//!
//! [`ObservedKv`] wraps any [`KvAccess`] implementation — the real
//! [`crate::ShardedStore`] or a fault-injecting chaos wrapper — and,
//! traced, writes each operation as a `kv` trace event timed by the
//! obs clock and labelled with its outcome. Because it composes over
//! the trait, the same telemetry sees healthy stores and degraded
//! ones: under a chaos fault plan the `outcome="error:…"` events (and
//! the `entitlement_kv_ops_total{outcome="error"}` series the metrics
//! fold reads off them) tell the fail-static story from the store's
//! side. Untraced, an operation goes straight to the wrapped store.

use crate::access::{KvAccess, KvError};
use entitlement_obs::{key, Obs};

/// A [`KvAccess`] decorator tracing each operation.
pub struct ObservedKv<K> {
    inner: K,
    obs: Obs,
}

impl<K> ObservedKv<K> {
    /// Wrap `inner`, tracing into `obs`.
    pub fn new(inner: K, obs: &Obs) -> Self {
        ObservedKv {
            inner,
            obs: obs.clone(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &K {
        &self.inner
    }

    /// `op` on the wrapped store; traced, as a `kv`/`phase` event
    /// between two clock reads.
    fn observe<T>(
        &self,
        phase: &str,
        op: impl FnOnce(&K) -> Result<T, KvError>,
    ) -> Result<T, KvError> {
        if !self.obs.enabled() {
            return op(&self.inner);
        }
        let start_ms = self.obs.clock.now_ms();
        let result = op(&self.inner);
        let dur_ms = self.obs.clock.now_ms().saturating_sub(start_ms) as f64;
        // child: the sink allocates span ids and parents the op under
        // the currently open span (the agent's cycle), so KV ops land
        // in the causal tree, not as orphan roots.
        let mut event = self.obs.trace.child(start_ms, dur_ms, "kv", phase);
        match &result {
            Ok(_) => event.add_label(key!("outcome"), "ok"),
            Err(e) => event.add_label_fmt(key!("outcome"), format_args!("error:{e:?}")),
        }
        result
    }
}

impl<K: KvAccess> KvAccess for ObservedKv<K> {
    fn try_put(&self, key: &str, value: f64, now_ms: u64) -> Result<(), KvError> {
        self.observe("put", |kv| kv.try_put(key, value, now_ms))
    }

    fn try_aggregate(&self, prefix: &str, now_ms: u64) -> Result<f64, KvError> {
        self.observe("aggregate", |kv| kv.try_aggregate(prefix, now_ms))
    }

    // Shard-addressed ops have trace phases of their own; the metrics
    // fold counts them under the `put`/`aggregate` op labels, so
    // per-shard publishes and fan-out reads show up in the same
    // dashboards as their flat counterparts.

    fn try_put_shard(
        &self,
        shard: usize,
        key: &str,
        value: f64,
        now_ms: u64,
    ) -> Result<(), KvError> {
        self.observe("put_shard", |kv| {
            kv.try_put_shard(shard, key, value, now_ms)
        })
    }

    fn try_put_shard_batch(
        &self,
        shard: usize,
        entries: &[(String, f64)],
        now_ms: u64,
    ) -> Result<(), KvError> {
        self.observe("put_shard_batch", |kv| {
            kv.try_put_shard_batch(shard, entries, now_ms)
        })
    }

    fn try_shard_aggregate(
        &self,
        prefix: &str,
        shard: usize,
        now_ms: u64,
    ) -> Result<f64, KvError> {
        self.observe("shard_aggregate", |kv| {
            kv.try_shard_aggregate(prefix, shard, now_ms)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ShardedStore, StoreConfig};
    use entitlement_obs::{fold_metrics, Clock};

    fn metrics(obs: &Obs) -> String {
        fold_metrics(&obs.trace.events()).expect("the decorator's events fold")
    }

    fn flaky_error_store() -> impl KvAccess {
        struct Down;
        impl KvAccess for Down {
            fn try_put(&self, _: &str, _: f64, _: u64) -> Result<(), KvError> {
                Err(KvError::ShardUnavailable)
            }
            fn try_aggregate(&self, _: &str, _: u64) -> Result<f64, KvError> {
                Err(KvError::ShardUnavailable)
            }
            fn try_put_shard(&self, _: usize, _: &str, _: f64, _: u64) -> Result<(), KvError> {
                Err(KvError::ShardUnavailable)
            }
            fn try_shard_aggregate(&self, _: &str, _: usize, _: u64) -> Result<f64, KvError> {
                Err(KvError::ShardUnavailable)
            }
        }
        Down
    }

    #[test]
    fn records_ok_ops_and_latency() {
        let obs = Obs::new(Clock::counting(2));
        let store = ObservedKv::new(ShardedStore::new(StoreConfig::default()), &obs);
        store.try_put("rates/x/h0", 5.0, 0).unwrap();
        assert_eq!(store.try_aggregate("rates/", 0).unwrap(), 5.0);
        let text = metrics(&obs);
        assert!(text.contains("entitlement_kv_ops_total{op=\"put\",outcome=\"ok\"} 1"));
        assert!(text.contains("entitlement_kv_ops_total{op=\"aggregate\",outcome=\"ok\"} 1"));
        // The counting clock gives every op a 2 ms duration.
        assert!(text.contains("entitlement_kv_op_ms_count{op=\"put\"} 1"));
        let events = obs.trace.events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.span == "kv" && e.dur_ms == 2.0));
    }

    #[test]
    fn records_errors_with_kind() {
        let obs = Obs::new(Clock::manual(10));
        let store = ObservedKv::new(flaky_error_store(), &obs);
        assert!(store.try_put("k", 1.0, 10).is_err());
        assert!(store.try_aggregate("k", 10).is_err());
        assert!(store.try_shard_aggregate("k", 0, 10).is_err());
        let text = metrics(&obs);
        assert!(text.contains("entitlement_kv_ops_total{op=\"put\",outcome=\"error\"} 1"));
        assert!(text.contains("entitlement_kv_ops_total{op=\"aggregate\",outcome=\"error\"} 2"));
        let events = obs.trace.events();
        assert!(events
            .iter()
            .any(|e| e.labels.iter().any(|(_, v)| v == "error:ShardUnavailable")));
    }

    #[test]
    fn shard_ops_record_under_flat_metric_families() {
        let obs = Obs::new(Clock::counting(1));
        let store = ObservedKv::new(ShardedStore::new(StoreConfig::default()), &obs);
        store.try_put_shard(2, "rates/x/total/s2", 8.0, 0).unwrap();
        store
            .try_put_shard_batch(3, &[("rates/x/total/s3".to_string(), 4.0)], 0)
            .unwrap();
        assert_eq!(store.try_shard_aggregate("rates/x/total/", 2, 0), Ok(8.0));
        assert_eq!(store.try_shard_aggregate("rates/x/total/", 3, 0), Ok(4.0));
        let text = metrics(&obs);
        assert!(text.contains("entitlement_kv_ops_total{op=\"put\",outcome=\"ok\"} 2"));
        assert!(text.contains("entitlement_kv_ops_total{op=\"aggregate\",outcome=\"ok\"} 2"));
        let events = obs.trace.events();
        assert!(events.iter().any(|e| e.phase == "put_shard"));
        assert!(events.iter().any(|e| e.phase == "put_shard_batch"));
        assert!(events.iter().any(|e| e.phase == "shard_aggregate"));
    }

    #[test]
    fn an_untraced_op_reads_no_clock_and_emits_nothing() {
        let obs = Obs {
            trace: entitlement_obs::TraceSink::disabled(),
            ..Obs::new(Clock::counting(1))
        };
        let store = ObservedKv::new(ShardedStore::new(StoreConfig::default()), &obs);
        store.try_put("k", 1.0, 0).unwrap();
        assert_eq!(store.try_aggregate("k", 0), Ok(1.0));
        assert!(obs.trace.is_empty());
        assert_eq!(obs.clock.now_ms(), 0, "the first read is ours");
    }
}
