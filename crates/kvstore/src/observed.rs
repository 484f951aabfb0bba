//! Telemetry-wrapping store access.
//!
//! [`ObservedKv`] wraps any [`KvAccess`] implementation — the real
//! [`crate::ShardedStore`] or a fault-injecting chaos wrapper — and
//! records per-operation latency histograms, outcome counters, and
//! trace spans into an [`Obs`] bundle. Because it composes over the
//! trait, the same telemetry sees healthy stores and degraded
//! ones: under a chaos fault plan the `outcome="error"` counters and
//! the latency histograms tell the fail-static story from the store's
//! side.

use crate::access::{KvAccess, KvError};
use entitlement_obs::{Counter, Histogram, Obs};

/// Cached metric handles for one operation kind.
struct OpMetrics {
    latency_ms: Histogram,
    ok: Counter,
    err: Counter,
}

/// A [`KvAccess`] decorator recording latency, outcomes, and spans.
pub struct ObservedKv<K> {
    inner: K,
    obs: Obs,
    put: OpMetrics,
    aggregate: OpMetrics,
}

impl<K> ObservedKv<K> {
    /// Wrap `inner`, registering the KV metric families in
    /// `obs.registry` (handles are cached, so the per-op cost is a few
    /// atomic updates).
    pub fn new(inner: K, obs: &Obs) -> Self {
        let op_metrics = |op: &str| OpMetrics {
            latency_ms: obs.registry.histogram(
                "entitlement_kv_op_ms",
                "KV operation latency in milliseconds (from the injected clock)",
                &[("op", op)],
            ),
            ok: obs.registry.counter(
                "entitlement_kv_ops_total",
                "KV operations by kind and outcome",
                &[("op", op), ("outcome", "ok")],
            ),
            err: obs.registry.counter(
                "entitlement_kv_ops_total",
                "KV operations by kind and outcome",
                &[("op", op), ("outcome", "error")],
            ),
        };
        ObservedKv {
            inner,
            obs: obs.clone(),
            put: op_metrics("put"),
            aggregate: op_metrics("aggregate"),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &K {
        &self.inner
    }

    fn observe<T>(
        &self,
        metrics: &OpMetrics,
        phase: &str,
        result: Result<T, KvError>,
        start_ms: u64,
    ) -> Result<T, KvError> {
        let end_ms = self.obs.clock.now_ms();
        metrics.latency_ms.record(end_ms.saturating_sub(start_ms) as f64);
        match &result {
            Ok(_) => metrics.ok.inc(),
            Err(_) => metrics.err.inc(),
        }
        if self.obs.enabled() {
            // child: the sink allocates span ids and parents the op
            // under the currently open span (the agent's cycle), so
            // KV ops land in the causal tree, not as orphan roots.
            let dur_ms = end_ms.saturating_sub(start_ms) as f64;
            let mut event = self.obs.trace.child(start_ms, dur_ms, "kv", phase);
            match &result {
                Ok(_) => event.add_label("outcome", "ok"),
                Err(e) => event.add_label_fmt("outcome", format_args!("error:{e:?}")),
            }
        }
        result
    }
}

impl<K: KvAccess> KvAccess for ObservedKv<K> {
    fn try_put(&self, key: &str, value: f64, now_ms: u64) -> Result<(), KvError> {
        let start = self.obs.clock.now_ms();
        let r = self.inner.try_put(key, value, now_ms);
        self.observe(&self.put, "put", r, start)
    }

    fn try_aggregate(&self, prefix: &str, now_ms: u64) -> Result<f64, KvError> {
        let start = self.obs.clock.now_ms();
        let r = self.inner.try_aggregate(prefix, now_ms);
        self.observe(&self.aggregate, "aggregate", r, start)
    }

    // Shard-addressed ops reuse the `put`/`aggregate` metric families
    // (same op labels) with distinct trace phases, so per-shard
    // publishes and fan-out reads show up in the same dashboards as
    // their flat counterparts.

    fn try_put_shard(
        &self,
        shard: usize,
        key: &str,
        value: f64,
        now_ms: u64,
    ) -> Result<(), KvError> {
        let start = self.obs.clock.now_ms();
        let r = self.inner.try_put_shard(shard, key, value, now_ms);
        self.observe(&self.put, "put_shard", r, start)
    }

    fn try_put_shard_batch(
        &self,
        shard: usize,
        entries: &[(String, f64)],
        now_ms: u64,
    ) -> Result<(), KvError> {
        let start = self.obs.clock.now_ms();
        let r = self.inner.try_put_shard_batch(shard, entries, now_ms);
        self.observe(&self.put, "put_shard_batch", r, start)
    }

    fn try_shard_aggregate(
        &self,
        prefix: &str,
        shard: usize,
        now_ms: u64,
    ) -> Result<f64, KvError> {
        let start = self.obs.clock.now_ms();
        let r = self.inner.try_shard_aggregate(prefix, shard, now_ms);
        self.observe(&self.aggregate, "shard_aggregate", r, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ShardedStore, StoreConfig};
    use entitlement_obs::Clock;

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
        let text = obs.registry.render();
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
        let text = obs.registry.render();
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
        let text = obs.registry.render();
        assert!(text.contains("entitlement_kv_ops_total{op=\"put\",outcome=\"ok\"} 2"));
        assert!(text.contains("entitlement_kv_ops_total{op=\"aggregate\",outcome=\"ok\"} 2"));
        let events = obs.trace.events();
        assert!(events.iter().any(|e| e.phase == "put_shard"));
        assert!(events.iter().any(|e| e.phase == "put_shard_batch"));
        assert!(events.iter().any(|e| e.phase == "shard_aggregate"));
    }

    #[test]
    fn disabled_obs_still_counts_but_emits_no_events() {
        let obs = Obs::disabled();
        let store = ObservedKv::new(ShardedStore::new(StoreConfig::default()), &obs);
        store.try_put("k", 1.0, 0).unwrap();
        assert!(obs.trace.is_empty());
        assert!(obs
            .registry
            .render()
            .contains("entitlement_kv_ops_total{op=\"put\",outcome=\"ok\"} 1"));
    }
}
