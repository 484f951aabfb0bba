//! The fault-injecting wrapper over the KV store.
//!
//! [`ChaosStore`] wraps the synchronous [`ShardedStore`] behind the
//! [`KvAccess`] trait, so anything written against the trait (the
//! enforcement agent, the §6 drill, the sharded fleet engine) can be
//! run against a degraded store without code changes. It keeps no
//! counters of its own: every injected failure is an `Err` the caller
//! sees, and the `ObservedKv` decorator above it counts those per
//! operation (`entitlement_kv_ops_total{outcome="error"}`).

use crate::plan::{FaultKind, FaultPlan};
use entitlement_kvstore::{KvAccess, KvError, ShardedStore};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A [`ShardedStore`] with a [`FaultPlan`] between it and the caller.
pub struct ChaosStore {
    inner: Arc<ShardedStore>,
    plan: Arc<FaultPlan>,
    /// Last healthy read per prefix (and shard), served during StaleReads
    /// windows (a wedged replica replays its last snapshot). `None`
    /// when the plan has no `StaleReads` fault: then nothing reads a
    /// snapshot, so no read takes one.
    frozen: Option<Mutex<HashMap<String, f64>>>,
}

impl ChaosStore {
    /// Wrap a store with a fault plan.
    pub fn new(inner: Arc<ShardedStore>, plan: Arc<FaultPlan>) -> Self {
        let stale = plan.faults.iter().any(|f| matches!(f.kind, FaultKind::StaleReads));
        ChaosStore {
            inner,
            plan,
            frozen: stale.then(|| Mutex::new(HashMap::new())),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &ShardedStore {
        &self.inner
    }

    /// The plan driving the injections.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Serve from the frozen snapshot if a StaleReads window is
    /// active; otherwise compute fresh and refresh the snapshot. The
    /// key is built only when the plan keeps snapshots.
    fn read_through_freeze(
        &self,
        cache_key: impl FnOnce() -> String,
        now_ms: u64,
        fresh: impl FnOnce(u64) -> f64,
    ) -> f64 {
        let Some(frozen) = &self.frozen else {
            return fresh(self.plan.skewed_now(now_ms));
        };
        let cache_key = cache_key();
        if self.plan.reads_frozen_at(now_ms).is_some() {
            if let Some(&v) = frozen.lock().get(&cache_key) {
                return v;
            }
        }
        let v = fresh(self.plan.skewed_now(now_ms));
        frozen.lock().insert(cache_key, v);
        v
    }
}

impl KvAccess for ChaosStore {
    fn try_put(&self, key: &str, value: f64, now_ms: u64) -> Result<(), KvError> {
        if self.plan.shard_down(self.inner.shard_index(key), now_ms) {
            return Err(KvError::ShardUnavailable);
        }
        if self
            .plan
            .drop_publish(entitlement_kvstore::key_hash(key), now_ms)
        {
            // Lost in transit: the writer sees success.
            return Ok(());
        }
        // Stamped with the writer's clock; liveness is judged on the
        // store's skewed one.
        self.inner.put(key, value, now_ms);
        Ok(())
    }

    fn try_aggregate(&self, prefix: &str, now_ms: u64) -> Result<f64, KvError> {
        // One down shard poisons every prefix sum: report unavailable
        // rather than a silent under-count.
        if self.plan.any_shard_down(now_ms) {
            return Err(KvError::ShardUnavailable);
        }
        Ok(self.read_through_freeze(|| prefix.to_string(), now_ms, |now| {
            self.inner.aggregate_sum(prefix, now)
        }))
    }

    // Shard-addressed access under the same fault plan: the aggregation
    // tree places fleet shard `s`'s partials on storage shard `s`, so a
    // `ShardOutage { shards: [s] }` darkens exactly fleet shard `s` —
    // *its* publishes and fold reads fail while every other shard keeps
    // serving. This is the per-shard fault targeting the flat
    // operations cannot express (their aggregates span all shards and
    // poison on any outage).

    fn try_put_shard(
        &self,
        shard: usize,
        key: &str,
        value: f64,
        now_ms: u64,
    ) -> Result<(), KvError> {
        if self.plan.shard_down(shard, now_ms) {
            return Err(KvError::ShardUnavailable);
        }
        if self
            .plan
            .drop_publish(entitlement_kvstore::key_hash(key), now_ms)
        {
            // Lost in transit: the writer sees success.
            return Ok(());
        }
        self.inner.put_in_shard(shard, key, value, now_ms);
        Ok(())
    }

    fn try_shard_aggregate(
        &self,
        prefix: &str,
        shard: usize,
        now_ms: u64,
    ) -> Result<f64, KvError> {
        if self.plan.shard_down(shard, now_ms) {
            return Err(KvError::ShardUnavailable);
        }
        // Freeze-cache per (prefix, shard): a wedged replica replays
        // its own shard's snapshot, not its neighbours'.
        let cache_key = || format!("{prefix}#s{shard}");
        Ok(self.read_through_freeze(cache_key, now_ms, |now| {
            self.inner.aggregate_sum_shard(prefix, shard, now)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Fault, FaultKind, TimeWindow};
    use entitlement_kvstore::StoreConfig;
    use std::time::Duration;

    fn store() -> Arc<ShardedStore> {
        Arc::new(ShardedStore::new(StoreConfig {
            shards: 8,
            ttl: Duration::from_secs(60),
        }))
    }

    fn plan(faults: Vec<Fault>) -> Arc<FaultPlan> {
        Arc::new(FaultPlan { seed: 7, faults })
    }

    #[test]
    fn outage_fails_reads_and_aggregates() {
        let chaos = ChaosStore::new(
            store(),
            plan(vec![Fault {
                window: TimeWindow::new(1000, 2000),
                kind: FaultKind::ShardOutage { shards: vec![] },
            }]),
        );
        chaos.try_put("rates/a/h0", 5.0, 0).unwrap();
        assert_eq!(chaos.try_aggregate("rates/", 500), Ok(5.0));
        // Inside the window everything is down.
        assert_eq!(
            chaos.try_aggregate("rates/", 1500),
            Err(KvError::ShardUnavailable)
        );
        for shard in 0..8 {
            assert_eq!(
                chaos.try_shard_aggregate("rates/", shard, 1500),
                Err(KvError::ShardUnavailable)
            );
        }
        assert_eq!(
            chaos.try_put("rates/a/h0", 6.0, 1500),
            Err(KvError::ShardUnavailable)
        );
        // After the window the store recovers with its data intact.
        assert_eq!(chaos.try_aggregate("rates/", 2500), Ok(5.0));
    }

    #[test]
    fn partial_outage_fails_only_affected_shards() {
        let inner = store();
        let key = "rates/a/h0";
        let victim = inner.shard_index(key);
        let other = (0..8).find(|&s| s != victim).unwrap();
        // Find a key on a different shard.
        let other_key = (0..1000)
            .map(|i| format!("rates/a/h{i}"))
            .find(|k| inner.shard_index(k) == other)
            .expect("some key lands elsewhere");
        let chaos = ChaosStore::new(
            inner,
            plan(vec![Fault {
                window: TimeWindow::new(100, 200),
                kind: FaultKind::ShardOutage {
                    shards: vec![victim],
                },
            }]),
        );
        chaos.try_put(key, 1.0, 0).unwrap();
        chaos.try_put(&other_key, 2.0, 0).unwrap();
        assert_eq!(
            chaos.try_shard_aggregate("rates/", victim, 150),
            Err(KvError::ShardUnavailable)
        );
        assert_eq!(chaos.try_put(key, 3.0, 150), Err(KvError::ShardUnavailable));
        assert_eq!(
            chaos.try_shard_aggregate("rates/", other, 150),
            Ok(2.0),
            "other shard fine"
        );
        assert_eq!(chaos.try_put(&other_key, 4.0, 150), Ok(()));
        // But flat aggregates span the down shard: unavailable.
        assert_eq!(
            chaos.try_aggregate("rates/", 150),
            Err(KvError::ShardUnavailable)
        );
    }

    #[test]
    fn dropped_publishes_never_land() {
        let chaos = ChaosStore::new(
            store(),
            plan(vec![Fault {
                window: TimeWindow::new(0, 1000),
                kind: FaultKind::DropPublishes { fraction: 1.0 },
            }]),
        );
        assert_eq!(chaos.try_put("k", 1.0, 10), Ok(()), "writer sees success");
        assert_eq!(chaos.try_aggregate("k", 10), Ok(0.0), "value never landed");
        // Outside the window publishes land again.
        chaos.try_put("k", 2.0, 1500).unwrap();
        assert_eq!(chaos.try_aggregate("k", 1500), Ok(2.0));
    }

    #[test]
    fn stale_reads_serve_the_frozen_snapshot() {
        let chaos = ChaosStore::new(
            store(),
            plan(vec![Fault {
                window: TimeWindow::new(1000, 2000),
                kind: FaultKind::StaleReads,
            }]),
        );
        chaos.try_put("rates/a/h0", 5.0, 0).unwrap();
        let shard = chaos.inner().shard_index("rates/a/h0");
        // Healthy reads prime the snapshot (per prefix, and per prefix
        // and shard).
        assert_eq!(chaos.try_aggregate("rates/", 500), Ok(5.0));
        assert_eq!(chaos.try_shard_aggregate("rates/", shard, 600), Ok(5.0));
        // The value changes, but frozen reads keep seeing 5.0.
        chaos.try_put("rates/a/h0", 50.0, 1100).unwrap();
        assert_eq!(chaos.try_aggregate("rates/", 1200), Ok(5.0), "frozen");
        assert_eq!(chaos.try_shard_aggregate("rates/", shard, 1200), Ok(5.0), "frozen");
        // Window over: fresh values visible again.
        assert_eq!(chaos.try_aggregate("rates/", 2500), Ok(50.0));
        assert_eq!(chaos.try_shard_aggregate("rates/", shard, 2500), Ok(50.0));
    }

    /// Only a plan with a `StaleReads` fault keeps snapshots; under any
    /// other plan every read is fresh and none is remembered.
    #[test]
    fn only_a_stale_reads_plan_keeps_snapshots() {
        let window = TimeWindow::new(1000, 2000);
        let outage = Fault {
            window,
            kind: FaultKind::ShardOutage { shards: vec![5] },
        };
        let healthy = ChaosStore::new(store(), plan(vec![outage.clone()]));
        healthy.try_put_shard(0, "rates/x/total/s0", 5.0, 0).unwrap();
        assert_eq!(healthy.try_shard_aggregate("rates/x/total/", 0, 500), Ok(5.0));
        assert_eq!(healthy.try_aggregate("rates/", 500), Ok(5.0));
        assert!(healthy.frozen.is_none());
        let stale = Fault {
            window,
            kind: FaultKind::StaleReads,
        };
        let frozen = ChaosStore::new(store(), plan(vec![outage, stale]));
        frozen.try_put_shard(0, "rates/x/total/s0", 5.0, 0).unwrap();
        assert_eq!(frozen.try_shard_aggregate("rates/x/total/", 0, 500), Ok(5.0));
        let keys = frozen.frozen.as_ref().map(|f| f.lock().len());
        assert_eq!(keys, Some(1), "one snapshot per (prefix, shard)");
    }

    #[test]
    fn clock_skew_ages_out_entries_early() {
        let inner = Arc::new(ShardedStore::new(StoreConfig {
            shards: 4,
            ttl: Duration::from_millis(1000),
        }));
        let chaos = ChaosStore::new(
            inner,
            plan(vec![Fault {
                window: TimeWindow::new(500, 2000),
                kind: FaultKind::ClockSkew { skew_ms: 900 },
            }]),
        );
        chaos.try_put("k", 1.0, 0).unwrap();
        assert_eq!(chaos.try_aggregate("k", 400), Ok(1.0), "live at 400");
        // At t=600 the skewed clock reads 1500 — past the 1s TTL.
        assert_eq!(chaos.try_aggregate("k", 600), Ok(0.0), "skew expired it");
        // A write inside the window carries the writer's clock, so the
        // skewed store ages it out early too: a writer that publishes
        // every cycle does not mask the skew.
        chaos.try_put("k", 2.0, 700).unwrap();
        assert_eq!(chaos.try_aggregate("k", 700), Ok(2.0), "900 ms old on the store's clock");
        assert_eq!(chaos.try_aggregate("k", 900), Ok(0.0), "1100 ms old on the store's clock");
    }

    #[test]
    fn shard_scoped_outage_darkens_only_that_shards_partials() {
        let chaos = ChaosStore::new(
            store(),
            plan(vec![Fault {
                window: TimeWindow::new(1000, 2000),
                kind: FaultKind::ShardOutage { shards: vec![3] },
            }]),
        );
        // Each fleet shard's partial lives on its own storage shard.
        for s in 0..8usize {
            chaos
                .try_put_shard(s, &format!("rates/x/total/s{s}"), s as f64 + 1.0, 0)
                .unwrap();
        }
        // During the outage: shard 3 fails, every other shard serves.
        for s in (0..8usize).filter(|&s| s != 3) {
            assert_eq!(
                chaos.try_shard_aggregate("rates/x/total/", s, 1500),
                Ok(s as f64 + 1.0),
                "healthy shard {s} must keep serving"
            );
        }
        assert_eq!(
            chaos.try_shard_aggregate("rates/x/total/", 3, 1500),
            Err(KvError::ShardUnavailable)
        );
        assert_eq!(
            chaos.try_put_shard(3, "rates/x/total/s3", 9.0, 1500),
            Err(KvError::ShardUnavailable)
        );
        // After recovery the dark shard serves again (data intact).
        assert_eq!(chaos.try_shard_aggregate("rates/x/total/", 3, 2500), Ok(4.0));
    }
}
