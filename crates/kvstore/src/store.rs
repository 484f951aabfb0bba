//! The synchronous sharded store core.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Duration;

/// Store configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Number of shards (power of two recommended).
    pub shards: usize,
    /// Entry time-to-live; stale entries drop out of aggregates (a dead
    /// agent's rate must stop counting against the service).
    pub ttl: Duration,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 16,
            ttl: Duration::from_secs(60),
        }
    }
}

#[derive(Clone, Debug)]
struct Entry {
    value: f64,
    /// Logical write timestamp in milliseconds (caller-supplied clock so
    /// simulations stay deterministic).
    written_ms: u64,
}

/// A sharded, TTL'd, numeric key-value store with prefix aggregation.
pub struct ShardedStore {
    config: StoreConfig,
    shards: Vec<Mutex<HashMap<String, Entry>>>,
}

/// FNV-1a 64-bit: stable across runs, good enough for shard spreading.
/// Public so fault-injection layers can reproduce the key→shard map.
pub fn key_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Write `key` in place if the shard has it, so that a re-publish
/// allocates nothing; only a new key is copied into the map. An
/// overwrite keeps the entry's slot, and so the shard's iteration order.
fn upsert(shard: &mut HashMap<String, Entry>, key: &str, value: f64, now_ms: u64) {
    let entry = Entry {
        value,
        written_ms: now_ms,
    };
    match shard.get_mut(key) {
        Some(old) => *old = entry,
        None => {
            shard.insert(key.to_owned(), entry);
        }
    }
}

impl ShardedStore {
    /// Create a store.
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.shards > 0);
        let shards = (0..config.shards)
            .map(|_| Mutex::new(HashMap::new()))
            .collect();
        ShardedStore { config, shards }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, Entry>> {
        &self.shards[self.shard_index(key)]
    }

    /// The shard a key lives on (fault plans target shards by index).
    pub fn shard_index(&self, key: &str) -> usize {
        (key_hash(key) % self.shards.len() as u64) as usize
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Write a value at logical time `now_ms`.
    pub fn put(&self, key: &str, value: f64, now_ms: u64) {
        upsert(&mut self.shard(key).lock(), key, value, now_ms);
    }

    fn is_live(&self, e: &Entry, now_ms: u64) -> bool {
        now_ms.saturating_sub(e.written_ms) as u128 <= self.config.ttl.as_millis()
    }

    /// Write a value directly into shard `shard`, bypassing the key
    /// hash (panics if `shard` is out of range).
    ///
    /// The aggregation tree places fleet shard `s`'s partial keys on
    /// storage shard `s` so shard-scoped faults map one-to-one onto
    /// fleet shards. Keys written this way are read back through
    /// [`aggregate_sum`](Self::aggregate_sum) /
    /// [`aggregate_sum_shard`](Self::aggregate_sum_shard).
    pub fn put_in_shard(&self, shard: usize, key: &str, value: f64, now_ms: u64) {
        upsert(&mut self.shards[shard].lock(), key, value, now_ms);
    }

    /// Write a batch of keys into one shard under a single lock
    /// acquisition — the fleet publish path folds 10⁶ hosts into
    /// 2×shards keys per cycle, and batching keeps that to one lock
    /// per shard instead of one per key.
    pub fn put_shard_batch(&self, shard: usize, entries: &[(String, f64)], now_ms: u64) {
        let mut guard = self.shards[shard].lock();
        for (key, value) in entries {
            upsert(&mut guard, key, *value, now_ms);
        }
    }

    /// Sum of live values under `prefix` within one shard only.
    ///
    /// Entries iterate in `HashMap` order, so callers that need
    /// bit-identical sums must ensure at most one distinct value per
    /// `(prefix, shard)` — the aggregation tree does (one partial key
    /// per fleet shard), and the per-host flat path sums equal-valued
    /// keys where order cannot change the result.
    pub fn aggregate_sum_shard(&self, prefix: &str, shard: usize, now_ms: u64) -> f64 {
        let mut sum = 0.0;
        let guard = self.shards[shard].lock();
        for (k, e) in guard.iter() {
            if k.starts_with(prefix) && self.is_live(e, now_ms) {
                sum += e.value;
            }
        }
        sum
    }

    /// Sum of all live values whose key starts with `prefix` — the
    /// service-wide rate aggregation agents read back.
    pub fn aggregate_sum(&self, prefix: &str, now_ms: u64) -> f64 {
        let mut sum = 0.0;
        for shard in &self.shards {
            let guard = shard.lock();
            for (k, e) in guard.iter() {
                if k.starts_with(prefix) && self.is_live(e, now_ms) {
                    sum += e.value;
                }
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ShardedStore {
        ShardedStore::new(StoreConfig {
            shards: 8,
            ttl: Duration::from_secs(10),
        })
    }

    #[test]
    fn key_hash_is_fnv1a_64() {
        // Known FNV-1a 64-bit vectors (offset basis 0xcbf29ce484222325,
        // prime 0x100000001b3).
        assert_eq!(key_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(key_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(key_hash("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shard_distribution_is_even() {
        // Sequentially-named keys (the agent key shape) must spread
        // across shards instead of clustering; with the broken FNV
        // multiplier the low bits degenerated badly.
        let shards = 16usize;
        let s = ShardedStore::new(StoreConfig {
            shards,
            ttl: Duration::from_secs(10),
        });
        let n = 4000usize;
        let mut counts = vec![0usize; shards];
        for h in 0..n {
            counts[s.shard_index(&format!("rates/7/c2/total/h{h}"))] += 1;
        }
        let expected = n / shards;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "shard {i} has {c} keys (expected ~{expected}): {counts:?}"
            );
        }
    }

    #[test]
    fn put_overwrites_in_place() {
        let s = store();
        s.put("rates/cold/h1", 100.0, 0);
        assert_eq!(s.aggregate_sum("rates/cold/h1", 1000), 100.0);
        assert_eq!(s.aggregate_sum("rates/cold/h2", 1000), 0.0);
        // Overwrite: the key holds one value, not two.
        s.put("rates/cold/h1", 150.0, 2000);
        assert_eq!(s.aggregate_sum("rates/cold/h1", 2000), 150.0);
    }

    #[test]
    fn ttl_boundary_is_inclusive() {
        let s = store();
        s.put("k", 1.0, 0);
        assert_eq!(s.aggregate_sum("k", 10_000), 1.0, "at the TTL still live");
        assert_eq!(s.aggregate_sum("k", 10_001), 0.0, "past TTL dead");
    }

    #[test]
    fn aggregate_sums_prefix_only() {
        let s = store();
        for h in 0..50 {
            s.put(&format!("rates/cold/h{h}"), 2.0, 0);
        }
        s.put("rates/warm/h0", 100.0, 0);
        assert_eq!(s.aggregate_sum("rates/cold/", 100), 100.0);
        assert_eq!(s.aggregate_sum("rates/", 100), 200.0);
    }

    #[test]
    fn dead_agents_fall_out_of_aggregate() {
        let s = store();
        s.put("rates/cold/h1", 10.0, 0);
        s.put("rates/cold/h2", 20.0, 9_000);
        // At t=15s, h1 (written at 0, ttl 10s) is stale; h2 is live.
        assert_eq!(s.aggregate_sum("rates/cold/", 15_000), 20.0);
    }

    #[test]
    fn shard_placed_partials_aggregate_globally() {
        let s = store();
        // One partial per shard, placed by explicit index.
        for sh in 0..s.shard_count() {
            s.put_in_shard(sh, &format!("rates/cold/total/s{sh}"), (sh + 1) as f64, 0);
        }
        // Per-shard sums see exactly their own partial...
        for sh in 0..s.shard_count() {
            assert_eq!(
                s.aggregate_sum_shard("rates/cold/total/", sh, 100),
                (sh + 1) as f64
            );
        }
        // ...and the flat global aggregate still sees the full fold.
        assert_eq!(s.aggregate_sum("rates/cold/total/", 100), 36.0);
    }

    #[test]
    fn shard_batch_put_lands_in_one_shard() {
        let s = store();
        let entries = vec![
            ("rates/a/s3".to_string(), 1.5),
            ("rates/b/s3".to_string(), 2.5),
        ];
        s.put_shard_batch(3, &entries, 0);
        assert_eq!(s.aggregate_sum_shard("rates/", 3, 10), 4.0);
        for sh in (0..s.shard_count()).filter(|&sh| sh != 3) {
            assert_eq!(s.aggregate_sum_shard("rates/", sh, 10), 0.0);
        }
        // Overwrite within the batch path.
        s.put_shard_batch(3, &[("rates/a/s3".to_string(), 9.0)], 20);
        assert_eq!(s.aggregate_sum_shard("rates/a/", 3, 20), 9.0);
    }

    #[test]
    fn shard_aggregate_respects_ttl() {
        let s = store();
        s.put_in_shard(0, "rates/x/s0", 5.0, 0);
        assert_eq!(s.aggregate_sum_shard("rates/x/", 0, 10_000), 5.0);
        assert_eq!(s.aggregate_sum_shard("rates/x/", 0, 10_001), 0.0);
    }

    #[test]
    fn concurrent_writers() {
        use std::sync::Arc;
        let s = Arc::new(store());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    s.put(&format!("rates/svc/h{t}_{i}"), 1.0, 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.aggregate_sum("rates/svc/", 100), 8000.0);
    }
}
