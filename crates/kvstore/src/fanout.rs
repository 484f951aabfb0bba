//! Per-shard aggregate fan-out with a staleness bound.
//!
//! The flat enforcement path had every agent poll the global aggregate
//! key each cycle — O(agents) reads per cycle, the hot-path bottleneck
//! at 10⁶ hosts. The aggregation tree inverts that: one driver reads
//! each shard's partial once per cycle (O(shards)), folds them in shard
//! index order (a fixed fold order keeps float sums bit-identical
//! across runs and strategies), and broadcasts the result to every
//! consumer.
//!
//! [`ShardFanout`] is that driver-side fold state. It remembers the
//! last good partial per shard so a dark shard degrades gracefully:
//! within the staleness bound the held partial is served (healthy
//! shards keep metering and nobody unthrottles on a partial fold);
//! beyond the bound the shard is *missing* and the fold refuses to
//! produce an aggregate — fail-static, exactly like the flat path's
//! `Err(KvError)`, because unthrottling on a partial sum is never safe.

use crate::access::{KvAccess, KvError};

#[derive(Clone, Copy, Debug)]
struct Held {
    value: f64,
    as_of_ms: u64,
}

/// How one shard's partial was served in a snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShardRead {
    /// Read live this cycle.
    Fresh(f64),
    /// The shard was unreachable; its last good partial is within the
    /// staleness bound and is served instead.
    Held(f64),
    /// The shard is unreachable and its last good partial (if any) is
    /// older than the staleness bound.
    Missing,
}

/// Driver-side fold state: last good partial per shard plus the read
/// count for the O(shards) regression gate.
#[derive(Debug)]
pub struct ShardFanout {
    max_staleness_ms: u64,
    partials: Vec<Option<Held>>,
    last_ok: Vec<bool>,
    reads: u64,
}

impl ShardFanout {
    /// Fan-out over `shards` shards, serving held partials up to
    /// `max_staleness_ms` old.
    #[must_use]
    pub fn new(shards: usize, max_staleness_ms: u64) -> Self {
        ShardFanout {
            max_staleness_ms,
            partials: vec![None; shards],
            last_ok: vec![false; shards],
            reads: 0,
        }
    }

    /// Number of shards folded.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.partials.len()
    }

    /// Record one shard read (success updates the held partial).
    pub fn observe(&mut self, shard: usize, result: Result<f64, KvError>, now_ms: u64) {
        self.reads += 1;
        match result {
            Ok(value) => {
                self.partials[shard] = Some(Held {
                    value,
                    as_of_ms: now_ms,
                });
                self.last_ok[shard] = true;
            }
            Err(_) => self.last_ok[shard] = false,
        }
    }

    /// Classify every shard as of `now_ms`. Call once per cycle after
    /// observing all shards.
    #[must_use]
    pub fn snapshot(&self, now_ms: u64) -> FanoutSnapshot {
        let mut shards = Vec::with_capacity(self.partials.len());
        for (s, partial) in self.partials.iter().enumerate() {
            let read = if self.last_ok[s] {
                match partial {
                    Some(h) => ShardRead::Fresh(h.value),
                    None => ShardRead::Missing,
                }
            } else {
                match partial {
                    // The bound is INCLUSIVE: a partial aged exactly
                    // `max_staleness_ms` is still served. With the
                    // fleet engine's bound of one cycle
                    // (`STALENESS_CYCLES × CYCLE_MS`), a shard that
                    // publishes at cycle `c` and goes dark is held
                    // through the read at cycle `c + 1` (age == bound)
                    // and turns Missing one read later — "survive
                    // exactly one dark cycle". An exclusive bound would
                    // silently mean zero dark-cycle tolerance. Pinned by
                    // `held_partial_boundary_is_inclusive`.
                    Some(h) if now_ms.saturating_sub(h.as_of_ms) <= self.max_staleness_ms => {
                        ShardRead::Held(h.value)
                    }
                    _ => ShardRead::Missing,
                }
            };
            shards.push(read);
        }
        FanoutSnapshot { shards }
    }

    /// Read every shard's `prefix` partial from `kv` and snapshot —
    /// the synchronous one-call-per-cycle driver path.
    pub fn refresh<K: KvAccess + ?Sized>(
        &mut self,
        kv: &K,
        prefix: &str,
        now_ms: u64,
    ) -> FanoutSnapshot {
        for s in 0..self.partials.len() {
            let result = kv.try_shard_aggregate(prefix, s, now_ms);
            self.observe(s, result, now_ms);
        }
        self.snapshot(now_ms)
    }

    /// Total shard reads issued (the O(shards) regression gate counts
    /// these against cycles × shards).
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

/// One cycle's classified per-shard partials, in shard index order.
#[derive(Clone, Debug)]
pub struct FanoutSnapshot {
    shards: Vec<ShardRead>,
}

impl FanoutSnapshot {
    /// Per-shard reads in shard index order.
    #[must_use]
    pub fn shards(&self) -> &[ShardRead] {
        &self.shards
    }

    /// The metering fold: shard-index-order sum over fresh *and* held
    /// partials. Any missing shard poisons the fold (`Err`) — consumers
    /// go fail-static rather than meter on a partial sum.
    ///
    /// # Errors
    ///
    /// [`KvError::ShardUnavailable`] when at least one shard is
    /// [`ShardRead::Missing`].
    pub fn fold(&self) -> Result<f64, KvError> {
        let mut sum = 0.0;
        for read in &self.shards {
            match read {
                ShardRead::Fresh(v) | ShardRead::Held(v) => sum += v,
                ShardRead::Missing => return Err(KvError::ShardUnavailable),
            }
        }
        Ok(sum)
    }

    /// The live (observability) fold: shard-index-order sum over fresh
    /// partials only. During a dark-shard window this is the global
    /// aggregate degraded by exactly the dark shard's contribution.
    #[must_use]
    pub fn fold_live(&self) -> f64 {
        let mut sum = 0.0;
        for read in &self.shards {
            if let ShardRead::Fresh(v) = read {
                sum += v;
            }
        }
        sum
    }

    /// Fresh partial per shard (`None` when the shard read failed).
    #[must_use]
    pub fn fresh_values(&self) -> Vec<Option<f64>> {
        self.shards
            .iter()
            .map(|r| match r {
                ShardRead::Fresh(v) => Some(*v),
                _ => None,
            })
            .collect()
    }

    /// Count of shards served fresh.
    #[must_use]
    pub fn fresh(&self) -> usize {
        self.shards
            .iter()
            .filter(|r| matches!(r, ShardRead::Fresh(_)))
            .count()
    }

    /// Count of shards served from the held copy.
    #[must_use]
    pub fn held(&self) -> usize {
        self.shards
            .iter()
            .filter(|r| matches!(r, ShardRead::Held(_)))
            .count()
    }

    /// Count of shards with no servable partial.
    #[must_use]
    pub fn missing(&self) -> usize {
        self.shards
            .iter()
            .filter(|r| matches!(r, ShardRead::Missing))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ShardedStore, StoreConfig};
    use std::time::Duration;

    #[test]
    fn fresh_fold_sums_in_shard_order() {
        let mut f = ShardFanout::new(3, 100);
        f.observe(0, Ok(1.0), 0);
        f.observe(1, Ok(2.0), 0);
        f.observe(2, Ok(4.0), 0);
        let snap = f.snapshot(0);
        assert_eq!(snap.fold(), Ok(7.0));
        assert_eq!(snap.fold_live(), 7.0);
        assert_eq!((snap.fresh(), snap.held(), snap.missing()), (3, 0, 0));
        assert_eq!(f.reads(), 3);
    }

    #[test]
    fn dark_shard_is_held_within_bound_then_missing() {
        let mut f = ShardFanout::new(2, 50);
        f.observe(0, Ok(1.0), 100);
        f.observe(1, Ok(2.0), 100);
        // Shard 1 goes dark at t=150: its t=100 partial is 50 ms old —
        // exactly at the bound, still served.
        f.observe(0, Ok(1.5), 150);
        f.observe(1, Err(KvError::ShardUnavailable), 150);
        let snap = f.snapshot(150);
        assert_eq!(snap.shards()[1], ShardRead::Held(2.0));
        assert_eq!(snap.fold(), Ok(3.5), "held partial keeps the fold whole");
        assert_eq!(snap.fold_live(), 1.5, "live fold degrades by the dark shard");
        // Still dark at t=200: beyond the bound, the fold poisons.
        f.observe(0, Ok(1.5), 200);
        f.observe(1, Err(KvError::ShardUnavailable), 200);
        let snap = f.snapshot(200);
        assert_eq!(snap.shards()[1], ShardRead::Missing);
        assert_eq!(snap.fold(), Err(KvError::ShardUnavailable));
        assert_eq!(snap.fresh_values(), vec![Some(1.5), None]);
        assert_eq!(f.reads(), 6, "a failed read is still a read");
    }

    #[test]
    fn held_partial_boundary_is_inclusive() {
        // Off-by-one pin of the staleness comparison. Publish at
        // t=1000 with a one-cycle bound (1000 ms), then go dark:
        //   age == bound      → Held (the fold stays whole),
        //   age == bound + 1  → Missing (the fold poisons).
        let mut f = ShardFanout::new(1, 1000);
        f.observe(0, Ok(3.0), 1000);
        f.observe(0, Err(KvError::ShardUnavailable), 2000);
        let snap = f.snapshot(2000);
        assert_eq!(snap.shards()[0], ShardRead::Held(3.0));
        assert_eq!(snap.fold(), Ok(3.0), "age == bound must still serve");
        let snap = f.snapshot(2001);
        assert_eq!(snap.shards()[0], ShardRead::Missing);
        assert_eq!(
            snap.fold(),
            Err(KvError::ShardUnavailable),
            "age == bound + 1 must poison the fold"
        );
    }

    #[test]
    fn never_observed_shard_is_missing() {
        let mut f = ShardFanout::new(2, 1000);
        f.observe(0, Ok(1.0), 0);
        f.observe(1, Err(KvError::ShardUnavailable), 0);
        let snap = f.snapshot(0);
        assert_eq!(snap.shards()[1], ShardRead::Missing);
        assert_eq!(snap.fold(), Err(KvError::ShardUnavailable));
    }

    #[test]
    fn recovery_replaces_the_held_partial() {
        let mut f = ShardFanout::new(1, 10);
        f.observe(0, Ok(5.0), 0);
        f.observe(0, Err(KvError::ShardUnavailable), 5);
        assert_eq!(f.snapshot(5).shards()[0], ShardRead::Held(5.0));
        f.observe(0, Ok(7.0), 20);
        assert_eq!(f.snapshot(20).shards()[0], ShardRead::Fresh(7.0));
        assert_eq!(f.snapshot(20).fold(), Ok(7.0));
    }

    #[test]
    fn refresh_reads_each_shard_once() {
        let store = ShardedStore::new(StoreConfig {
            shards: 4,
            ttl: Duration::from_secs(60),
        });
        for s in 0..4 {
            store.put_in_shard(s, &format!("rates/x/total/s{s}"), (s as f64) + 0.5, 0);
        }
        let mut f = ShardFanout::new(4, 0);
        let snap = f.refresh(&store, "rates/x/total/", 0);
        assert_eq!(snap.fold(), Ok(0.5 + 1.5 + 2.5 + 3.5));
        assert_eq!(f.reads(), 4, "one read per shard per refresh");
        f.refresh(&store, "rates/x/total/", 0);
        assert_eq!(f.reads(), 8);
    }
}
