//! Fleet sharding: contiguous host ranges.
//!
//! The aggregation tree assigns each host to exactly one fleet shard.
//! Shards are *contiguous* index ranges `[s·N/S, (s+1)·N/S)` rather
//! than hash buckets for two reasons:
//!
//! * **Determinism** — a shard's partial is the sum of its hosts' rates
//!   in ascending host order, and the global aggregate is the sum of
//!   partials in ascending shard order. Both folds have a fixed order,
//!   so the single-threaded and parallel strategies produce
//!   bit-identical float sums no matter how work is scheduled.
//! * **Cache locality** — the struct-of-arrays fleet state is walked in
//!   one linear pass, eight neighbouring shards abreast, two loops per
//!   block of 64 hosts (a keep-mask, then the ordered adds); a metering
//!   cycle over 10⁶ hosts is a streaming sweep instead of 10⁶ pointer
//!   chases, and it does not branch on a host's state.
//!
//! Host *marking* still uses the stable per-host hash
//! (`HostId::group`), so a contiguous shard holds a representative
//! ~uniform slice of marked groups.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Partition of `hosts` host indices into `shards` contiguous ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    hosts: usize,
    shards: usize,
}

impl ShardPlan {
    /// Partition `hosts` into `shards` near-equal contiguous ranges.
    ///
    /// # Errors
    ///
    /// Rejects empty fleets, zero shard counts, and more shards than
    /// hosts (an empty shard would publish a phantom zero partial).
    pub fn new(hosts: usize, shards: usize) -> Result<ShardPlan, String> {
        if hosts == 0 {
            return Err("fleet needs at least one host".to_string());
        }
        if shards == 0 {
            return Err("fleet needs at least one shard".to_string());
        }
        if shards > hosts {
            return Err(format!(
                "{shards} shards over {hosts} hosts would leave empty shards"
            ));
        }
        Ok(ShardPlan { hosts, shards })
    }

    /// Total host count.
    #[must_use]
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// First host index of shard `s` (valid for `s == shards()` too,
    /// where it returns `hosts()` — the exclusive end of the last
    /// shard).
    #[must_use]
    pub fn start(&self, s: usize) -> usize {
        // At 10⁶ hosts × 10⁴ shards the product still fits u64/usize
        // comfortably; the widening keeps the arithmetic exact.
        ((s as u128 * self.hosts as u128) / self.shards as u128) as usize
    }

    /// Host index range of shard `s`.
    #[must_use]
    pub fn range(&self, s: usize) -> Range<usize> {
        self.start(s)..self.start(s + 1)
    }

    /// The shard a host index belongs to.
    #[must_use]
    pub fn shard_of(&self, host: usize) -> usize {
        // Inverse of `start`: the last s with start(s) <= host.
        ((((host as u128 + 1) * self.shards as u128) - 1) / self.hosts as u128) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_fleet_exactly() {
        for (hosts, shards) in [(10, 3), (1, 1), (7, 7), (1000, 32), (100_000, 64), (97, 13)] {
            let plan = ShardPlan::new(hosts, shards).unwrap();
            let mut covered = 0usize;
            for s in 0..shards {
                let r = plan.range(s);
                assert_eq!(r.start, covered, "{hosts}/{shards} shard {s} contiguous");
                assert!(!r.is_empty(), "{hosts}/{shards} shard {s} non-empty");
                for h in r.clone() {
                    assert_eq!(plan.shard_of(h), s, "host {h} of {hosts}/{shards}");
                }
                covered = r.end;
            }
            assert_eq!(covered, hosts, "{hosts}/{shards} covers every host");
        }
    }

    #[test]
    fn near_equal_sizes() {
        let plan = ShardPlan::new(1000, 7).unwrap();
        for s in 0..7 {
            let len = plan.range(s).len();
            assert!((142..=143).contains(&len), "shard {s} has {len} hosts");
        }
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(ShardPlan::new(0, 1).is_err());
        assert!(ShardPlan::new(10, 0).is_err());
        assert!(ShardPlan::new(3, 4).is_err(), "no empty shards");
        assert!(ShardPlan::new(4, 4).is_ok());
    }
}
