//! The entitlement book: committed, time-sliced entitlements keyed by
//! `(NpgId, QosBucket, slice)`.
//!
//! Contract kinds follow the subscription/quota/usage-based shape of
//! production entitlement configs: subscriptions and quotas *reserve*
//! rate (they become risk-sweep background for admission), usage-based
//! entitlements are metered only and reserve nothing.

use crate::slice::{SliceGrid, SliceId};
use entitlement_approval::merge_background;
use entitlement_core::{NpgId, QosBucket, Rate, RegionId};
use entitlement_topology::routing::Demand;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How an entitlement is charged and whether it reserves capacity.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum EntitlementKind {
    /// Flat-rate reservation for every slice it covers.
    Subscription,
    /// Reservation plus a volume budget; the budget drains as traffic
    /// is metered against it.
    Quota {
        /// Remaining transferable volume, bytes.
        volume_bytes: f64,
    },
    /// Pay-per-use: metered, never reserved, so it contributes no
    /// risk-sweep background.
    UsageBased,
}

impl EntitlementKind {
    /// Whether this kind reserves rate (and therefore backs the
    /// residual index's committed background).
    pub fn reserves(&self) -> bool {
        !matches!(self, EntitlementKind::UsageBased)
    }
}

/// The store key: who, at what priority, when.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct MarketKey {
    /// The entitled network product group.
    pub npg: NpgId,
    /// Approval bucket (class + band).
    pub bucket: QosBucket,
    /// Time slice within the market's grid.
    pub slice: SliceId,
}

/// One committed entitlement: a directed region-pair rate for every
/// slice the market's grid covers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MarketEntitlement {
    /// The entitled network product group.
    pub npg: NpgId,
    /// Approval bucket.
    pub bucket: QosBucket,
    /// Source region.
    pub src: RegionId,
    /// Destination region.
    pub dst: RegionId,
    /// Entitled rate.
    pub rate: Rate,
    /// Contract kind.
    pub kind: EntitlementKind,
}

/// The time-sliced entitlement store: every committed contract, keyed
/// by `(npg, bucket, slice)`. Admitted grants do not land here; they
/// add up in the market's own ledger
/// ([`EntitlementMarket::granted`](crate::EntitlementMarket::granted)).
#[derive(Clone, Debug, Default)]
pub struct EntitlementBook {
    entries: BTreeMap<MarketKey, Vec<MarketEntitlement>>,
}

impl EntitlementBook {
    /// Empty book.
    pub fn new() -> EntitlementBook {
        EntitlementBook::default()
    }

    /// Record an entitlement under every slice of the grid (committed
    /// contracts span the whole period).
    pub fn commit_all_slices(&mut self, grid: &SliceGrid, e: &MarketEntitlement) {
        for slice in grid.slices() {
            self.commit(
                MarketKey {
                    npg: e.npg,
                    bucket: e.bucket,
                    slice,
                },
                e.clone(),
            );
        }
    }

    /// Record an entitlement under one key.
    pub fn commit(&mut self, key: MarketKey, e: MarketEntitlement) {
        self.entries.entry(key).or_default().push(e);
    }

    /// All entitlements under one key.
    pub fn get(&self, key: &MarketKey) -> &[MarketEntitlement] {
        self.entries.get(key).map_or(&[], Vec::as_slice)
    }

    /// Total rate an NPG holds in one bucket and slice.
    pub fn held(&self, key: &MarketKey) -> Rate {
        self.get(key).iter().map(|e| e.rate).sum()
    }

    /// The reserved background for the risk sweep: every reserving
    /// entitlement of slice 0 (contracts cover every slice at the same
    /// rate, so one slice is the steady-state concurrent load), merged
    /// by `(src, dst)`.
    pub fn reserved_background(&self) -> Vec<Demand> {
        let raw: Vec<Demand> = self
            .entries
            .iter()
            .filter(|(k, _)| k.slice == SliceId(0))
            .flat_map(|(_, es)| es.iter())
            .filter(|e| e.kind.reserves())
            .map(|e| Demand {
                src: e.src,
                dst: e.dst,
                amount: e.rate,
            })
            .collect();
        merge_background(&raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_core::{QosBand, QosClass, Quarter};

    fn bucket() -> QosBucket {
        QosBucket {
            class: QosClass::C1,
            band: QosBand::Low,
        }
    }

    fn ent(npg: u32, rate_g: f64, kind: EntitlementKind) -> MarketEntitlement {
        MarketEntitlement {
            npg: NpgId(npg),
            bucket: bucket(),
            src: RegionId(0),
            dst: RegionId(1),
            rate: Rate::gbps(rate_g),
            kind,
        }
    }

    #[test]
    fn commit_all_slices_fills_every_slice() {
        let grid = SliceGrid::quarterly(Quarter(0), 30);
        let mut book = EntitlementBook::new();
        book.commit_all_slices(&grid, &ent(1, 10.0, EntitlementKind::Subscription));
        let beyond = MarketKey {
            npg: NpgId(1),
            bucket: bucket(),
            slice: SliceId(grid.slice_count()),
        };
        assert!(book.get(&beyond).is_empty(), "nothing past the grid");
        for slice in grid.slices() {
            let key = MarketKey {
                npg: NpgId(1),
                bucket: bucket(),
                slice,
            };
            assert!((book.held(&key).as_gbps() - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn usage_based_reserves_nothing() {
        let grid = SliceGrid::quarterly(Quarter(0), 30);
        let mut book = EntitlementBook::new();
        book.commit_all_slices(&grid, &ent(1, 10.0, EntitlementKind::Subscription));
        book.commit_all_slices(&grid, &ent(2, 7.0, EntitlementKind::Quota { volume_bytes: 1e15 }));
        book.commit_all_slices(&grid, &ent(3, 99.0, EntitlementKind::UsageBased));
        let bg = book.reserved_background();
        assert_eq!(bg.len(), 1, "one (src, dst) pair, merged: {bg:?}");
        assert!(
            (bg[0].amount.as_gbps() - 17.0).abs() < 1e-9,
            "subscription + quota reserve, usage-based does not: {}",
            bg[0].amount
        );
    }
}
