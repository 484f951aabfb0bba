//! The entitlement contract abstraction (paper §3.2).
//!
//! A contract is an agreement between the network team and one NPG. It
//! specifies (a) a network SLO target expressed as availability, and (b) a
//! list of bandwidth entitlements, each
//! `<NPG, QoS class, region, entitled rate (bits/s), enforcement period>`.
//!
//! The first three fields delineate a set of flows; the last two set the
//! maximum supported rate for those flows during the period. The region in
//! an entitlement is direction-qualified: an *egress* entitlement for
//! region M covers all traffic leaving M for that NPG/QoS, an *ingress*
//! entitlement covers traffic arriving at M.

use crate::ids::{NpgId, RegionId};
use crate::period::Period;
use crate::qos::QosClass;
use crate::rate::Rate;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a stored contract in the contract database.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ContractId(pub u64);

/// Direction of a hose/entitlement relative to its region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Traffic leaving the region.
    Egress,
    /// Traffic entering the region.
    Ingress,
}

impl Direction {
    /// Both directions, egress first (runtime enforcement currently meters
    /// egress; ingress metering is the §8 future-work extension).
    pub const BOTH: [Direction; 2] = [Direction::Egress, Direction::Ingress];

    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::Egress => Direction::Ingress,
            Direction::Ingress => Direction::Egress,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Egress => write!(f, "egress"),
            Direction::Ingress => write!(f, "ingress"),
        }
    }
}

/// An availability SLO target, e.g. `0.9998`.
///
/// The availability SLO measures the uptime percentage per class of
/// service, where uptime requires *all* traffic in that class to be
/// admitted in the network (paper §1).
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct SloTarget(pub f64);

impl SloTarget {
    /// Construct a target, validating it lies in `(0, 1]`.
    pub fn new(availability: f64) -> crate::Result<Self> {
        if availability > 0.0 && availability <= 1.0 {
            Ok(SloTarget(availability))
        } else {
            Err(crate::EntitlementError::InvalidSlo(availability))
        }
    }

    /// The availability value.
    pub fn availability(self) -> f64 {
        self.0
    }
}

impl fmt::Display for SloTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

/// One bandwidth entitlement row of a contract:
/// `<NPG, QoS class, region, entitled rate, enforcement period>`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Entitlement {
    /// Owning service.
    pub npg: NpgId,
    /// Traffic class the entitlement applies to. Entitlement is enforced
    /// for each QoS class independently (paper §5.3 fn 2).
    pub qos: QosClass,
    /// The region whose hose this entitlement caps.
    pub region: RegionId,
    /// Whether the cap applies to traffic leaving or entering the region.
    pub direction: Direction,
    /// Maximum supported rate for the delineated flows.
    pub entitled_rate: Rate,
    /// Enforcement period.
    pub period: Period,
}

impl Entitlement {
    /// Whether this entitlement governs the given flow aggregate at `day`.
    pub fn matches(
        &self,
        npg: NpgId,
        qos: QosClass,
        region: RegionId,
        direction: Direction,
        day: u32,
    ) -> bool {
        self.npg == npg
            && self.qos == qos
            && self.region == region
            && self.direction == direction
            && self.period.contains(day)
    }
}

impl fmt::Display for Entitlement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{}, {}, {} {}, {}, {}>",
            self.npg, self.qos, self.region, self.direction, self.entitled_rate, self.period
        )
    }
}

/// A full entitlement contract between the network team and one NPG.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EntitlementContract {
    /// Stable id assigned by the contract database.
    pub id: ContractId,
    /// The NPG this contract binds.
    pub npg: NpgId,
    /// Network SLO target, e.g. 0.9998.
    pub slo: SloTarget,
    /// The bandwidth entitlements.
    pub entitlements: Vec<Entitlement>,
}

impl EntitlementContract {
    /// Create a contract; all entitlements must belong to `npg`.
    pub fn new(
        id: ContractId,
        npg: NpgId,
        slo: SloTarget,
        entitlements: Vec<Entitlement>,
    ) -> crate::Result<Self> {
        if let Some(bad) = entitlements.iter().find(|e| e.npg != npg) {
            return Err(crate::EntitlementError::ContractNpgMismatch {
                contract_npg: npg,
                entitlement_npg: bad.npg,
            });
        }
        Ok(EntitlementContract {
            id,
            npg,
            slo,
            entitlements,
        })
    }

    /// Look up the entitled rate for a flow aggregate on `day`.
    /// Returns `None` when no entitlement covers it (such traffic is not
    /// guaranteed but also not remarked — there is nothing to enforce).
    pub fn entitled_rate(
        &self,
        qos: QosClass,
        region: RegionId,
        direction: Direction,
        day: u32,
    ) -> Option<Rate> {
        self.entitlements
            .iter()
            .filter(|e| e.matches(self.npg, qos, region, direction, day))
            .map(|e| e.entitled_rate)
            .reduce(|a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::QosClass;

    fn ent(npg: u32, region: u16, rate_g: f64) -> Entitlement {
        Entitlement {
            npg: NpgId(npg),
            qos: QosClass::C1,
            region: RegionId(region),
            direction: Direction::Egress,
            entitled_rate: Rate::gbps(rate_g),
            period: Period::new(0, 90),
        }
    }

    #[test]
    fn slo_validation() {
        assert!(SloTarget::new(0.9998).is_ok());
        assert!(SloTarget::new(0.0).is_err());
        assert!(SloTarget::new(1.5).is_err());
    }

    #[test]
    fn contract_rejects_foreign_entitlements() {
        let err = EntitlementContract::new(
            ContractId(1),
            NpgId(1),
            SloTarget::new(0.999).unwrap(),
            vec![ent(2, 0, 100.0)],
        );
        assert!(err.is_err());
    }

    #[test]
    fn lookup_sums_matching_rows_and_respects_period() {
        let c = EntitlementContract::new(
            ContractId(1),
            NpgId(1),
            SloTarget::new(0.999).unwrap(),
            vec![ent(1, 0, 100.0), ent(1, 0, 50.0), ent(1, 1, 10.0)],
        )
        .unwrap();
        let r = c
            .entitled_rate(QosClass::C1, RegionId(0), Direction::Egress, 10)
            .unwrap();
        assert!((r.as_gbps() - 150.0).abs() < 1e-9);
        // Day outside the period: nothing matches.
        assert!(c
            .entitled_rate(QosClass::C1, RegionId(0), Direction::Egress, 90)
            .is_none());
        // Different class: nothing matches.
        assert!(c
            .entitled_rate(QosClass::C2, RegionId(0), Direction::Egress, 10)
            .is_none());
    }

    #[test]
    fn display_row_reads_like_the_paper() {
        let e = ent(1, 3, 1000.0);
        assert_eq!(e.to_string(), "<npg:1, c1, r3 egress, 1.000Tbps, [d0, d90)>");
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Egress.flip(), Direction::Ingress);
        assert_eq!(Direction::Ingress.flip(), Direction::Egress);
    }
}
