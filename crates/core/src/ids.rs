//! Identifiers for the entities that participate in entitlement:
//! Network Product Groups (NPGs, i.e. services), backbone regions,
//! endhosts, and flow 5-tuple keys.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A Network Product Group — the paper's unit of contract ownership.
///
/// NPG and "service" are used interchangeably (paper §3.2). The id is an
/// index into a registry kept by whatever layer created it (workload
/// ontology, contract database, ...); the optional human-readable name is
/// carried for observability.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NpgId(pub u32);

impl NpgId {
    /// Sentinel NPG that aggregates all low-touch services (paper §4.3:
    /// "the rest of the services are grouped into one low-touch service").
    pub const LOW_TOUCH: NpgId = NpgId(u32::MAX);

    /// Returns true if this id is the aggregated low-touch pseudo-service.
    pub fn is_low_touch(self) -> bool {
        self == Self::LOW_TOUCH
    }
}

impl fmt::Debug for NpgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_low_touch() {
            write!(f, "npg:low-touch")
        } else {
            write!(f, "npg:{}", self.0)
        }
    }
}

impl fmt::Display for NpgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A backbone region: a data center or point-of-presence site.
///
/// Regions are the granularity at which entitlements are expressed
/// (`<NPG, QoS, region, rate, period>`) and at which hoses aggregate
/// ingress/egress traffic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u16);

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl RegionId {
    /// Convenience constructor from a usize index (panics on overflow).
    pub fn from_index(i: usize) -> Self {
        RegionId(u16::try_from(i).expect("region index exceeds u16"))
    }

    /// The region index as usize, for dense array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An endhost (server) running an enforcement agent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl HostId {
    /// Stable hash of the host id, used to assign hosts to remarking
    /// groups (paper §5.3 host-based remarking splits hosts into groups
    /// identified by a unique group number).
    pub fn stable_hash(self) -> u64 {
        // SplitMix64 finalizer: avalanches all input bits so consecutive
        // host ids land in unrelated groups.
        let mut z = (self.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Remarking group in `0..groups` (paper uses 100 groups).
    pub fn group(self, groups: u32) -> u32 {
        debug_assert!(groups > 0);
        (self.stable_hash() % groups as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_touch_sentinel() {
        assert!(NpgId::LOW_TOUCH.is_low_touch());
        assert!(!NpgId(0).is_low_touch());
        assert_eq!(format!("{}", NpgId::LOW_TOUCH), "npg:low-touch");
        assert_eq!(format!("{}", NpgId(7)), "npg:7");
    }

    #[test]
    fn region_round_trip() {
        let r = RegionId::from_index(42);
        assert_eq!(r.index(), 42);
        assert_eq!(format!("{r}"), "r42");
    }

    #[test]
    #[should_panic(expected = "region index exceeds u16")]
    fn region_index_overflow_panics() {
        let _ = RegionId::from_index(70_000);
    }

    #[test]
    fn host_groups_are_stable_and_in_range() {
        for i in 0..10_000u32 {
            let g = HostId(i).group(100);
            assert!(g < 100);
            assert_eq!(g, HostId(i).group(100), "grouping must be deterministic");
        }
    }

    #[test]
    fn host_groups_are_roughly_uniform() {
        let mut counts = [0usize; 100];
        for i in 0..100_000u32 {
            counts[HostId(i).group(100) as usize] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        // Expected 1000 per bucket; allow generous 25% skew.
        assert!(*min > 750, "min bucket {min}");
        assert!(*max < 1250, "max bucket {max}");
    }
}
