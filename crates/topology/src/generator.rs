//! Synthetic Meta-like backbone generator.
//!
//! The paper's production topology is proprietary, so we synthesize a
//! backbone with the properties the granting algorithms are sensitive to:
//!
//! * O(10–30) regions: a core of large data centers plus edge PoPs;
//! * heterogeneous region capacity ("each data center is built
//!   differently", §3.1) drawn from a lognormal scale;
//! * a sparse long-haul mesh: a geographic ring for baseline connectivity
//!   plus random chords, so redundancy is limited (unlike a Clos DC);
//! * per-link availability derived from fiber length with an MTBF/MTTR
//!   model: longer routes see more fiber cuts.

use crate::graph::Topology;
use entitlement_core::{DetRng, Rate};
use serde::{Deserialize, Serialize};

/// What kind of site a region is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionKind {
    /// Data center: originates and sinks service traffic.
    DataCenter,
    /// Point of presence: edge/transit site.
    Pop,
}

/// Extra random chords added on top of the ring, as a fraction of the
/// region count (0.5 means n/2 extra chords).
const CHORD_FRACTION: f64 = 0.75;

/// Mean fiber cut rate per 1000 km per year (industry planning figures
/// are on the order of a few cuts per 1000 km-year).
const CUTS_PER_1000KM_YEAR: f64 = 1.5;

/// Mean time to repair a cut, in hours.
const MTTR_HOURS: f64 = 6.0;

/// Parameters of the synthetic backbone.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BackboneSpec {
    /// Number of data-center regions.
    pub dc_count: usize,
    /// Number of PoP regions.
    pub pop_count: usize,
    /// Mean capacity of a DC-DC link before region scaling.
    pub base_link_capacity: Rate,
    /// Seed for all randomness.
    pub seed: u64,
}

impl Default for BackboneSpec {
    fn default() -> Self {
        BackboneSpec {
            dc_count: 12,
            pop_count: 8,
            base_link_capacity: Rate::tbps(4.0),
            seed: 0xE17,
        }
    }
}

impl BackboneSpec {
    /// A small topology for fast unit tests.
    pub fn small(seed: u64) -> Self {
        BackboneSpec {
            dc_count: 5,
            pop_count: 3,
            base_link_capacity: Rate::tbps(1.0),
            seed,
        }
    }

    /// Long-run availability of a fiber link of `length_km`, from the
    /// MTBF/MTTR model: `A = MTBF / (MTBF + MTTR)` where the cut rate is
    /// proportional to length.
    pub fn link_availability(&self, length_km: f64) -> f64 {
        let cuts_per_year = CUTS_PER_1000KM_YEAR * (length_km / 1000.0).max(0.01);
        let mtbf_hours = 365.25 * 24.0 / cuts_per_year;
        mtbf_hours / (mtbf_hours + MTTR_HOURS)
    }

    /// Generate the backbone.
    pub fn build(&self) -> Topology {
        let mut rng = DetRng::new(self.seed);
        let mut topo = Topology::new();
        let n = self.dc_count + self.pop_count;
        assert!(n >= 3, "need at least 3 regions for a ring");

        // Place regions on a synthetic 2D map (continental scale, km).
        let mut coords: Vec<(f64, f64)> = Vec::with_capacity(n);
        for i in 0..self.dc_count {
            // Heterogeneous DC capacity: lognormal around 1.0.
            let scale = rng.lognormal(0.0, 0.6);
            topo.add_region(format!("dc-{i:02}"), true, scale);
            coords.push((rng.range(0.0, 8000.0), rng.range(0.0, 4000.0)));
        }
        for i in 0..self.pop_count {
            let scale = rng.lognormal(-1.0, 0.4); // PoPs are smaller
            topo.add_region(format!("pop-{i:02}"), false, scale);
            coords.push((rng.range(0.0, 8000.0), rng.range(0.0, 4000.0)));
        }

        let dist = |a: usize, b: usize| -> f64 {
            let (ax, ay) = coords[a];
            let (bx, by) = coords[b];
            // Fiber routes are ~1.4x geodesic distance.
            (((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() * 1.4).max(100.0)
        };

        // Order regions around the map centroid and build a ring, so the
        // baseline graph is 2-edge-connected like a real backbone.
        let cx = coords.iter().map(|c| c.0).sum::<f64>() / n as f64;
        let cy = coords.iter().map(|c| c.1).sum::<f64>() / n as f64;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let ta = (coords[a].1 - cy).atan2(coords[a].0 - cx);
            let tb = (coords[b].1 - cy).atan2(coords[b].0 - cx);
            ta.partial_cmp(&tb).unwrap()
        });

        let regions = topo.region_ids();
        let add = |topo: &mut Topology, rng: &mut DetRng, a: usize, b: usize| {
            let len = dist(a, b);
            let avail = self.link_availability(len);
            let scale_a = topo.region(regions[a]).unwrap().capacity_scale;
            let scale_b = topo.region(regions[b]).unwrap().capacity_scale;
            // Link capacity reflects the smaller endpoint plus jitter.
            let cap = self.base_link_capacity
                * scale_a.min(scale_b).max(0.1)
                * rng.range(0.7, 1.3);
            topo.add_duplex(regions[a], regions[b], cap, avail, len)
                .expect("endpoints exist");
        };

        for w in 0..n {
            let a = order[w];
            let b = order[(w + 1) % n];
            add(&mut topo, &mut rng, a, b);
        }

        // Random chords for limited extra redundancy.
        let chords = ((n as f64) * CHORD_FRACTION) as usize;
        let mut placed = 0usize;
        let mut attempts = 0usize;
        while placed < chords && attempts < chords * 20 {
            attempts += 1;
            let a = rng.usize(n);
            let b = rng.usize(n);
            if a == b {
                continue;
            }
            // Skip if a direct link already exists.
            let exists = topo
                .outgoing(regions[a])
                .iter()
                .any(|&lid| topo.link(lid).is_some_and(|l| l.dst == regions[b]));
            if exists {
                continue;
            }
            add(&mut topo, &mut rng, a, b);
            placed += 1;
        }

        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_core::RegionId;

    #[test]
    fn default_build_is_connected_and_sized() {
        let spec = BackboneSpec::default();
        let topo = spec.build();
        assert_eq!(topo.region_count(), 20);
        assert_eq!(topo.dc_ids().len(), 12);
        // Ring alone gives 2n directed links; chords add more.
        assert!(topo.link_count() >= 2 * 20);
        let regions = topo.region_ids();
        for &r in &regions {
            assert!(
                topo.reachable(regions[0], r, &[]),
                "region {r} unreachable"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = BackboneSpec::small(7).build();
        let b = BackboneSpec::small(7).build();
        assert_eq!(a, b);
        let c = BackboneSpec::small(8).build();
        assert_ne!(a, c);
    }

    #[test]
    fn availability_decreases_with_length() {
        let spec = BackboneSpec::default();
        let short = spec.link_availability(200.0);
        let long = spec.link_availability(8000.0);
        assert!(short > long);
        assert!(short < 1.0 && short > 0.99);
        assert!(long > 0.9, "even long links are mostly up: {long}");
    }

    #[test]
    fn capacities_are_heterogeneous() {
        let topo = BackboneSpec::default().build();
        let caps: Vec<f64> = topo
            .region_ids()
            .iter()
            .map(|&r| topo.egress_capacity(r).as_gbps())
            .collect();
        let min = caps.iter().copied().fold(f64::INFINITY, f64::min);
        let max = caps.iter().copied().fold(0.0, f64::max);
        assert!(
            max / min > 2.0,
            "expect >2x spread between regions, got {min}..{max}"
        );
    }

    #[test]
    fn ring_survives_any_single_cut() {
        // With a ring + chords, removing one duplex pair keeps connectivity.
        let topo = BackboneSpec::small(3).build();
        let regions = topo.region_ids();
        let first_pair = [topo.links()[0].id, topo.links()[1].id];
        for &r in &regions[1..] {
            assert!(topo.reachable(RegionId(0), r, &first_pair));
        }
    }
}
