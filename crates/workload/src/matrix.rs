//! Traffic-matrix synthesis.
//!
//! A traffic matrix assigns a service's backbone traffic to
//! (src region, dst region) pipes. We use a gravity model with *locality
//! concentration*: each service picks a few "home" regions (where its
//! compute or storage is deployed) that contribute the bulk of traffic
//! toward any destination. Paper Fig 7 observes exactly this — 67% of one
//! storage service's traffic into a destination comes from 3 source
//! regions, "two of them are other storage regions and one is the region
//! hosting compute".

use crate::ontology::Service;
use entitlement_core::{DetRng, QosClass, Rate, RegionId};
use entitlement_topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of home regions per service (the concentrated sources).
const HOME_REGIONS: usize = 3;

/// Parameters for matrix synthesis.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MatrixSpec {
    /// Seed.
    pub seed: u64,
}

impl Default for MatrixSpec {
    fn default() -> Self {
        MatrixSpec { seed: 0x7A11 }
    }
}

/// A per-service, per-class traffic matrix over DC regions.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    /// Demand per (src, dst) pipe; no self-pipes.
    pub demands: BTreeMap<(RegionId, RegionId), Rate>,
}

impl TrafficMatrix {
    /// Synthesize the matrix for one service and class.
    ///
    /// The service's `source_concentration` fraction of traffic is
    /// originated from its home regions (weighted by region capacity);
    /// the rest is spread gravity-style across all other DCs.
    /// Destinations are weighted by region capacity scale.
    pub fn synthesize(
        topo: &Topology,
        service: &Service,
        qos: QosClass,
        spec: &MatrixSpec,
    ) -> TrafficMatrix {
        let total = service.rate_in(qos);
        let dcs = topo.dc_ids();
        if total.is_zero() || dcs.len() < 2 {
            return TrafficMatrix::default();
        }
        // Per-service deterministic stream: same service, same homes.
        let mut rng = DetRng::new(spec.seed ^ (service.npg.0 as u64) << 17 ^ qos.priority() as u64);
        let k = HOME_REGIONS.min(dcs.len().saturating_sub(1)).max(1);
        let home_idx = rng.sample_indices(dcs.len(), k);
        let homes: Vec<RegionId> = home_idx.iter().map(|&i| dcs[i]).collect();

        let scale = |r: RegionId| topo.region(r).map_or(1.0, |x| x.capacity_scale);
        let conc = service.source_concentration;

        // Source weights: homes share `conc`, others share `1-conc`.
        let home_scale_sum: f64 = homes.iter().map(|&r| scale(r)).sum();
        let other: Vec<RegionId> = dcs.iter().copied().filter(|r| !homes.contains(r)).collect();
        let other_scale_sum: f64 = other.iter().map(|&r| scale(r)).sum();

        let mut src_weight: BTreeMap<RegionId, f64> = BTreeMap::new();
        for &h in &homes {
            src_weight.insert(h, conc * scale(h) / home_scale_sum);
        }
        for &o in &other {
            if other_scale_sum > 0.0 {
                src_weight.insert(o, (1.0 - conc) * scale(o) / other_scale_sum);
            }
        }

        // Destination weights: gravity on capacity scale.
        let mut demands = BTreeMap::new();
        for (&src, &sw) in &src_weight {
            let dst_scale_sum: f64 = dcs.iter().filter(|&&d| d != src).map(|&d| scale(d)).sum();
            for &dst in dcs.iter().filter(|&&d| d != src) {
                let dw = scale(dst) / dst_scale_sum;
                let amount = total * (sw * dw);
                if !amount.is_zero() {
                    demands.insert((src, dst), amount);
                }
            }
        }
        TrafficMatrix { demands }
    }

    /// Total volume in the matrix.
    pub fn total(&self) -> Rate {
        self.demands.values().copied().sum()
    }

    /// Egress per source region.
    pub fn egress_by_src(&self) -> BTreeMap<RegionId, Rate> {
        let mut out: BTreeMap<RegionId, Rate> = BTreeMap::new();
        for (&(src, _), &r) in &self.demands {
            *out.entry(src).or_insert(Rate::ZERO) += r;
        }
        out
    }

    /// Ingress per destination region.
    pub fn ingress_by_dst(&self) -> BTreeMap<RegionId, Rate> {
        let mut out: BTreeMap<RegionId, Rate> = BTreeMap::new();
        for (&(_, dst), &r) in &self.demands {
            *out.entry(dst).or_insert(Rate::ZERO) += r;
        }
        out
    }

    /// The per-source breakdown of traffic into one destination, sorted
    /// descending — the series plotted in Fig 7.
    pub fn sources_into(&self, dst: RegionId) -> Vec<(RegionId, Rate)> {
        let mut v: Vec<(RegionId, Rate)> = self
            .demands
            .iter()
            .filter(|((_, d), _)| *d == dst)
            .map(|((s, _), &r)| (*s, r))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        v
    }

    /// Fraction of traffic into `dst` contributed by its top-`n` sources.
    pub fn top_source_share(&self, dst: RegionId, n: usize) -> f64 {
        let sources = self.sources_into(dst);
        let total: f64 = sources.iter().map(|(_, r)| r.as_bps()).sum();
        if total == 0.0 {
            return 0.0;
        }
        sources.iter().take(n).map(|(_, r)| r.as_bps()).sum::<f64>() / total
    }

    /// Scale every demand by `factor` (used by time-varying generators).
    pub fn scaled(&self, factor: f64) -> TrafficMatrix {
        TrafficMatrix {
            demands: self
                .demands
                .iter()
                .map(|(&k, &v)| (k, v * factor))
                .collect(),
        }
    }

    /// Merge another matrix into this one, summing overlapping pipes.
    pub fn merge(&mut self, other: &TrafficMatrix) {
        for (&k, &v) in &other.demands {
            *self.demands.entry(k).or_insert(Rate::ZERO) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::{CatalogSpec, ServiceCatalog};
    use entitlement_topology::BackboneSpec;

    fn setup() -> (Topology, ServiceCatalog) {
        let topo = BackboneSpec::default().build();
        let cat = ServiceCatalog::generate(&CatalogSpec {
            tail_services: 50,
            seed: 3,
            ..Default::default()
        });
        (topo, cat)
    }

    #[test]
    fn matrix_conserves_service_rate() {
        let (topo, cat) = setup();
        let ws = cat.by_name("warmstorage").unwrap();
        let tm = TrafficMatrix::synthesize(&topo, ws, QosClass::C2, &MatrixSpec::default());
        let expect = ws.rate_in(QosClass::C2);
        assert!(
            (tm.total().as_bps() - expect.as_bps()).abs() / expect.as_bps() < 1e-9,
            "total {} vs {}",
            tm.total(),
            expect
        );
    }

    #[test]
    fn top3_sources_carry_concentration_share() {
        let (topo, cat) = setup();
        let cold = cat.by_name("coldstorage").unwrap();
        let tm = TrafficMatrix::synthesize(&topo, cold, QosClass::C3, &MatrixSpec::default());
        // Paper Fig 7: top-3 ≈ 0.67. Our concentration is drawn from
        // [0.6, 0.75]; home regions also receive gravity share, so the
        // top-3 share should be at least the concentration.
        let dcs = topo.dc_ids();
        let mut shares = Vec::new();
        for &dst in &dcs {
            let s = tm.top_source_share(dst, 3);
            if s > 0.0 {
                shares.push(s);
            }
        }
        let mean = entitlement_core::stats::mean(&shares);
        assert!(
            (0.55..=0.9).contains(&mean),
            "mean top-3 share {mean} out of expected band"
        );
    }

    #[test]
    fn no_self_pipes() {
        let (topo, cat) = setup();
        let ads = cat.by_name("ads").unwrap();
        let tm = TrafficMatrix::synthesize(&topo, ads, QosClass::C1, &MatrixSpec::default());
        assert!(tm.demands.keys().all(|(s, d)| s != d));
    }

    #[test]
    fn egress_ingress_totals_match() {
        let (topo, cat) = setup();
        let lg = cat.by_name("logging").unwrap();
        let tm = TrafficMatrix::synthesize(&topo, lg, QosClass::C2, &MatrixSpec::default());
        let eg: Rate = tm.egress_by_src().values().copied().sum();
        let ing: Rate = tm.ingress_by_dst().values().copied().sum();
        assert!((eg.as_bps() - ing.as_bps()).abs() < 1.0);
    }

    #[test]
    fn scaling_and_merging() {
        let (topo, cat) = setup();
        let ads = cat.by_name("ads").unwrap();
        let tm = TrafficMatrix::synthesize(&topo, ads, QosClass::C1, &MatrixSpec::default());
        let doubled = tm.scaled(2.0);
        assert!((doubled.total().as_bps() - 2.0 * tm.total().as_bps()).abs() < 1.0);
        let mut merged = tm.clone();
        merged.merge(&tm);
        assert!((merged.total().as_bps() - doubled.total().as_bps()).abs() < 1.0);
    }

    #[test]
    fn empty_class_gives_empty_matrix() {
        let (topo, cat) = setup();
        let cold = cat.by_name("coldstorage").unwrap();
        // Coldstorage has no C1 traffic.
        let tm = TrafficMatrix::synthesize(&topo, cold, QosClass::C1, &MatrixSpec::default());
        assert!(tm.demands.is_empty());
        assert_eq!(tm.top_source_share(RegionId(0), 3), 0.0);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let (topo, cat) = setup();
        let ws = cat.by_name("warmstorage").unwrap();
        let a = TrafficMatrix::synthesize(&topo, ws, QosClass::C2, &MatrixSpec::default());
        let b = TrafficMatrix::synthesize(&topo, ws, QosClass::C2, &MatrixSpec::default());
        assert_eq!(a, b);
    }
}
