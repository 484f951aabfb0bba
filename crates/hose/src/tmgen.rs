//! Representative traffic-matrix generation — the Demand Generation
//! Service stand-in.
//!
//! `Hose_Approval` "first converts Hose requests into representative Pipe
//! requests using an algorithm introduced by Meta's long-term network
//! planning work. Its key idea is to narrow down infinite possible Pipe
//! realizations into a small set of representative ones, which still
//! covers a significant portion of the Hose polytope" (paper §4.3).
//!
//! We sample points on the polytope boundary: each segment's cap is fully
//! distributed among its member destinations with a vertex-biased stick-
//! breaking scheme (symmetric Dirichlet with concentration < 1), plus the
//! deterministic extreme points (all cap to one destination, uniform
//! spread) that planners always include.

use crate::polytope::HosePoint;
use crate::request::HoseRequest;
use entitlement_core::{DetRng, Rate, RegionId};
use serde::{Deserialize, Serialize};

/// Dirichlet concentration of the sampled points; < 1 biases samples
/// toward vertices (realistic — services concentrate traffic), 1 is
/// uniform over the simplex face.
const CONCENTRATION: f64 = 0.7;

/// Configuration for TM generation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TmGenConfig {
    /// Number of TMs to generate.
    pub count: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for TmGenConfig {
    fn default() -> Self {
        TmGenConfig {
            count: 100,
            seed: 0x7361,
        }
    }
}

/// Sample a symmetric Dirichlet(α) vector of length `n` via Gamma draws
/// (Marsaglia–Tsang for α ≥ 1; boost trick for α < 1).
fn dirichlet(rng: &mut DetRng, n: usize, alpha: f64) -> Vec<f64> {
    let mut g: Vec<f64> = (0..n).map(|_| gamma(rng, alpha)).collect();
    let sum: f64 = g.iter().sum();
    if sum <= 0.0 {
        // Degenerate: put everything on a random coordinate.
        let mut v = vec![0.0; n];
        v[rng.usize(n)] = 1.0;
        return v;
    }
    g.iter_mut().for_each(|x| *x /= sum);
    g
}

fn gamma(rng: &mut DetRng, alpha: f64) -> f64 {
    if alpha < 1.0 {
        // Boost: Gamma(α) = Gamma(α+1) * U^(1/α).
        let u = rng.f64().max(1e-300);
        return gamma(rng, alpha + 1.0) * u.powf(1.0 / alpha);
    }
    // Marsaglia–Tsang.
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = rng.normal();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.f64().max(1e-300);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Generate `config.count` representative TMs for one hose.
///
/// The first TMs are deterministic extremes: one per destination sending
/// its segment's full cap to that destination alone, then the uniform
/// spread; the remainder are vertex-biased random boundary points. Every
/// returned point satisfies all segment constraints with equality
/// (boundary points dominate interior ones, so they are the efficient
/// representatives).
pub fn generate_tms(hose: &HoseRequest, config: &TmGenConfig) -> Vec<HosePoint> {
    let mut rng = DetRng::new(config.seed);
    let mut out: Vec<HosePoint> = Vec::with_capacity(config.count);

    // Extreme 1: per destination, its segment cap entirely on it; other
    // segments spread uniformly.
    let remotes: Vec<RegionId> = hose.remotes().into_iter().collect();
    for &vertex_dst in &remotes {
        if out.len() >= config.count {
            break;
        }
        let mut point = HosePoint::new();
        for seg in &hose.segments {
            if seg.regions.contains(&vertex_dst) {
                point.insert(vertex_dst, seg.cap);
                for &r in seg.regions.iter().filter(|&&r| r != vertex_dst) {
                    point.insert(r, Rate::ZERO);
                }
            } else {
                let share = seg.cap / seg.regions.len() as f64;
                for &r in &seg.regions {
                    point.insert(r, share);
                }
            }
        }
        out.push(point);
    }

    // Extreme 2: uniform spread everywhere.
    if out.len() < config.count {
        let mut point = HosePoint::new();
        for seg in &hose.segments {
            let share = seg.cap / seg.regions.len() as f64;
            for &r in &seg.regions {
                point.insert(r, share);
            }
        }
        out.push(point);
    }

    // Random boundary samples.
    while out.len() < config.count {
        let mut point = HosePoint::new();
        for seg in &hose.segments {
            let members: Vec<RegionId> = seg.regions.iter().copied().collect();
            let weights = dirichlet(&mut rng, members.len(), CONCENTRATION);
            for (r, w) in members.into_iter().zip(weights) {
                point.insert(r, seg.cap * w);
            }
        }
        out.push(point);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polytope::HosePolytope;
    use crate::request::HoseSegment;
    use entitlement_core::{Direction, NpgId, QosClass};
    use std::collections::BTreeSet;

    fn hose() -> HoseRequest {
        HoseRequest {
            npg: NpgId(1),
            qos: QosClass::C1,
            region: RegionId(0),
            direction: Direction::Egress,
            total: Rate::gbps(900.0),
            segments: vec![
                HoseSegment {
                    regions: [RegionId(1), RegionId(2)].into_iter().collect::<BTreeSet<_>>(),
                    cap: Rate::gbps(400.0),
                },
                HoseSegment {
                    regions: [RegionId(3), RegionId(4)].into_iter().collect::<BTreeSet<_>>(),
                    cap: Rate::gbps(500.0),
                },
            ],
        }
    }

    #[test]
    fn all_tms_lie_in_the_polytope() {
        let h = hose();
        let poly = HosePolytope::new(h.clone()).unwrap();
        let tms = generate_tms(&h, &TmGenConfig::default());
        assert_eq!(tms.len(), 100);
        for tm in &tms {
            assert!(poly.contains(tm, 1e-9), "tm outside polytope: {tm:?}");
        }
    }

    #[test]
    fn tms_saturate_segment_caps() {
        let h = hose();
        let tms = generate_tms(&h, &TmGenConfig::default());
        for tm in &tms {
            for seg in &h.segments {
                let used: f64 = tm
                    .iter()
                    .filter(|(r, _)| seg.regions.contains(r))
                    .map(|(_, v)| v.as_bps())
                    .sum();
                assert!(
                    (used - seg.cap.as_bps()).abs() < 1e-3,
                    "boundary points must use the full cap"
                );
            }
        }
    }

    #[test]
    fn deterministic_extremes_present() {
        let h = hose();
        let tms = generate_tms(&h, &TmGenConfig::default());
        // First TM: all 400G of segment 1 to region 1.
        assert!((tms[0][&RegionId(1)].as_gbps() - 400.0).abs() < 1e-9);
        assert_eq!(tms[0][&RegionId(2)], Rate::ZERO);
        // Its segment-2 share is uniform.
        assert!((tms[0][&RegionId(3)].as_gbps() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn generation_is_deterministic() {
        let h = hose();
        let a = generate_tms(&h, &TmGenConfig::default());
        let b = generate_tms(&h, &TmGenConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = DetRng::new(3);
        for alpha in [0.3, 0.7, 1.0, 3.0] {
            for _ in 0..100 {
                let v = dirichlet(&mut rng, 5, alpha);
                let s: f64 = v.iter().sum();
                assert!((s - 1.0).abs() < 1e-9);
                assert!(v.iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn low_concentration_is_vertex_biased() {
        let mut rng = DetRng::new(4);
        let spread = |alpha: f64, rng: &mut DetRng| {
            let mut max_means = 0.0;
            let n = 500;
            for _ in 0..n {
                let v = dirichlet(rng, 4, alpha);
                max_means += v.iter().copied().fold(0.0, f64::max);
            }
            max_means / n as f64
        };
        let sharp = spread(0.2, &mut rng);
        let flat = spread(5.0, &mut rng);
        assert!(
            sharp > flat + 0.15,
            "low alpha should concentrate mass: {sharp} vs {flat}"
        );
    }
}
