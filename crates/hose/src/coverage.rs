//! The hose-coverage metric (paper §7.2, metric from \[24\]).
//!
//! "Hose coverage evaluates the degree to which the generated traffic
//! matrices cover the entire Hose space. Ideally, we want to use a small
//! subset of representative TMs to cover a large Hose space."
//!
//! Operationally: if the network is planned to carry every TM in the
//! representative set, then any *actual* traffic realization that is
//! component-wise dominated by some representative TM is guaranteed
//! feasible. Coverage of a TM set is therefore the probability that a
//! random demand realization of the hose is dominated by at least one
//! representative TM, estimated by Monte Carlo with a fixed probe set.
//!
//! Two calibration choices make the metric match production practice
//! (and the Fig 21 curve shape — diminishing returns approaching high
//! coverage around 2000 TMs):
//!
//! * probes are demand realizations at up to [`PROBE_MAX_UTILIZATION`] of
//!   the hose (live traffic does not pin the planned envelope; planners
//!   leave headroom), and
//! * domination allows [`DOMINATION_TOLERANCE`] relative headroom,
//!   matching the over-provisioning slack link capacity planning already
//!   carries.

use crate::polytope::HosePoint;
use crate::request::HoseRequest;
use crate::tmgen::{generate_tms, TmGenConfig};
use entitlement_core::{DetRng, RegionId};

/// Probes realize at most this fraction of each segment cap.
pub const PROBE_MAX_UTILIZATION: f64 = 0.85;
/// Relative headroom allowed when testing domination.
pub const DOMINATION_TOLERANCE: f64 = 0.1;

/// Whether `a` dominates `b` component-wise (every destination of `b`
/// receives at most `(1 + tol)` times what `a` provides).
pub fn dominates(a: &HosePoint, b: &HosePoint, tol: f64) -> bool {
    b.iter().all(|(r, vb)| {
        let va = a.get(r).copied().unwrap_or(entitlement_core::Rate::ZERO);
        va.as_bps() * (1.0 + tol) + 1e-6 >= vb.as_bps()
    })
}

/// Draw `n` probe points from the hose polytope: per segment a uniform
/// simplex direction (Dirichlet α=1) scaled by `u^(1/dim)` radial density
/// and capped at [`PROBE_MAX_UTILIZATION`] of the segment cap.
pub fn probe_points(hose: &HoseRequest, n: usize, seed: u64) -> Vec<HosePoint> {
    let mut rng = DetRng::new(seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut point = HosePoint::new();
        for seg in &hose.segments {
            let members: Vec<RegionId> = seg.regions.iter().copied().collect();
            let dim = members.len() as f64;
            // Uniform over the simplex face, then shrink radially.
            let mut weights: Vec<f64> = (0..members.len())
                .map(|_| -rng.f64().max(1e-300).ln())
                .collect();
            let s: f64 = weights.iter().sum();
            weights.iter_mut().for_each(|w| *w /= s);
            let radial = rng.f64().powf(1.0 / dim) * PROBE_MAX_UTILIZATION;
            for (r, w) in members.into_iter().zip(weights) {
                point.insert(r, seg.cap * (w * radial));
            }
        }
        out.push(point);
    }
    out
}

/// Coverage of a TM set: fraction of probes dominated by ≥1 TM (with the
/// standard [`DOMINATION_TOLERANCE`]).
pub fn coverage_of(tms: &[HosePoint], probes: &[HosePoint]) -> f64 {
    if probes.is_empty() {
        return 0.0;
    }
    let covered = probes
        .iter()
        .filter(|p| tms.iter().any(|tm| dominates(tm, p, DOMINATION_TOLERANCE)))
        .count();
    covered as f64 / probes.len() as f64
}

/// Incremental coverage curve: `out[k]` = coverage of the first `k+1`
/// generated TMs (the Fig 21 series).
pub fn coverage_curve(hose: &HoseRequest, max_tms: usize, probes: usize, seed: u64) -> Vec<f64> {
    let tms = generate_tms(
        hose,
        &TmGenConfig {
            count: max_tms,
            seed,
        },
    );
    let probe = probe_points(hose, probes, seed ^ 0xABCD);
    // Track, per probe, whether any prefix TM dominates it.
    let mut covered = vec![false; probe.len()];
    let mut out = Vec::with_capacity(max_tms);
    let mut count = 0usize;
    for tm in &tms {
        for (i, p) in probe.iter().enumerate() {
            if !covered[i] && dominates(tm, p, DOMINATION_TOLERANCE) {
                covered[i] = true;
                count += 1;
            }
        }
        out.push(count as f64 / probe.len() as f64);
    }
    out
}

/// Number of TMs needed to reach `target` coverage (Fig 20's quantity);
/// `None` if `max_tms` never reaches it.
pub fn tms_for_coverage(
    hose: &HoseRequest,
    target: f64,
    max_tms: usize,
    probes: usize,
    seed: u64,
) -> Option<usize> {
    let curve = coverage_curve(hose, max_tms, probes, seed);
    curve.iter().position(|&c| c >= target).map(|i| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::HoseSegment;
    use crate::segment::{segment_flow_series, FlowSeries};
    use entitlement_core::{Direction, NpgId, QosClass, Rate};
    use std::collections::BTreeSet;

    fn general_hose(n_remotes: u16, total_g: f64) -> HoseRequest {
        HoseRequest::general(
            NpgId(1),
            QosClass::C1,
            RegionId(0),
            Direction::Egress,
            Rate::gbps(total_g),
            (1..=n_remotes).map(RegionId),
        )
    }

    #[test]
    fn domination_semantics() {
        let a: HosePoint = [(RegionId(1), Rate::gbps(10.0)), (RegionId(2), Rate::gbps(5.0))]
            .into_iter()
            .collect();
        let b: HosePoint = [(RegionId(1), Rate::gbps(8.0)), (RegionId(2), Rate::gbps(5.0))]
            .into_iter()
            .collect();
        assert!(dominates(&a, &b, 0.0));
        assert!(!dominates(&b, &a, 0.0));
        // Missing destination in the dominator fails.
        let c: HosePoint = [(RegionId(3), Rate::gbps(1.0))].into_iter().collect();
        assert!(!dominates(&a, &c, 0.0));
    }

    #[test]
    fn probes_lie_inside() {
        let hose = general_hose(4, 900.0);
        let poly = crate::polytope::HosePolytope::new(hose.clone()).unwrap();
        for p in probe_points(&hose, 200, 1) {
            assert!(poly.contains(&p, 1e-9));
        }
    }

    #[test]
    fn coverage_curve_is_monotone() {
        let hose = general_hose(4, 900.0);
        let curve = coverage_curve(&hose, 50, 300, 2);
        assert_eq!(curve.len(), 50);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(curve[49] > curve[0]);
    }

    #[test]
    fn coverage_has_diminishing_returns() {
        // Fig 21's shape: marginal gain shrinks as TMs pile up.
        let hose = general_hose(5, 900.0);
        let curve = coverage_curve(&hose, 200, 500, 3);
        let early_gain = curve[19] - curve[0];
        let late_gain = curve[199] - curve[180];
        assert!(
            early_gain > late_gain,
            "early {early_gain} vs late {late_gain}"
        );
    }

    #[test]
    fn segmented_hose_needs_fewer_tms() {
        // Fig 20's core claim. Build a concentrated flow series over six
        // destinations, segment it, and compare TM counts at 60% coverage.
        let mut flows = FlowSeries::new();
        let t_len = 12;
        for (i, base) in [400.0, 250.0, 120.0, 60.0, 40.0, 30.0].iter().enumerate() {
            let series: Vec<f64> = (0..t_len)
                .map(|t| base * (1.0 + 0.1 * ((t + i) % 4) as f64 / 4.0))
                .collect();
            flows.insert(RegionId(1 + i as u16), series);
        }
        let total = Rate::gbps(900.0);
        let segmented = segment_flow_series(
            NpgId(1),
            QosClass::C1,
            RegionId(0),
            Direction::Egress,
            total,
            &flows,
        )
        .unwrap();
        let general = general_hose(6, 900.0);

        let target = 0.6;
        let n_seg = tms_for_coverage(&segmented, target, 4000, 400, 5);
        let n_gen = tms_for_coverage(&general, target, 4000, 400, 5);
        let (n_seg, n_gen) = (n_seg.expect("segmented reaches 60%"), n_gen.expect("general reaches 60%"));
        assert!(
            n_seg < n_gen,
            "segmented needs {n_seg} TMs vs general {n_gen}"
        );
    }

    #[test]
    fn singleton_segments_cover_instantly() {
        // Hose where every segment has one destination: the single
        // boundary point dominates everything.
        let hose = HoseRequest {
            npg: NpgId(1),
            qos: QosClass::C1,
            region: RegionId(0),
            direction: Direction::Egress,
            total: Rate::gbps(100.0),
            segments: vec![
                HoseSegment {
                    regions: [RegionId(1)].into_iter().collect::<BTreeSet<_>>(),
                    cap: Rate::gbps(60.0),
                },
                HoseSegment {
                    regions: [RegionId(2)].into_iter().collect::<BTreeSet<_>>(),
                    cap: Rate::gbps(40.0),
                },
            ],
        };
        assert_eq!(tms_for_coverage(&hose, 0.99, 10, 200, 7), Some(1));
    }
}
