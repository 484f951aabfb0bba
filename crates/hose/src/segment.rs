//! The segmented-hose algorithm (paper §4.2, Algorithm 1).
//!
//! Input: the time series of per-destination flow out of one source,
//! `F(dst, t)`. For any destination set `S`, the share ratio is
//!
//! `R(S, t) = Σ_{dst∈S} F(dst, t) / Σ_{dst∈N} F(dst, t)`
//!
//! with `α⁻(S) = min_t R(S, t)` and `α⁺(S) = max_t R(S, t)`. The
//! split is greedy: destinations sorted by their individual α⁻ (ties by
//! region id) are added to `S` until its α⁻ exceeds 0.5, and a prefix
//! that never does is clamped to all destinations but the last. That is
//! a prefix of one order, not the smallest set with `α⁻(S) > 0.5`, and
//! its α⁻ need not exceed 0.5 at all. With `r1 = [60, 10]`,
//! `r2 = [10, 60]` and `r3 = [30, 30]` the order is r3 (0.3), r1, r2
//! (0.1 each); neither {r3} nor {r1, r3} (0.4) crosses 0.5, so the clamp
//! gives SEG = {r1, r3} with caps of 90 % and 10 %, although {r1, r2}
//! has α⁻ 0.7 and r2 alone, in SEG′, sends 60 % at t1
//! (`tests/properties.rs` pins this case).
//!
//! Segment capacities use `α⁺(SEG)` for the first segment — the maximum
//! share it ever needed — and `1 − α⁺(SEG) = α⁻(SEG′)` for the second, so
//! the fractions sum to exactly 1 and the hose is never over-provisioned
//! (paper: "if the hose segmentation coefficients sum up to more than 1,
//! then the hose volume reduction would be sub-optimal").

use crate::request::{HoseRequest, HoseSegment};
use entitlement_core::{Direction, EntitlementError, NpgId, QosClass, Rate, RegionId, Result};
use std::collections::{BTreeMap, BTreeSet};

/// Per-destination flow time series `F(dst, t)`; all series must share
/// one length (the same sampling grid).
pub type FlowSeries = BTreeMap<RegionId, Vec<f64>>;

/// `R(S, t)` for every `t`: share of total flow going to set `S`.
fn share_series(flows: &FlowSeries, set: &BTreeSet<RegionId>) -> Vec<f64> {
    let t_len = flows.values().next().map_or(0, Vec::len);
    let mut out = Vec::with_capacity(t_len);
    for t in 0..t_len {
        let total: f64 = flows.values().map(|v| v[t]).sum();
        let in_set: f64 = flows
            .iter()
            .filter(|(r, _)| set.contains(r))
            .map(|(_, v)| v[t])
            .sum();
        out.push(if total > 0.0 { in_set / total } else { 0.0 });
    }
    out
}

/// `α⁻(S)`: minimum share of set `S` over time.
pub fn alpha_minus(flows: &FlowSeries, set: &BTreeSet<RegionId>) -> f64 {
    share_series(flows, set)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// `α⁺(S)`: maximum share of set `S` over time.
pub fn alpha_plus(flows: &FlowSeries, set: &BTreeSet<RegionId>) -> f64 {
    share_series(flows, set).into_iter().fold(0.0, f64::max)
}

/// Algorithm 1: split the destination set into two segments.
///
/// Returns `(seg, seg_prime)`: `seg` is the shortest prefix of the
/// destinations by descending per-node α⁻ (ties by id) whose α⁻
/// exceeds 0.5, clamped to all but the last destination when no proper
/// prefix does; `seg_prime` is the rest. This is greedy, not the
/// smallest set crossing 0.5 (see the module docs for a case where
/// `seg`'s α⁻ is 0.4 and another pair's is 0.7). With fewer than 2
/// destinations there is nothing to split and the function errors.
pub fn two_segments(flows: &FlowSeries) -> Result<(BTreeSet<RegionId>, BTreeSet<RegionId>)> {
    let nodes: Vec<RegionId> = flows.keys().copied().collect();
    if nodes.len() < 2 {
        return Err(EntitlementError::EmptyDestinationSet);
    }
    if flows.values().any(Vec::is_empty) {
        return Err(EntitlementError::SeriesTooShort { needed: 1, got: 0 });
    }
    // Line 2-4: per-node α⁻, sorted non-increasing.
    let mut ranked: Vec<(RegionId, f64)> = nodes
        .iter()
        .map(|&n| {
            let singleton: BTreeSet<RegionId> = [n].into_iter().collect();
            (n, alpha_minus(flows, &singleton))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    // Line 5-9: grow SEG while α⁻(SEG) ≤ 0.5.
    let mut seg: BTreeSet<RegionId> = BTreeSet::new();
    for (n, _) in &ranked {
        if seg.is_empty() || alpha_minus(flows, &seg) <= 0.5 {
            seg.insert(*n);
        } else {
            break;
        }
    }
    // Never swallow the whole set: leave at least one node for SEG'.
    if seg.len() == nodes.len() {
        if let Some(&(last, _)) = ranked.last() {
            seg.remove(&last);
        }
    }
    let seg_prime: BTreeSet<RegionId> = nodes.iter().copied().filter(|n| !seg.contains(n)).collect();
    Ok((seg, seg_prime))
}

/// Build a segmented [`HoseRequest`] from a flow series using Algorithm 1.
///
/// `total` is the hose constraint (e.g. the forecast egress demand).
/// Capacities: first segment gets `α⁺(SEG) × total`, second the
/// complement, so caps sum exactly to `total`.
///
/// ```
/// use entitlement_core::{Direction, NpgId, QosClass, Rate, RegionId};
/// use entitlement_hose::segment::{segment_flow_series, FlowSeries};
///
/// // Two stable destination groups: {r1, r2} carry ~2/3 of the flow.
/// let mut flows = FlowSeries::new();
/// flows.insert(RegionId(1), vec![300.0, 310.0, 295.0]);
/// flows.insert(RegionId(2), vec![100.0, 95.0, 105.0]);
/// flows.insert(RegionId(3), vec![200.0, 205.0, 195.0]);
///
/// let hose = segment_flow_series(
///     NpgId(1), QosClass::C1, RegionId(0), Direction::Egress,
///     Rate::gbps(600.0), &flows,
/// ).unwrap();
/// assert_eq!(hose.segments.len(), 2);
/// // Segmentation reserves less than the general hose's 3 × 600 G.
/// assert!(hose.reserved_capacity().as_gbps() < 1800.0);
/// ```
pub fn segment_flow_series(
    npg: NpgId,
    qos: QosClass,
    region: RegionId,
    direction: Direction,
    total: Rate,
    flows: &FlowSeries,
) -> Result<HoseRequest> {
    let (seg, seg_prime) = two_segments(flows)?;
    let alpha = alpha_plus(flows, &seg).clamp(0.0, 1.0);
    // Degenerate splits (α = 0 or 1) carry no benefit; keep them valid by
    // nudging into the open interval.
    let alpha = alpha.clamp(1e-6, 1.0 - 1e-6);
    let segments = vec![
        HoseSegment {
            regions: seg,
            cap: total * alpha,
        },
        HoseSegment {
            regions: seg_prime,
            cap: total * (1.0 - alpha),
        },
    ];
    let hose = HoseRequest {
        npg,
        qos,
        region,
        direction,
        total,
        segments,
    };
    hose.validate()?;
    Ok(hose)
}

/// Generalized N-way segmentation (the paper's future-work extension):
/// recursively apply the two-way split to the largest remaining segment
/// until `n` segments exist or no segment can be split further. Segment
/// caps are renormalized so they sum to `total`.
pub fn segment_n_way(
    npg: NpgId,
    qos: QosClass,
    region: RegionId,
    direction: Direction,
    total: Rate,
    flows: &FlowSeries,
    n: usize,
) -> Result<HoseRequest> {
    if n < 2 {
        let remotes: Vec<RegionId> = flows.keys().copied().collect();
        if remotes.is_empty() {
            return Err(EntitlementError::EmptyDestinationSet);
        }
        return Ok(HoseRequest::general(npg, qos, region, direction, total, remotes));
    }
    // Start from the 2-way split, then keep splitting.
    let base = segment_flow_series(npg, qos, region, direction, total, flows)?;
    let mut segments: Vec<(BTreeSet<RegionId>, f64)> = base
        .segments
        .iter()
        .map(|s| (s.regions.clone(), s.cap.as_bps()))
        .collect();

    while segments.len() < n {
        // Pick the splittable segment with the most regions.
        let Some(idx) = segments
            .iter()
            .enumerate()
            .filter(|(_, (r, _))| r.len() >= 2)
            .max_by_key(|(_, (r, _))| r.len())
            .map(|(i, _)| i)
        else {
            break;
        };
        let (regions, cap) = segments.remove(idx);
        // Restrict the flow series to this segment's regions.
        let sub: FlowSeries = flows
            .iter()
            .filter(|(r, _)| regions.contains(r))
            .map(|(r, v)| (*r, v.clone()))
            .collect();
        match two_segments(&sub) {
            Ok((a, b)) if !a.is_empty() && !b.is_empty() => {
                let alpha = alpha_plus(&sub, &a).clamp(1e-6, 1.0 - 1e-6);
                segments.push((a, cap * alpha));
                segments.push((b, cap * (1.0 - alpha)));
            }
            _ => {
                segments.push((regions, cap));
                break;
            }
        }
    }

    // Renormalize caps to the hose total (guards against float drift).
    let cap_sum: f64 = segments.iter().map(|(_, c)| c).sum();
    let hose = HoseRequest {
        npg,
        qos,
        region,
        direction,
        total,
        segments: segments
            .into_iter()
            .map(|(regions, c)| HoseSegment {
                regions,
                cap: total * (c / cap_sum),
            })
            .collect(),
    };
    hose.validate()?;
    Ok(hose)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stable flows: {B: 300, C: 100} vs {D: 250, E: 250} with mild noise
    /// that keeps each group's share within a tight band — the Fig 6 shape.
    fn fig6_series() -> FlowSeries {
        let mut flows = FlowSeries::new();
        let t_len = 24;
        let wiggle = |i: usize, base: f64| base * (1.0 + 0.05 * ((i % 3) as f64 - 1.0));
        flows.insert(RegionId(1), (0..t_len).map(|i| wiggle(i, 300.0)).collect());
        flows.insert(RegionId(2), (0..t_len).map(|i| wiggle(i, 100.0)).collect());
        flows.insert(RegionId(3), (0..t_len).map(|i| wiggle(i + 1, 250.0)).collect());
        flows.insert(RegionId(4), (0..t_len).map(|i| wiggle(i + 2, 250.0)).collect());
        flows
    }

    #[test]
    fn alpha_bounds_ordered() {
        let flows = fig6_series();
        let s: BTreeSet<RegionId> = [RegionId(3), RegionId(4)].into_iter().collect();
        let lo = alpha_minus(&flows, &s);
        let hi = alpha_plus(&flows, &s);
        assert!(lo <= hi);
        assert!((0.0..=1.0).contains(&lo));
        assert!((0.0..=1.0).contains(&hi));
    }

    #[test]
    fn complements_sum_to_one() {
        // α⁺(S) + α⁻(S') = 1 — equation (3)'s identity.
        let flows = fig6_series();
        let s: BTreeSet<RegionId> = [RegionId(1), RegionId(2)].into_iter().collect();
        let s_prime: BTreeSet<RegionId> = [RegionId(3), RegionId(4)].into_iter().collect();
        assert!((alpha_plus(&flows, &s) + alpha_minus(&flows, &s_prime) - 1.0).abs() < 1e-9);
        assert!((alpha_minus(&flows, &s) + alpha_plus(&flows, &s_prime) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_segments_partition_everything() {
        let flows = fig6_series();
        let (a, b) = two_segments(&flows).unwrap();
        assert!(!a.is_empty() && !b.is_empty());
        assert!(a.is_disjoint(&b));
        assert_eq!(a.len() + b.len(), 4);
        // First segment crosses the 0.5 boundary.
        assert!(alpha_minus(&flows, &a) > 0.5 || a.len() == 3);
    }

    #[test]
    fn segmented_hose_beats_general_hose_capacity() {
        let flows = fig6_series();
        let hose = segment_flow_series(
            NpgId(1),
            QosClass::C1,
            RegionId(0),
            Direction::Egress,
            Rate::gbps(900.0),
            &flows,
        )
        .unwrap();
        let general = HoseRequest::general(
            NpgId(1),
            QosClass::C1,
            RegionId(0),
            Direction::Egress,
            Rate::gbps(900.0),
            flows.keys().copied(),
        );
        assert!(
            hose.reserved_capacity().as_bps() < general.reserved_capacity().as_bps(),
            "segmented {} must beat general {}",
            hose.reserved_capacity(),
            general.reserved_capacity()
        );
        // Fig 6 ballpark: roughly half of 3600G.
        let ratio = hose.reserved_capacity() / general.reserved_capacity();
        assert!(
            (0.4..=0.65).contains(&ratio),
            "reduction ratio {ratio} out of Fig 6 band"
        );
    }

    #[test]
    fn n_way_splits_do_not_lose_regions() {
        let flows = fig6_series();
        for n in 2..=4 {
            let hose = segment_n_way(
                NpgId(1),
                QosClass::C1,
                RegionId(0),
                Direction::Egress,
                Rate::gbps(900.0),
                &flows,
                n,
            )
            .unwrap();
            assert_eq!(hose.remotes().len(), 4, "n={n}");
            assert!(hose.segments.len() <= n);
            hose.validate().unwrap();
        }
    }

    #[test]
    fn more_segments_reserve_no_more_capacity() {
        let flows = fig6_series();
        let mk = |n| {
            segment_n_way(
                NpgId(1),
                QosClass::C1,
                RegionId(0),
                Direction::Egress,
                Rate::gbps(900.0),
                &flows,
                n,
            )
            .unwrap()
            .reserved_capacity()
            .as_bps()
        };
        let two = mk(2);
        let four = mk(4);
        assert!(four <= two + 1.0, "4-way {four} vs 2-way {two}");
    }

    #[test]
    fn single_destination_errors() {
        let mut flows = FlowSeries::new();
        flows.insert(RegionId(1), vec![1.0, 2.0]);
        assert!(two_segments(&flows).is_err());
    }

    #[test]
    fn n1_returns_general_hose() {
        let flows = fig6_series();
        let hose = segment_n_way(
            NpgId(1),
            QosClass::C1,
            RegionId(0),
            Direction::Egress,
            Rate::gbps(900.0),
            &flows,
            1,
        )
        .unwrap();
        assert_eq!(hose.segments.len(), 1);
        assert!((hose.reserved_capacity().as_gbps() - 3600.0).abs() < 1e-6);
    }
}
