//! Shortest-path machinery: Dijkstra by fiber length and Yen's k-shortest
//! loopless paths, used by the multipath router and the risk simulator.

use crate::graph::{LinkId, Topology};
use crate::plan::LinkMask;
use entitlement_core::{EntitlementError, RegionId, Result};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A loopless path through the backbone.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Path {
    /// Links traversed, in order.
    pub links: Vec<LinkId>,
    /// Total fiber length (the routing metric).
    pub length_km: f64,
}

impl Path {
    /// Regions visited, starting with the source.
    pub fn regions(&self, topo: &Topology) -> Vec<RegionId> {
        let links = || self.links.iter().filter_map(|&l| topo.link(l));
        links()
            .take(1)
            .map(|l| l.src)
            .chain(links().map(|l| l.dst))
            .collect()
    }

    /// Bottleneck capacity along the path (minimum link capacity).
    pub fn bottleneck(&self, topo: &Topology) -> entitlement_core::Rate {
        self.links
            .iter()
            .filter_map(|l| topo.link(*l))
            .map(|l| l.capacity)
            .fold(entitlement_core::Rate(f64::INFINITY), entitlement_core::Rate::min)
    }

    /// One-way propagation delay in milliseconds.
    pub fn propagation_ms(&self) -> f64 {
        self.length_km * 0.005
    }
}

#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    region: RegionId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; tie-break on region for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.region.cmp(&self.region))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra shortest path by fiber length, skipping `dead` links.
/// Returns `Err(Disconnected)` when no path exists.
pub fn shortest_path(
    topo: &Topology,
    src: RegionId,
    dst: RegionId,
    dead: &[LinkId],
) -> Result<Path> {
    let dead = LinkMask::of(topo.link_count(), dead);
    shortest_path_filtered(topo, src, dst, |lid| !dead.contains(lid), &[])
}

/// Dijkstra with an arbitrary link filter and a set of banned intermediate
/// regions (needed by Yen's spur computation).
fn shortest_path_filtered(
    topo: &Topology,
    src: RegionId,
    dst: RegionId,
    link_ok: impl Fn(LinkId) -> bool,
    banned_regions: &[RegionId],
) -> Result<Path> {
    let n = topo.region_count();
    if src.index() >= n {
        return Err(EntitlementError::UnknownRegion(src));
    }
    if dst.index() >= n {
        return Err(EntitlementError::UnknownRegion(dst));
    }
    if src == dst {
        return Ok(Path {
            links: Vec::new(),
            length_km: 0.0,
        });
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<LinkId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        region: src,
    });
    while let Some(HeapItem { dist: d, region }) = heap.pop() {
        if d > dist[region.index()] {
            continue;
        }
        if region == dst {
            break;
        }
        for &lid in topo.outgoing(region) {
            if !link_ok(lid) {
                continue;
            }
            let Some(link) = topo.link(lid) else { continue };
            if banned_regions.contains(&link.dst) && link.dst != dst {
                continue;
            }
            let nd = d + link.length_km;
            if nd < dist[link.dst.index()] {
                dist[link.dst.index()] = nd;
                prev[link.dst.index()] = Some(lid);
                heap.push(HeapItem {
                    dist: nd,
                    region: link.dst,
                });
            }
        }
    }
    if dist[dst.index()].is_infinite() {
        return Err(EntitlementError::Disconnected(src, dst));
    }
    // Reconstruct.
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let Some(link) = prev[cur.index()].and_then(|lid| topo.link(lid)) else {
            return Err(EntitlementError::Disconnected(src, dst));
        };
        links.push(link.id);
        cur = link.src;
    }
    links.reverse();
    Ok(Path {
        links,
        length_km: dist[dst.index()],
    })
}

/// Yen's algorithm: up to `k` loopless shortest paths by length, skipping
/// `dead` links. Returns fewer than `k` paths when the graph runs out of
/// alternatives; errors only when no path exists at all.
pub fn k_shortest_paths(
    topo: &Topology,
    src: RegionId,
    dst: RegionId,
    k: usize,
    dead: &[LinkId],
) -> Result<Vec<Path>> {
    yen(topo, src, dst, k, &LinkMask::of(topo.link_count(), dead), None)
}

/// Relative length gap under which a losing candidate counts as tied
/// with the winner. Far above the few ulps by which a candidate's
/// re-summed length can disagree with its spur distance, far below any
/// gap between genuinely different fiber routes.
const NEAR_TIE: f64 = 1e-9;

/// [`k_shortest_paths`] over a dead-link mask. With `near_ties`, every
/// link of a candidate that lost a selection to a path no more than
/// [`NEAR_TIE`] shorter is added to it: those are the only candidates
/// whose replacement, were one of their links to die too, could win
/// that selection instead — see the alias rule in [`crate::plan`].
pub(crate) fn yen(
    topo: &Topology,
    src: RegionId,
    dst: RegionId,
    k: usize,
    dead: &LinkMask,
    mut near_ties: Option<&mut LinkMask>,
) -> Result<Vec<Path>> {
    let length_of = |links: &[LinkId]| -> f64 {
        links
            .iter()
            .filter_map(|l| topo.link(*l))
            .map(|l| l.length_km)
            .sum()
    };
    let mut last = shortest_path_filtered(topo, src, dst, |lid| !dead.contains(lid), &[])?;
    let mut paths = vec![last.clone()];
    let mut candidates: Vec<Path> = Vec::new();

    while paths.len() < k {
        // Spur from every node of the previous path.
        let mut spur_node = src;
        let mut banned_regions: Vec<RegionId> = Vec::new();
        for i in 0..last.links.len() {
            let root_links = &last.links[..i];
            // Ban links that would recreate an already-found path with the
            // same root.
            let banned_links: Vec<LinkId> = paths
                .iter()
                .filter(|p| p.links.len() > i && p.links[..i] == *root_links)
                .map(|p| p.links[i])
                .collect();
            let spur = shortest_path_filtered(
                topo,
                spur_node,
                dst,
                |lid| !dead.contains(lid) && !banned_links.contains(&lid),
                // The root's regions stay banned to keep paths loopless.
                &banned_regions,
            );
            if let Ok(spur_path) = spur {
                let mut links: Vec<LinkId> = root_links.to_vec();
                links.extend_from_slice(&spur_path.links);
                let length_km = length_of(&links);
                let cand = Path { links, length_km };
                if !paths.contains(&cand) && !candidates.contains(&cand) {
                    candidates.push(cand);
                }
            }
            banned_regions.push(spur_node);
            if let Some(link) = topo.link(last.links[i]) {
                spur_node = link.dst;
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Take the shortest candidate (stable tie-break on link ids).
        candidates.sort_by(|a, b| {
            a.length_km
                .partial_cmp(&b.length_km)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.links.cmp(&b.links))
        });
        last = candidates.remove(0);
        if let Some(ties) = near_ties.as_deref_mut() {
            let bound = last.length_km * (1.0 + NEAR_TIE);
            for loser in candidates.iter().take_while(|c| c.length_km <= bound) {
                loser.links.iter().for_each(|&l| ties.insert(l));
            }
        }
        paths.push(last.clone());
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BackboneSpec;
    use entitlement_core::Rate;

    fn diamond() -> (Topology, RegionId, RegionId, RegionId, RegionId) {
        // a -> b -> d (short), a -> c -> d (long)
        let mut t = Topology::new();
        let a = t.add_region("a", true, 1.0);
        let b = t.add_region("b", true, 1.0);
        let c = t.add_region("c", true, 1.0);
        let d = t.add_region("d", true, 1.0);
        t.add_link(a, b, Rate::gbps(100.0), 0.999, 100.0).unwrap();
        t.add_link(b, d, Rate::gbps(40.0), 0.999, 100.0).unwrap();
        t.add_link(a, c, Rate::gbps(100.0), 0.999, 300.0).unwrap();
        t.add_link(c, d, Rate::gbps(100.0), 0.999, 300.0).unwrap();
        (t, a, b, c, d)
    }

    #[test]
    fn dijkstra_picks_short_route() {
        let (t, a, b, _c, d) = diamond();
        let p = shortest_path(&t, a, d, &[]).unwrap();
        assert_eq!(p.regions(&t), vec![a, b, d]);
        assert!((p.length_km - 200.0).abs() < 1e-9);
        assert!((p.bottleneck(&t).as_gbps() - 40.0).abs() < 1e-9);
        assert!((p.propagation_ms() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dead_links_force_detour() {
        let (t, a, _b, c, d) = diamond();
        let ab = t.links()[0].id;
        let p = shortest_path(&t, a, d, &[ab]).unwrap();
        assert_eq!(p.regions(&t), vec![a, c, d]);
    }

    #[test]
    fn disconnected_is_an_error() {
        let (t, a, _b, _c, d) = diamond();
        let dead: Vec<LinkId> = t.links().iter().map(|l| l.id).collect();
        assert!(matches!(
            shortest_path(&t, a, d, &dead),
            Err(EntitlementError::Disconnected(_, _))
        ));
    }

    #[test]
    fn self_path_is_empty() {
        let (t, a, ..) = diamond();
        let p = shortest_path(&t, a, a, &[]).unwrap();
        assert!(p.links.is_empty());
        assert_eq!(p.length_km, 0.0);
    }

    #[test]
    fn yen_finds_both_diamond_paths() {
        let (t, a, b, c, d) = diamond();
        let ps = k_shortest_paths(&t, a, d, 3, &[]).unwrap();
        assert_eq!(ps.len(), 2, "diamond has exactly two loopless paths");
        assert_eq!(ps[0].regions(&t), vec![a, b, d]);
        assert_eq!(ps[1].regions(&t), vec![a, c, d]);
        assert!(ps[0].length_km <= ps[1].length_km);
    }

    #[test]
    fn yen_paths_are_loopless_and_sorted_on_generated_topo() {
        let topo = BackboneSpec::small(11).build();
        let ids = topo.region_ids();
        let ps = k_shortest_paths(&topo, ids[0], ids[4], 4, &[]).unwrap();
        assert!(!ps.is_empty());
        let mut prev = 0.0;
        for p in &ps {
            assert!(p.length_km >= prev);
            prev = p.length_km;
            let regions = p.regions(&topo);
            let mut dedup = regions.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), regions.len(), "loop in path");
        }
    }
}
