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
    k_shortest_paths_avoiding(topo, src, dst, k, LinkMask::of(topo.link_count(), dead))
}

/// [`k_shortest_paths`] over a dead-link mask: the first `k` paths of
/// one [`Yen`] search.
pub(crate) fn k_shortest_paths_avoiding(
    topo: &Topology,
    src: RegionId,
    dst: RegionId,
    k: usize,
    dead: LinkMask,
) -> Result<Vec<Path>> {
    let mut search = Yen::new(topo, src, dst, dead)?;
    search.extend_to(k);
    search.paths.truncate(k);
    Ok(search.paths)
}

/// Dijkstra's buffers, kept across the runs of one search so a spur
/// allocates nothing but the candidate it finds.
struct Dijkstra {
    dist: Vec<f64>,
    prev: Vec<Option<LinkId>>,
    heap: BinaryHeap<HeapItem>,
    /// Regions a spur may not enter: its root's, so paths stay loopless.
    banned: Vec<bool>,
}

impl Dijkstra {
    fn new(regions: usize) -> Dijkstra {
        Dijkstra {
            dist: vec![f64::INFINITY; regions],
            prev: vec![None; regions],
            heap: BinaryHeap::new(),
            banned: vec![false; regions],
        }
    }

    /// Append the links of the shortest `src` → `dst` path that avoids
    /// `blocked` links and banned regions to `out`, and return its
    /// length; `None` when there is no such path. `src != dst`.
    fn run(
        &mut self,
        topo: &Topology,
        src: RegionId,
        dst: RegionId,
        blocked: &LinkMask,
        out: &mut Vec<LinkId>,
    ) -> Option<f64> {
        self.dist.fill(f64::INFINITY);
        self.prev.fill(None);
        self.heap.clear();
        self.dist[src.index()] = 0.0;
        self.heap.push(HeapItem {
            dist: 0.0,
            region: src,
        });
        while let Some(HeapItem { dist: d, region }) = self.heap.pop() {
            if d > self.dist[region.index()] {
                continue;
            }
            if region == dst {
                break;
            }
            for &lid in topo.outgoing(region) {
                if blocked.contains(lid) {
                    continue;
                }
                let Some(link) = topo.link(lid) else { continue };
                let to = link.dst.index();
                if self.banned[to] {
                    continue;
                }
                let nd = d + link.length_km;
                if nd < self.dist[to] {
                    self.dist[to] = nd;
                    self.prev[to] = Some(lid);
                    self.heap.push(HeapItem {
                        dist: nd,
                        region: link.dst,
                    });
                }
            }
        }
        if self.dist[dst.index()].is_infinite() {
            return None;
        }
        let start = out.len();
        let mut cur = dst;
        while cur != src {
            let Some(link) = self.prev[cur.index()].and_then(|lid| topo.link(lid)) else {
                out.truncate(start);
                return None;
            };
            out.push(link.id);
            cur = link.src;
        }
        out[start..].reverse();
        Some(self.dist[dst.index()])
    }
}

/// Shortest first, ties on link ids: the order Yen selects candidates in.
fn shorter_first(a: &Path, b: &Path) -> Ordering {
    a.length_km
        .partial_cmp(&b.length_km)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.links.cmp(&b.links))
}

/// One resumable Yen search: the loopless paths from `src` to `dst`
/// that avoid `dead`, selected shortest first, as deep as
/// [`Yen::extend_to`] has asked. Stopping at `n` paths and resuming
/// selects exactly what one run asked for more would have.
pub(crate) struct Yen<'t> {
    topo: &'t Topology,
    src: RegionId,
    dst: RegionId,
    dead: LinkMask,
    /// Selected so far, in selection order.
    paths: Vec<Path>,
    /// Spur paths not selected yet, longest first (the next selection
    /// pops off the end); no two share their links.
    candidates: Vec<Path>,
    exhausted: bool,
    dijkstra: Dijkstra,
    /// A spur's blocked links: `dead` plus the next link of every
    /// selected path sharing its root.
    blocked: LinkMask,
    spur: Vec<LinkId>,
}

impl<'t> Yen<'t> {
    /// Start a search by selecting the shortest path. Errs on an
    /// unknown region, or when no path avoids `dead`.
    pub(crate) fn new(
        topo: &'t Topology,
        src: RegionId,
        dst: RegionId,
        dead: LinkMask,
    ) -> Result<Yen<'t>> {
        let n = topo.region_count();
        if src.index() >= n {
            return Err(EntitlementError::UnknownRegion(src));
        }
        if dst.index() >= n {
            return Err(EntitlementError::UnknownRegion(dst));
        }
        let mut dijkstra = Dijkstra::new(n);
        let mut links = Vec::new();
        let length_km = if src == dst {
            0.0
        } else {
            dijkstra
                .run(topo, src, dst, &dead, &mut links)
                .ok_or(EntitlementError::Disconnected(src, dst))?
        };
        Ok(Yen {
            topo,
            src,
            dst,
            blocked: dead.clone(),
            dead,
            paths: vec![Path { links, length_km }],
            candidates: Vec::new(),
            exhausted: false,
            dijkstra,
            spur: Vec::new(),
        })
    }

    /// Whether every path avoiding `dead` has been selected.
    pub(crate) fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// The paths selected so far, shortest first, ending the search.
    pub(crate) fn into_paths(self) -> Vec<Path> {
        self.paths
    }

    /// Select paths until there are `n` or none are left.
    pub(crate) fn extend_to(&mut self, n: usize) {
        while self.paths.len() < n && !self.exhausted {
            self.select_next();
        }
    }

    /// Spur from every node of the last selected path, then select the
    /// shortest candidate.
    fn select_next(&mut self) {
        let Yen {
            topo,
            src,
            dst,
            dead,
            paths,
            candidates,
            exhausted,
            dijkstra,
            blocked,
            spur,
        } = self;
        let last = &paths[paths.len() - 1];
        let mut spur_node = *src;
        for i in 0..last.links.len() {
            let root = &last.links[..i];
            // Ban links that would recreate an already-selected path
            // with the same root.
            blocked.copy_from(dead);
            for p in paths
                .iter()
                .filter(|p| p.links.len() > i && p.links[..i] == *root)
            {
                blocked.insert(p.links[i]);
            }
            spur.clear();
            if dijkstra.run(topo, spur_node, *dst, blocked, spur).is_some() {
                let mut links = Vec::with_capacity(i + spur.len());
                links.extend_from_slice(root);
                links.extend_from_slice(spur);
                let length_km = links
                    .iter()
                    .filter_map(|l| topo.link(*l))
                    .map(|l| l.length_km)
                    .sum();
                let cand = Path { links, length_km };
                // A spur never recreates a selected path (its first link
                // is banned), so the one duplicate possible is a
                // candidate found from an earlier root.
                if let Err(at) = candidates.binary_search_by(|c| shorter_first(&cand, c)) {
                    candidates.insert(at, cand);
                }
            }
            dijkstra.banned[spur_node.index()] = true;
            if let Some(link) = topo.link(last.links[i]) {
                spur_node = link.dst;
            }
        }
        dijkstra.banned.fill(false);
        match candidates.pop() {
            Some(next) => paths.push(next),
            None => *exhausted = true,
        }
    }
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

    fn only_path(paths: Result<Vec<Path>>) -> Path {
        let mut paths = paths.unwrap();
        assert_eq!(paths.len(), 1, "k = 1 yields one path");
        paths.pop().unwrap()
    }

    #[test]
    fn dijkstra_picks_short_route() {
        let (t, a, b, _c, d) = diamond();
        let p = only_path(k_shortest_paths(&t, a, d, 1, &[]));
        assert_eq!(p.regions(&t), vec![a, b, d]);
        assert!((p.length_km - 200.0).abs() < 1e-9);
        assert!((p.bottleneck(&t).as_gbps() - 40.0).abs() < 1e-9);
        assert!((p.propagation_ms() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dead_links_force_detour() {
        let (t, a, _b, c, d) = diamond();
        let ab = t.links()[0].id;
        let p = only_path(k_shortest_paths(&t, a, d, 1, &[ab]));
        assert_eq!(p.regions(&t), vec![a, c, d]);
    }

    #[test]
    fn disconnected_is_an_error() {
        let (t, a, _b, _c, d) = diamond();
        let dead: Vec<LinkId> = t.links().iter().map(|l| l.id).collect();
        assert!(matches!(
            k_shortest_paths(&t, a, d, 1, &dead),
            Err(EntitlementError::Disconnected(_, _))
        ));
    }

    #[test]
    fn self_path_is_empty() {
        let (t, a, ..) = diamond();
        let p = only_path(k_shortest_paths(&t, a, a, 1, &[]));
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
