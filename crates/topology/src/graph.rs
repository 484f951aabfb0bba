//! The capacitated backbone graph.
//!
//! Regions (DCs and PoPs) are vertices; long-haul fiber links are directed
//! edges annotated with capacity and availability. The availability of a
//! link models its fiber plant: longer routes cross more conduits and fail
//! more often, which is what makes WAN SLO guarantees hard (paper §3.1).

use crate::plan::{RouteMemo, RouteWork};
use entitlement_core::{EntitlementError, Rate, RegionId, Result};
use serde::{DeError, Deserialize, JsonValue, Serialize};
use std::fmt;

/// Index of a link within a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Dense index for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A backbone region vertex.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Stable region id.
    pub id: RegionId,
    /// Human-readable name, e.g. "dc-03" or "pop-11".
    pub name: String,
    /// True for data centers, false for PoPs. DCs originate service
    /// traffic; PoPs front user traffic and act as transit.
    pub is_dc: bool,
    /// Relative capacity scale of the region ("each data center is built
    /// differently", §3.1) — used by generators to size attached links.
    pub capacity_scale: f64,
}

/// A directed fiber link between two regions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Stable link id.
    pub id: LinkId,
    /// Source region.
    pub src: RegionId,
    /// Destination region.
    pub dst: RegionId,
    /// Link capacity.
    pub capacity: Rate,
    /// Long-run probability the link is up, derived from fiber length via
    /// an MTBF/MTTR model (see [`crate::generator`]).
    pub availability: f64,
    /// Fiber route length; drives both latency and failure probability.
    pub length_km: f64,
}

impl Link {
    /// One-way propagation delay in milliseconds (~5 µs/km in fiber).
    pub fn propagation_ms(&self) -> f64 {
        self.length_km * 0.005
    }
}

/// The backbone network: regions plus directed capacitated links.
///
/// A topology also remembers each region pair's shortest loopless
/// paths, and the path sets a [`RoutePlan`](crate::RoutePlan) filled
/// from them, once a plan has asked (`plan`'s memo). Clones share that
/// memo; adding a region or a link starts an empty one. Equality,
/// `Debug` and the JSON form are the regions, links and adjacency
/// alone.
#[derive(Clone, Default)]
pub struct Topology {
    regions: Vec<Region>,
    links: Vec<Link>,
    /// adjacency[region_index] = outgoing link ids.
    adjacency: Vec<Vec<LinkId>>,
    /// Path pools and plan rows of the region pairs asked for so far.
    pub(crate) memo: RouteMemo,
}

impl PartialEq for Topology {
    fn eq(&self, other: &Topology) -> bool {
        self.regions == other.regions
            && self.links == other.links
            && self.adjacency == other.adjacency
    }
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("regions", &self.regions)
            .field("links", &self.links)
            .field("adjacency", &self.adjacency)
            .finish()
    }
}

impl Serialize for Topology {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"regions\":");
        self.regions.serialize_json(out);
        out.push_str(",\"links\":");
        self.links.serialize_json(out);
        out.push_str(",\"adjacency\":");
        self.adjacency.serialize_json(out);
        out.push('}');
    }
}

impl Deserialize for Topology {
    fn deserialize_json(v: &JsonValue) -> std::result::Result<Topology, DeError> {
        let obj = serde::expect_object(v, "Topology")?;
        Ok(Topology {
            regions: serde::de_field(obj, "regions")?,
            links: serde::de_field(obj, "links")?,
            adjacency: serde::de_field(obj, "adjacency")?,
            memo: RouteMemo::default(),
        })
    }
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a region, returning its id. Regions receive consecutive ids.
    pub fn add_region(&mut self, name: impl Into<String>, is_dc: bool, capacity_scale: f64) -> RegionId {
        let id = RegionId::from_index(self.regions.len());
        self.memo.detach();
        self.regions.push(Region {
            id,
            name: name.into(),
            is_dc,
            capacity_scale,
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Add a directed link. Errors if either endpoint is unknown.
    pub fn add_link(
        &mut self,
        src: RegionId,
        dst: RegionId,
        capacity: Rate,
        availability: f64,
        length_km: f64,
    ) -> Result<LinkId> {
        if src.index() >= self.regions.len() {
            return Err(EntitlementError::UnknownRegion(src));
        }
        if dst.index() >= self.regions.len() {
            return Err(EntitlementError::UnknownRegion(dst));
        }
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        self.memo.detach();
        self.links.push(Link {
            id,
            src,
            dst,
            capacity,
            availability,
            length_km,
        });
        self.adjacency[src.index()].push(id);
        Ok(id)
    }

    /// Add a bidirectional fiber pair with identical attributes; returns
    /// (forward, reverse) link ids.
    pub fn add_duplex(
        &mut self,
        a: RegionId,
        b: RegionId,
        capacity: Rate,
        availability: f64,
        length_km: f64,
    ) -> Result<(LinkId, LinkId)> {
        let f = self.add_link(a, b, capacity, availability, length_km)?;
        let r = self.add_link(b, a, capacity, availability, length_km)?;
        Ok((f, r))
    }

    /// All regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Region ids in order.
    pub fn region_ids(&self) -> Vec<RegionId> {
        self.regions.iter().map(|r| r.id).collect()
    }

    /// Ids of data-center regions.
    pub fn dc_ids(&self) -> Vec<RegionId> {
        self.regions.iter().filter(|r| r.is_dc).map(|r| r.id).collect()
    }

    /// Look up a region.
    pub fn region(&self, id: RegionId) -> Option<&Region> {
        self.regions.get(id.index())
    }

    /// Look up a link.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.index())
    }

    /// Outgoing links of a region.
    pub fn outgoing(&self, id: RegionId) -> &[LinkId] {
        self.adjacency
            .get(id.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Total egress capacity attached to a region.
    pub fn egress_capacity(&self, id: RegionId) -> Rate {
        self.outgoing(id)
            .iter()
            .map(|l| self.links[l.index()].capacity)
            .sum()
    }

    /// Total ingress capacity attached to a region.
    pub fn ingress_capacity(&self, id: RegionId) -> Rate {
        self.links
            .iter()
            .filter(|l| l.dst == id)
            .map(|l| l.capacity)
            .sum()
    }

    /// Render the backbone in Graphviz DOT format: DCs as boxes, PoPs as
    /// ellipses, one edge per fiber pair labeled with capacity and
    /// availability. Pipe into `dot -Tsvg` to visualize a generated
    /// topology.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("graph backbone {\n  layout=neato;\n  overlap=false;\n");
        for r in &self.regions {
            let shape = if r.is_dc { "box" } else { "ellipse" };
            out.push_str(&format!(
                "  r{} [label=\"{}\\n×{:.2}\", shape={shape}];\n",
                r.id.0, r.name, r.capacity_scale
            ));
        }
        // One edge per unordered pair (duplex fibers collapse).
        let mut seen = std::collections::BTreeSet::new();
        for l in &self.links {
            let key = if l.src <= l.dst {
                (l.src, l.dst)
            } else {
                (l.dst, l.src)
            };
            if !seen.insert(key) {
                continue;
            }
            out.push_str(&format!(
                "  r{} -- r{} [label=\"{}\\nA={:.4}\"];\n",
                key.0 .0,
                key.1 .0,
                l.capacity,
                l.availability
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Region pairs whose path pool this topology has memoised: at most
    /// one per ordered pair.
    pub fn pooled_pairs(&self) -> usize {
        self.memo.pooled()
    }

    /// Bytes the memo's path pools hold (capacity, not length).
    pub fn pool_bytes(&self) -> usize {
        self.memo.pool_bytes()
    }

    /// Plan keys (`k` and a plan's failure sets) whose filled rows the
    /// memo keeps: at most [`PLAN_KEYS`](crate::plan::PLAN_KEYS).
    pub fn plan_keys(&self) -> usize {
        self.memo.keys()
    }

    /// Bytes the memo's plan rows hold, with their keys.
    pub fn row_bytes(&self) -> usize {
        self.memo.row_bytes()
    }

    /// The searches and row fills the memo has done for every plan of
    /// this topology and its clones since its graph last changed.
    pub fn route_work(&self) -> RouteWork {
        self.memo.work()
    }

    /// True if `src` can reach `dst` over links not present in `dead`.
    pub fn reachable(&self, src: RegionId, dst: RegionId, dead: &[LinkId]) -> bool {
        if src == dst {
            return true;
        }
        let mut seen = vec![false; self.regions.len()];
        let mut stack = vec![src];
        seen[src.index()] = true;
        while let Some(r) = stack.pop() {
            for &lid in self.outgoing(r) {
                if dead.contains(&lid) {
                    continue;
                }
                let nxt = self.links[lid.index()].dst;
                if nxt == dst {
                    return true;
                }
                if !seen[nxt.index()] {
                    seen[nxt.index()] = true;
                    stack.push(nxt);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut t = Topology::new();
        let a = t.add_region("a", true, 1.0);
        let b = t.add_region("b", true, 1.0);
        let c = t.add_region("c", false, 0.5);
        t.add_duplex(a, b, Rate::gbps(100.0), 0.999, 1000.0).unwrap();
        t.add_duplex(b, c, Rate::gbps(50.0), 0.998, 2000.0).unwrap();
        t.add_duplex(a, c, Rate::gbps(10.0), 0.99, 5000.0).unwrap();
        t
    }

    #[test]
    fn construction_and_lookup() {
        let t = triangle();
        assert_eq!(t.region_count(), 3);
        assert_eq!(t.link_count(), 6);
        assert_eq!(t.dc_ids().len(), 2);
        assert_eq!(t.region(RegionId(2)).unwrap().name, "c");
        assert_eq!(t.outgoing(RegionId(0)).len(), 2);
    }

    #[test]
    fn capacities_sum() {
        let t = triangle();
        assert!((t.egress_capacity(RegionId(0)).as_gbps() - 110.0).abs() < 1e-9);
        assert!((t.ingress_capacity(RegionId(2)).as_gbps() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_region_rejected() {
        let mut t = triangle();
        let err = t.add_link(RegionId(0), RegionId(9), Rate::gbps(1.0), 0.9, 1.0);
        assert_eq!(err.unwrap_err(), EntitlementError::UnknownRegion(RegionId(9)));
    }

    #[test]
    fn reachability_respects_dead_links() {
        let t = triangle();
        assert!(t.reachable(RegionId(0), RegionId(2), &[]));
        // Kill both links that can reach c: a->c (id 4) and b->c (id 2).
        let dead: Vec<LinkId> = t
            .links()
            .iter()
            .filter(|l| l.dst == RegionId(2))
            .map(|l| l.id)
            .collect();
        assert!(!t.reachable(RegionId(0), RegionId(2), &dead));
        assert!(t.reachable(RegionId(0), RegionId(0), &dead), "self always reachable");
    }

    #[test]
    fn dot_export_contains_every_region_and_fiber_pair() {
        let t = triangle();
        let dot = t.to_dot();
        assert!(dot.starts_with("graph backbone {"));
        assert!(dot.ends_with("}\n"));
        for r in t.regions() {
            assert!(dot.contains(&format!("r{} [label=\"{}", r.id.0, r.name)));
        }
        // Three duplex pairs → exactly three edges.
        assert_eq!(dot.matches(" -- ").count(), 3);
        assert!(dot.contains("shape=box"), "DCs are boxes");
        assert!(dot.contains("shape=ellipse"), "PoPs are ellipses");
    }

    #[test]
    fn propagation_scales_with_length() {
        let t = triangle();
        let l = &t.links()[0];
        assert!((l.propagation_ms() - 5.0).abs() < 1e-9, "1000 km = 5 ms");
    }
}
