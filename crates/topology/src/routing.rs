//! Greedy k-shortest-path multipath routing of a traffic matrix.
//!
//! The risk simulator asks: given the surviving topology, how much of each
//! requested pipe can the network actually carry if demands are placed
//! together? We route demands largest-first over up to `k` loopless paths,
//! consuming residual capacity — a standard TE approximation that
//! underestimates the optimum slightly but preserves ordering between
//! scenarios, which is all the availability curve needs.

use crate::graph::{Link, LinkId, Topology};
use crate::plan::RoutePlan;
use entitlement_core::{Rate, RegionId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A demand to place: `amount` from `src` to `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    /// Source region.
    pub src: RegionId,
    /// Destination region.
    pub dst: RegionId,
    /// Requested volume.
    pub amount: Rate,
}

impl Demand {
    /// The directed region pair the demand is routed between.
    pub fn pair(&self) -> (RegionId, RegionId) {
        (self.src, self.dst)
    }
}

/// Result of routing one traffic matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoutingOutcome {
    /// Admitted volume per demand, same order as the input.
    pub admitted: Vec<Rate>,
    /// Total requested volume.
    pub requested_total: Rate,
    /// Total admitted volume.
    pub admitted_total: Rate,
    /// Residual capacity per link after placement.
    pub residual: BTreeMap<LinkId, Rate>,
}

/// Route `demands` over the topology minus `dead` links, splitting each
/// demand across up to `k_paths` shortest paths, largest demands first.
pub fn route_matrix(
    topo: &Topology,
    demands: &[Demand],
    dead: &[LinkId],
    k_paths: usize,
) -> RoutingOutcome {
    plan_for(topo, demands, dead, k_paths).route(topo, 0, demands)
}

/// Like [`route_matrix`], but placement starts from `overlay` residual
/// capacities instead of the links' full capacities: links present in
/// the overlay start at the overlay value, links absent from it at full
/// capacity. This is how a second priority class is routed on what a
/// first pass left behind, without cloning and mutating the topology —
/// path selection only ever reads fiber lengths, so routing on the
/// original topology with an overlaid residual is exactly equivalent to
/// routing on a cloned topology with rewritten capacities.
pub fn route_matrix_on_residual(
    topo: &Topology,
    demands: &[Demand],
    dead: &[LinkId],
    k_paths: usize,
    overlay: &BTreeMap<LinkId, Rate>,
) -> RoutingOutcome {
    let plan = plan_for(topo, demands, dead, k_paths);
    let residual = plan.surviving(topo, 0, |l| {
        overlay.get(&l.id).copied().unwrap_or(l.capacity)
    });
    plan.route_on(0, demands, residual)
}

/// The plan-less callers' path source: a plan over the one failure set,
/// so each distinct pair of `demands` is looked up once — and searched
/// only if no earlier call with this dead set and `k` filled its row.
fn plan_for(topo: &Topology, demands: &[Demand], dead: &[LinkId], k_paths: usize) -> RoutePlan {
    let mut plan = RoutePlan::of_dead_sets(topo, std::iter::once(dead), k_paths);
    plan.ensure(topo, demands.iter().map(Demand::pair));
    plan
}

impl RoutePlan {
    /// Place `demands` on the capacity that survives unique failure set
    /// `unique`: [`route_matrix`] with the path search replaced by
    /// lookups. Every demand's pair must have been
    /// [`RoutePlan::ensure`]d.
    pub fn route(&self, topo: &Topology, unique: usize, demands: &[Demand]) -> RoutingOutcome {
        self.route_on(unique, demands, self.surviving(topo, unique, |l| l.capacity))
    }

    /// The links alive under failure set `unique`, each at `capacity`.
    fn surviving(
        &self,
        topo: &Topology,
        unique: usize,
        capacity: impl Fn(&Link) -> Rate,
    ) -> BTreeMap<LinkId, Rate> {
        topo.links()
            .iter()
            .filter(|l| !self.is_dead(unique, l.id))
            .map(|l| (l.id, capacity(l)))
            .collect()
    }

    /// The placement kernel, starting from `residual` — what an earlier
    /// placement under the same failure set left behind, say: largest
    /// demand first (ties in input order), each over its planned paths
    /// shortest first, taking the bottleneck of what `residual` still
    /// holds.
    pub fn route_on(
        &self,
        unique: usize,
        demands: &[Demand],
        mut residual: BTreeMap<LinkId, Rate>,
    ) -> RoutingOutcome {
        let mut order: Vec<usize> = (0..demands.len()).collect();
        order.sort_by(|&a, &b| {
            demands[b]
                .amount
                .as_bps()
                .total_cmp(&demands[a].amount.as_bps())
                .then_with(|| a.cmp(&b))
        });

        let mut admitted = vec![Rate::ZERO; demands.len()];
        for &i in &order {
            let d = demands[i];
            if d.amount.is_zero() || d.src == d.dst {
                admitted[i] = d.amount;
                continue;
            }
            let mut remaining = d.amount;
            // A disconnected pair has no paths: nothing admitted.
            for path in self.paths(d.src, d.dst, unique) {
                if remaining.is_zero() {
                    break;
                }
                // Bottleneck over residual capacities.
                let avail = path
                    .links
                    .iter()
                    .map(|l| residual.get(l).copied().unwrap_or(Rate::ZERO))
                    .fold(Rate(f64::INFINITY), Rate::min);
                let placed = avail.min(remaining);
                if placed.is_zero() {
                    continue;
                }
                for l in path.links {
                    if let Some(r) = residual.get_mut(l) {
                        *r = (*r - placed).clamp_zero();
                    }
                }
                admitted[i] += placed;
                remaining -= placed;
            }
        }

        let requested_total: Rate = demands.iter().map(|d| d.amount).sum();
        let admitted_total: Rate = admitted.iter().copied().sum();
        RoutingOutcome {
            admitted,
            requested_total,
            admitted_total,
            residual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BackboneSpec;
    use crate::maxflow::max_flow;
    use crate::graph::Topology;

    fn line() -> (Topology, RegionId, RegionId, RegionId) {
        let mut t = Topology::new();
        let a = t.add_region("a", true, 1.0);
        let b = t.add_region("b", true, 1.0);
        let c = t.add_region("c", true, 1.0);
        t.add_link(a, b, Rate::gbps(10.0), 0.99, 100.0).unwrap();
        t.add_link(b, c, Rate::gbps(10.0), 0.99, 100.0).unwrap();
        (t, a, b, c)
    }

    #[test]
    fn routes_within_capacity() {
        let (t, a, _b, c) = line();
        let out = route_matrix(
            &t,
            &[Demand {
                src: a,
                dst: c,
                amount: Rate::gbps(6.0),
            }],
            &[],
            2,
        );
        assert!((out.admitted[0].as_gbps() - 6.0).abs() < 1e-9);
        assert_eq!(out.admitted_total, out.requested_total);
        // Both links carry 6 of 10.
        for l in t.links() {
            assert!((out.residual[&l.id].as_gbps() - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn oversubscription_is_clipped() {
        let (t, a, _b, c) = line();
        let out = route_matrix(
            &t,
            &[Demand {
                src: a,
                dst: c,
                amount: Rate::gbps(25.0),
            }],
            &[],
            2,
        );
        assert!((out.admitted[0].as_gbps() - 10.0).abs() < 1e-9);
        assert!((out.admitted_total.as_gbps() - 10.0).abs() < 1e-9);
        assert!((out.requested_total.as_gbps() - 25.0).abs() < 1e-9);
        // Both links are full.
        for l in t.links() {
            assert!(out.residual[&l.id].as_gbps().abs() < 1e-9);
        }
    }

    #[test]
    fn largest_demand_gets_priority() {
        let (t, a, b, c) = line();
        let out = route_matrix(
            &t,
            &[
                Demand {
                    src: a,
                    dst: b,
                    amount: Rate::gbps(4.0),
                },
                Demand {
                    src: a,
                    dst: c,
                    amount: Rate::gbps(9.0),
                },
            ],
            &[],
            2,
        );
        // 9G demand placed first consumes a->b, leaving 1G for the 4G one.
        assert!((out.admitted[1].as_gbps() - 9.0).abs() < 1e-9);
        assert!((out.admitted[0].as_gbps() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn admitted_never_exceeds_max_flow() {
        let topo = BackboneSpec::small(21).build();
        let ids = topo.region_ids();
        let (s, d) = (ids[0], ids[4]);
        let mf = max_flow(&topo, s, d, &[]);
        let out = route_matrix(
            &topo,
            &[Demand {
                src: s,
                dst: d,
                amount: mf * 2.0,
            }],
            &[],
            6,
        );
        assert!(
            out.admitted[0].as_bps() <= mf.as_bps() * (1.0 + 1e-9),
            "greedy routing must not beat max-flow"
        );
        // With enough paths greedy should reach a decent share of max-flow.
        assert!(out.admitted[0].as_bps() >= mf.as_bps() * 0.5);
    }

    #[test]
    fn disconnected_demand_admits_nothing() {
        let (t, a, _b, c) = line();
        let dead: Vec<LinkId> = t.links().iter().map(|l| l.id).collect();
        let out = route_matrix(
            &t,
            &[Demand {
                src: a,
                dst: c,
                amount: Rate::gbps(1.0),
            }],
            &dead,
            2,
        );
        assert!(out.admitted[0].is_zero());
        assert!(out.admitted_total.is_zero());
    }

    #[test]
    fn zero_and_self_demands_trivially_admit() {
        let (t, a, _b, _c) = line();
        let out = route_matrix(
            &t,
            &[
                Demand {
                    src: a,
                    dst: a,
                    amount: Rate::gbps(5.0),
                },
                Demand {
                    src: a,
                    dst: a,
                    amount: Rate::ZERO,
                },
            ],
            &[],
            2,
        );
        assert!((out.admitted[0].as_gbps() - 5.0).abs() < 1e-9);
        assert!(out.admitted[1].is_zero());
        assert_eq!(out.admitted_total, out.requested_total);
    }
}
