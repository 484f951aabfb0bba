//! # entitlement-topology
//!
//! The backbone WAN substrate every granting-side component consumes:
//!
//! * [`graph`] — a capacitated, reliability-annotated region graph
//!   (data centers and PoPs connected by long-haul fiber links);
//! * [`generator`] — a synthetic Meta-like backbone generator standing in
//!   for the production topology (see DESIGN.md substitution table);
//! * [`path`] — Yen's k-shortest loopless paths over a buffered Dijkstra;
//! * [`plan`] — the k-shortest path sets of every (region pair, failure
//!   set), computed once and shared by every placement, and the one
//!   [`Placement`] of a background under all of them;
//! * [`maxflow`] — Dinic's maximum flow for feasibility checks;
//! * [`routing`] — greedy k-shortest-path multipath placement of a traffic
//!   matrix, reporting admitted volume and per-link residual capacity;
//! * [`failure`] — failure scenarios (fiber cuts) with probabilities,
//!   exhaustive single/double-cut enumeration and Monte-Carlo sampling;
//! * [`srlg`] — shared-risk link groups: conduit-correlated failures,
//!   which make WAN availability strictly harder than the independent
//!   model suggests.
//!
//! WANs, unlike data centers, have little built-in redundancy and
//! heterogeneous region capacities (paper §3.1 challenge 2); the generator
//! reproduces exactly that heterogeneity so downstream risk results keep
//! the paper's shape.

#![forbid(unsafe_code)]

pub mod failure;
pub mod generator;
pub mod graph;
pub mod maxflow;
pub mod path;
pub mod plan;
pub mod routing;
pub mod srlg;

pub use failure::{FailureScenario, ScenarioSet};
pub use generator::{BackboneSpec, RegionKind};
pub use graph::{Link, LinkId, Region, Topology};
pub use maxflow::max_flow;
pub use path::{k_shortest_paths, Path};
pub use plan::{Placement, PlannedPath, RoutePlan, RouteWork, PLAN_KEYS};
pub use routing::{route_matrix, route_matrix_on_residual, RoutingOutcome};
pub use srlg::{Conduit, SrlgMap};
