//! # entitlement-market
//!
//! Approval as a serving system: a time-sliced entitlement store plus a
//! precomputed **residual-availability index** over the approval
//! engine's risk sweep.
//!
//! The batch approval engine (paper §4.3) answers "can this quarter's
//! contracts meet their SLOs?" with a full RSS sweep per decision. A
//! serving system cannot pay that per admission. The market runs the
//! sweep **once** per region pair — against the committed contract
//! background, read at each QoS bucket's SLO — and caches the
//! SLO-feasible headroom per time slice. Steady-state [`EntitlementMarket::admit`] is then an index
//! lookup plus a decrement; the full sweep only runs when a slot is
//! cold, stale, or exhausted, and its decision re-installs the slot
//! (incremental refresh, never a wholesale rebuild on the serving
//! path).
//!
//! Two invariants carry the design:
//!
//! * **Bit-equal decisions.** Index-path and sweep-path admits read
//!   one sweep, over a placement of the committed background that the
//!   market keeps until the book or the fault set changes, so while the
//!   index is fresh an index decision is bitwise identical to the sweep
//!   decision it caches; [`pair_headroom_probe`]`(..).headroom` places
//!   the background from scratch and is the witness both are held to
//!   (property-tested in `tests/market_props.rs`).
//! * **Fail-closed freshness.** Any event that can change physical
//!   headroom (contract load, fault, fault clear) bumps the index
//!   epoch before anything else; stale slots are never served, so no
//!   admit after a fault sees pre-fault headroom.

#![forbid(unsafe_code)]

pub mod book;
pub mod explain;
pub mod index;
pub mod market;
pub mod slice;
pub mod storm;

pub use book::{EntitlementBook, EntitlementKind, MarketEntitlement, MarketKey};
pub use explain::{explain_denied, explain_request};
pub use index::{pair_headroom_probe, HeadroomProbe, IndexKey, ResidualIndex, SlotProvenance};
pub use market::{
    AdmitDecision, AdmitOutcome, AdmitPath, AdmitRequest, EntitlementMarket,
};
pub use slice::{SliceGrid, SliceId};
pub use storm::{generate_storm, run_storm_with, StormConfig, StormReport};
