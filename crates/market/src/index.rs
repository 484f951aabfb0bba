//! The precomputed residual-availability index.
//!
//! For each `(src, dst, bucket, slice)` the index caches the
//! SLO-feasible headroom the backbone can carry for that pair *on top
//! of* the committed background, derived from one risk sweep. A warm
//! admit is then one array probe — no sweep, no search.
//!
//! **Layout**: the key space is dense, so a key's position is
//! arithmetic. A `regions × regions` table maps a directed pair to its
//! row; a row holds `slices × 8` cells, and a key's cell sits at
//! `slice * 8 + bucket.rank()` within it. A cell no install has reached
//! carries a sentinel epoch, so cold, stale, exhausted and fresh are
//! all read off the one cell. A key outside the table is cold, never a
//! panic. DESIGN.md §13 has the sizes.
//!
//! **Freshness invariant**: every cell records the index epoch it was
//! built under. Any event that could change physical headroom (contract
//! load, topology fault, fault clear) bumps the epoch, which makes every
//! existing slot stale at once; stale slots are *never* served — the
//! admit path falls closed to the sweep, whose decision re-installs the
//! slot under the current epoch. The index is thus only ever refreshed
//! incrementally, one decided key at a time, never rebuilt wholesale on
//! the serving path.

use crate::book::MarketKey;
use crate::slice::SliceId;
use entitlement_core::{QosBucket, Rate, RegionId, SloTarget};
use entitlement_obs::Obs;
use entitlement_risk::{sweep_plan, RiskConfig, RiskSamples};
use entitlement_topology::routing::Demand;
use entitlement_topology::{RoutePlan, ScenarioSet, Topology};
use std::sync::Arc;

/// Index key: directed region pair, bucket, slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndexKey {
    /// Source region.
    pub src: RegionId,
    /// Destination region.
    pub dst: RegionId,
    /// Approval bucket.
    pub bucket: QosBucket,
    /// Time slice.
    pub slice: SliceId,
}

impl IndexKey {
    /// The index key serving one store key's region pair.
    pub fn for_pair(src: RegionId, dst: RegionId, market: &MarketKey) -> IndexKey {
        IndexKey {
            src,
            dst,
            bucket: market.bucket,
            slice: market.slice,
        }
    }
}

/// Why a slot's headroom is what it is: the scenario that was binding
/// when the headroom sweep ran. One record per sweep, shared by every
/// cell that sweep installed, and surfaced in the decision-provenance
/// labels of every admit served off the slot.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotProvenance {
    /// Label of the binding failure scenario (e.g. `ok`,
    /// `cut(r0-r3)`), or `infeasible` when no scenario mass could meet
    /// the SLO.
    pub binding_scenario: String,
    /// The binding scenario's dead links, `+`-joined (`none` when the
    /// healthy scenario binds).
    pub binding_links: String,
    /// The binding scenario's probability.
    pub binding_probability: f64,
    /// The physical SLO-feasible headroom the sweep computed.
    pub headroom: Rate,
}

/// Cells per slice: one per approval bucket, at [`QosBucket::rank`].
const BUCKETS: usize = 8;

/// [`Cell::built`] of a cell no install has reached. Epochs count up
/// from zero one invalidation at a time and never get here.
const NEVER_BUILT: u64 = u64::MAX;

/// Pair-table entry of a directed pair that has no row.
const NO_ROW: usize = usize::MAX;

/// One cached headroom slot.
#[derive(Clone, Debug)]
struct Cell {
    /// Remaining SLO-feasible headroom for the key.
    remaining: Rate,
    /// Total granted against this key so far (survives invalidation:
    /// grants are real regardless of index freshness).
    consumed: Rate,
    /// Epoch the headroom was computed under, or [`NEVER_BUILT`].
    built: u64,
    /// Survives epoch bumps alongside the cell: it explains the *last
    /// computed* headroom, which is what the cell still holds.
    provenance: Option<Arc<SlotProvenance>>,
}

impl Cell {
    const NEVER: Cell = Cell {
        remaining: Rate::ZERO,
        consumed: Rate::ZERO,
        built: NEVER_BUILT,
        provenance: None,
    };

    /// Servable under `epoch`: built under it and not yet empty.
    fn is_fresh(&self, epoch: u64) -> bool {
        self.built == epoch && !self.remaining.is_zero()
    }

    fn state(&self, epoch: u64) -> &'static str {
        if self.is_fresh(epoch) {
            "fresh"
        } else if self.built == epoch {
            "exhausted"
        } else if self.built == NEVER_BUILT {
            "cold"
        } else {
            "stale"
        }
    }

    /// Grant `ask.min(remaining)` and decrement in place; returns
    /// `(residual_before, granted)`.
    fn grant(&mut self, ask: Rate) -> (Rate, Rate) {
        let before = self.remaining;
        let granted = ask.min(before);
        self.consume(granted);
        (before, granted)
    }

    fn consume(&mut self, granted: Rate) {
        self.remaining = (self.remaining - granted).clamp_zero();
        self.consumed += granted;
    }
}

/// The residual index: one dense table of headroom cells plus the
/// freshness epoch.
#[derive(Clone, Debug, Default)]
pub struct ResidualIndex {
    /// `regions × regions`, row-major by source: the pair's row number,
    /// or [`NO_ROW`].
    pair_rows: Vec<usize>,
    regions: usize,
    /// Slices per row; a row is `slices * BUCKETS` cells.
    slices: usize,
    cells: Vec<Cell>,
    epoch: u64,
}

impl ResidualIndex {
    /// Empty (cold) index over an empty key space. Installs grow the
    /// table to span whatever key they name, so keys that come from
    /// outside are checked before they get here — the market does, and
    /// sizes its index up front from its topology and grid.
    pub fn new() -> ResidualIndex {
        ResidualIndex::default()
    }

    /// Empty index whose pair table and row stride already span
    /// `regions` regions and `slices` slices: no install inside that
    /// space moves a cell.
    pub(crate) fn with_space(regions: usize, slices: usize) -> ResidualIndex {
        ResidualIndex {
            pair_rows: vec![NO_ROW; regions * regions],
            regions,
            slices,
            ..ResidualIndex::default()
        }
    }

    /// The current freshness epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Invalidate every slot at once by advancing the epoch. O(1): the
    /// cells stay in place but nothing serves them any more.
    pub fn invalidate_all(&mut self) {
        self.epoch += 1;
    }

    /// Where a key's cell is, if the table spans the key and its pair
    /// has a row.
    fn position(&self, key: &IndexKey) -> Option<usize> {
        let (src, dst, slice) = (key.src.index(), key.dst.index(), key.slice.0 as usize);
        if src >= self.regions || dst >= self.regions || slice >= self.slices {
            return None;
        }
        let row = *self.pair_rows.get(src * self.regions + dst)?;
        (row != NO_ROW)
            .then(|| (row * self.slices + slice) * BUCKETS + usize::from(key.bucket.rank()))
    }

    /// A key's cell, if an install has reached it.
    fn cell(&self, key: &IndexKey) -> Option<&Cell> {
        self.cells
            .get(self.position(key)?)
            .filter(|c| c.built != NEVER_BUILT)
    }

    fn cell_mut(&mut self, key: &IndexKey) -> Option<&mut Cell> {
        let at = self.position(key)?;
        self.cells.get_mut(at).filter(|c| c.built != NEVER_BUILT)
    }

    /// Grow the table until it spans `key` and the key's pair has a
    /// row. Cells move only when a dimension actually grows.
    fn cover(&mut self, key: &IndexKey) {
        let (src, dst, slice) = (key.src.index(), key.dst.index(), key.slice.0 as usize);
        let regions = self.regions.max(src.max(dst) + 1);
        if regions > self.regions {
            let mut pair_rows = vec![NO_ROW; regions * regions];
            let old_rows = self.pair_rows.chunks(self.regions.max(1));
            for (old, new) in old_rows.zip(pair_rows.chunks_mut(regions)) {
                new[..old.len()].copy_from_slice(old);
            }
            self.pair_rows = pair_rows;
            self.regions = regions;
        }
        if slice >= self.slices {
            let (old_stride, stride) = (self.slices * BUCKETS, (slice + 1) * BUCKETS);
            let rows = self.cells.len() / old_stride.max(1);
            let mut old = std::mem::take(&mut self.cells).into_iter();
            self.cells.reserve_exact(rows * stride);
            for _ in 0..rows {
                self.cells.extend(old.by_ref().take(old_stride));
                self.cells
                    .resize(self.cells.len() + stride - old_stride, Cell::NEVER);
            }
            self.slices = slice + 1;
        }
        let stride = self.slices * BUCKETS;
        let row = self.pair_rows.get_mut(src * self.regions + dst);
        if let Some(row) = row.filter(|row| **row == NO_ROW) {
            *row = self.cells.len() / stride;
            self.cells.resize(self.cells.len() + stride, Cell::NEVER);
        }
    }

    /// (Re)build a key's cell from a sweep decision under the current
    /// epoch, growing the table to reach it. A provenance record, if
    /// one comes along, replaces the cell's.
    fn build(
        &mut self,
        key: &IndexKey,
        headroom: Rate,
        provenance: Option<Arc<SlotProvenance>>,
    ) -> Option<&mut Cell> {
        self.cover(key);
        let at = self.position(key)?;
        let cell = self.cells.get_mut(at)?;
        cell.remaining = (headroom - cell.consumed).clamp_zero();
        cell.built = self.epoch;
        if provenance.is_some() {
            cell.provenance = provenance;
        }
        Some(cell)
    }

    /// Remaining headroom for a key — only if the slot was built under
    /// the current epoch. Stale slots are never served.
    pub fn fresh_remaining(&self, key: &IndexKey) -> Option<Rate> {
        self.cell(key)
            .filter(|c| c.built == self.epoch)
            .map(|c| c.remaining)
    }

    /// Rate already granted against a key (fresh or stale: consumption
    /// is real either way).
    pub fn consumed(&self, key: &IndexKey) -> Rate {
        self.cell(key).map_or(Rate::ZERO, |c| c.consumed)
    }

    /// Install (or refresh) a slot from a sweep decision: `headroom` is
    /// the physical SLO-feasible volume for the pair, from which the
    /// key's prior consumption is subtracted.
    pub fn install(&mut self, key: IndexKey, headroom: Rate) {
        self.build(&key, headroom, None);
    }

    /// [`ResidualIndex::install`] plus the sweep's provenance record,
    /// so later index-path admits can still name the binding scenario
    /// without re-sweeping.
    pub fn install_with(&mut self, key: IndexKey, headroom: Rate, provenance: SlotProvenance) {
        self.install_shared(key, headroom, Arc::new(provenance));
    }

    /// [`ResidualIndex::install_with`] for a record several keys share:
    /// the index keeps the one allocation, however many slices point
    /// at it and however often the index is cloned.
    pub fn install_shared(
        &mut self,
        key: IndexKey,
        headroom: Rate,
        provenance: Arc<SlotProvenance>,
    ) {
        self.build(&key, headroom, Some(provenance));
    }

    /// The sweep path's one walk: [`ResidualIndex::install_with`], then
    /// grant `ask` from whatever the rebuilt slot holds. Returns
    /// `(residual_before, granted)`.
    pub(crate) fn install_serve(
        &mut self,
        key: IndexKey,
        headroom: Rate,
        provenance: SlotProvenance,
        ask: Rate,
    ) -> (Rate, Rate) {
        self.build(&key, headroom, Some(Arc::new(provenance)))
            .map_or((Rate::ZERO, Rate::ZERO), |cell| cell.grant(ask))
    }

    /// The index path's one probe: classify the key's slot and, if it
    /// is fresh, grant `ask.min(remaining)` and decrement in place.
    /// Returns `(residual_before, granted)`.
    ///
    /// # Errors
    ///
    /// The [`ResidualIndex::slot_state`] label of a slot that cannot
    /// serve (`exhausted`, `stale`, `cold`); the slot is untouched.
    pub fn serve(&mut self, key: &IndexKey, ask: Rate) -> Result<(Rate, Rate), &'static str> {
        let epoch = self.epoch;
        match self.position(key).and_then(|at| self.cells.get_mut(at)) {
            Some(cell) if cell.is_fresh(epoch) => Ok(cell.grant(ask)),
            Some(cell) => Err(cell.state(epoch)),
            None => Err("cold"),
        }
    }

    /// Provenance of a key's slot, if a provenance-carrying install
    /// recorded one. Survives epoch bumps alongside the slot.
    #[must_use]
    pub fn provenance(&self, key: &IndexKey) -> Option<&SlotProvenance> {
        self.cell(key)?.provenance.as_deref()
    }

    /// Decrement a slot after a grant.
    pub fn consume(&mut self, key: &IndexKey, granted: Rate) {
        if let Some(cell) = self.cell_mut(key) {
            cell.consume(granted);
        }
    }

    /// The serving state of a key's slot, as a stable label: `fresh`
    /// (servable), `exhausted` (fresh but empty), `stale` (built under
    /// an older epoch), or `cold` (never built).
    #[must_use]
    pub fn slot_state(&self, key: &IndexKey) -> &'static str {
        self.cell(key).map_or("cold", |c| c.state(self.epoch))
    }

    /// Number of slots currently fresh.
    pub fn fresh_len(&self) -> usize {
        self.cells.iter().filter(|c| c.built == self.epoch).count()
    }

    /// Total number of slots, fresh or stale.
    pub fn len(&self) -> usize {
        self.cells.iter().filter(|c| c.built != NEVER_BUILT).count()
    }

    /// Whether the index holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A headroom sweep's full answer: the number plus its provenance.
#[derive(Clone, Debug)]
pub struct HeadroomProbe {
    /// SLO-feasible volume for the pair.
    pub headroom: Rate,
    /// Which scenario was binding and why.
    pub provenance: SlotProvenance,
}

/// The headroom of one pair, from scratch: the SLO-feasible volume the
/// backbone can carry from `src` to `dst` on top of `background`, under
/// the given scenario set, plus its provenance — the binding scenario
/// (the one at which cumulative probability first covers the SLO, in
/// admitted-volume order).
///
/// The sweep routes a probe at the source's full egress — no
/// admissible volume can exceed it, so the curve's point at any SLO is
/// the true headroom at that SLO — on the background placed under each
/// failure set. The market's warm-up and sweep fallback run the same
/// sweep on a placement they keep between sweeps; this function builds
/// a fresh [`RoutePlan`] and places the background on it, so it is the
/// independent witness an index-path or sweep-path decision is held to
/// (bit-equal while the index is fresh). The plan's rows are the
/// topology's: on the market's topology and scenario set it searches
/// nothing, but it places the background again on every call.
/// Telemetry (`risk` sweep/merge/scenario spans) lands in `obs` when
/// enabled.
#[allow(clippy::too_many_arguments)]
pub fn pair_headroom_probe(
    topo: &Topology,
    scenarios: &ScenarioSet,
    background: &[Demand],
    src: RegionId,
    dst: RegionId,
    slo: SloTarget,
    k_paths: usize,
    obs: &Obs,
) -> HeadroomProbe {
    let risk = headroom_risk(k_paths);
    let mut plan = RoutePlan::build(topo, scenarios, k_paths);
    let placed = plan.place(topo, background);
    plan.ensure(topo, [(src, dst)]);
    let probe = Demand {
        src,
        dst,
        amount: topo.egress_capacity(src),
    };
    let samples = sweep_plan(
        &plan,
        &placed,
        &[probe],
        scenarios,
        risk.workers,
        risk.dedup,
        obs,
    );
    HeadroomProbe::at_slo(&samples, scenarios, slo)
}

/// The risk knobs every headroom sweep runs with: serial and
/// deduplicated, so the `risk`/`scenario` spans are byte-stable.
pub(crate) fn headroom_risk(k_paths: usize) -> RiskConfig {
    RiskConfig {
        k_paths,
        background: Vec::new(),
        workers: 1,
        dedup: true,
    }
}

impl HeadroomProbe {
    /// Read one pair's headroom sweep at an SLO.
    pub(crate) fn at_slo(
        samples: &RiskSamples,
        scenarios: &ScenarioSet,
        slo: SloTarget,
    ) -> HeadroomProbe {
        match samples.binding_scenario(0, slo.availability()) {
            Some(b) => {
                let scenario = &scenarios.scenarios[b];
                HeadroomProbe {
                    headroom: samples.samples[0][b].0,
                    provenance: SlotProvenance {
                        binding_scenario: scenario.label.clone(),
                        binding_links: scenario.links_label(),
                        binding_probability: scenario.probability,
                        headroom: samples.samples[0][b].0,
                    },
                }
            }
            None => HeadroomProbe {
                headroom: Rate::ZERO,
                provenance: SlotProvenance {
                    binding_scenario: "infeasible".to_string(),
                    binding_links: "none".to_string(),
                    binding_probability: 0.0,
                    headroom: Rate::ZERO,
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_core::{QosBand, QosClass};

    fn key(slice: u32) -> IndexKey {
        IndexKey {
            src: RegionId(0),
            dst: RegionId(1),
            bucket: QosBucket {
                class: QosClass::C1,
                band: QosBand::Low,
            },
            slice: SliceId(slice),
        }
    }

    #[test]
    fn stale_slots_are_never_served() {
        let mut idx = ResidualIndex::new();
        idx.install(key(0), Rate::gbps(100.0));
        assert_eq!(idx.fresh_remaining(&key(0)), Some(Rate::gbps(100.0)));
        idx.invalidate_all();
        assert_eq!(idx.fresh_remaining(&key(0)), None, "stale after epoch bump");
        assert_eq!(idx.len(), 1, "the slot itself survives");
        assert_eq!(idx.fresh_len(), 0);
    }

    #[test]
    fn consumption_survives_invalidation_and_reinstall() {
        let mut idx = ResidualIndex::new();
        idx.install(key(0), Rate::gbps(100.0));
        idx.consume(&key(0), Rate::gbps(30.0));
        assert_eq!(idx.fresh_remaining(&key(0)), Some(Rate::gbps(70.0)));
        idx.invalidate_all();
        // Re-install with reduced physical headroom: prior grants still
        // count against it.
        idx.install(key(0), Rate::gbps(50.0));
        assert_eq!(idx.fresh_remaining(&key(0)), Some(Rate::gbps(20.0)));
        assert_eq!(idx.consumed(&key(0)), Rate::gbps(30.0));
    }

    #[test]
    fn provenance_rides_installs_and_survives_epochs() {
        let mut idx = ResidualIndex::new();
        assert_eq!(idx.provenance(&key(0)), None);
        let prov = SlotProvenance {
            binding_scenario: "cut(r0-r3)".to_string(),
            binding_links: "l3+l7".to_string(),
            binding_probability: 0.01,
            headroom: Rate::gbps(40.0),
        };
        idx.install_with(key(0), Rate::gbps(40.0), prov.clone());
        assert_eq!(idx.provenance(&key(0)), Some(&prov));
        idx.invalidate_all();
        // The slot is stale but the explanation of its last headroom
        // computation remains addressable.
        assert_eq!(idx.provenance(&key(0)), Some(&prov));
    }

    #[test]
    fn a_key_outside_the_table_is_cold() {
        let mut idx = ResidualIndex::with_space(2, 3);
        idx.install(key(2), Rate::gbps(10.0));
        let far = [
            key(3),
            key(u32::MAX),
            IndexKey {
                src: RegionId(u16::MAX),
                ..key(0)
            },
            IndexKey {
                dst: RegionId(2),
                ..key(0)
            },
        ];
        for k in &far {
            assert_eq!(idx.slot_state(k), "cold");
            assert_eq!(idx.serve(k, Rate::gbps(1.0)), Err("cold"));
            idx.consume(k, Rate::gbps(1.0));
            assert_eq!(idx.consumed(k), Rate::ZERO);
            assert_eq!(idx.fresh_remaining(k), None);
            assert_eq!(idx.provenance(k), None);
        }
        assert_eq!(idx.len(), 1);
        // A never-built neighbour inside the table is just as cold.
        assert_eq!(idx.serve(&key(1), Rate::gbps(1.0)), Err("cold"));
        assert_eq!(
            idx.serve(&key(2), Rate::gbps(4.0)),
            Ok((Rate::gbps(10.0), Rate::gbps(4.0)))
        );
    }

    #[test]
    fn consume_clamps_at_zero() {
        let mut idx = ResidualIndex::new();
        idx.install(key(1), Rate::gbps(10.0));
        idx.consume(&key(1), Rate::gbps(25.0));
        assert_eq!(idx.fresh_remaining(&key(1)), Some(Rate::ZERO));
        assert_eq!(idx.consumed(&key(1)), Rate::gbps(25.0));
    }
}
