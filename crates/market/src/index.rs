//! The precomputed residual-availability index.
//!
//! For each `(src, dst, bucket, slice)` the index caches the
//! SLO-feasible headroom the backbone can carry for that pair *on top
//! of* the committed background, derived from one risk sweep. A warm
//! admit is then a lookup plus a decrement — no sweep.
//!
//! **Freshness invariant**: every slot records the index epoch it was
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
use entitlement_topology::{LinkId, RoutePlan, ScenarioSet, Topology};
use std::collections::BTreeMap;
use std::fmt::Write as _;
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

/// One cached headroom slot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexSlot {
    /// Remaining SLO-feasible headroom for the key.
    pub remaining: Rate,
    /// Total granted against this key so far (survives invalidation:
    /// grants are real regardless of index freshness).
    pub consumed: Rate,
    /// Epoch the headroom was computed under.
    pub built_epoch: u64,
}

/// Why a slot's headroom is what it is: the scenario that was binding
/// when the headroom sweep ran. Kept in a side map (not inside
/// [`IndexSlot`], which stays `Copy`) and surfaced in the
/// decision-provenance labels of every admit served off the slot.
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

/// Render a dead-link set for provenance labels: `l3+l7`, or `none`.
#[must_use]
pub fn fmt_links(links: &[LinkId]) -> String {
    if links.is_empty() {
        return "none".to_string();
    }
    let mut out = String::new();
    for (i, l) in links.iter().enumerate() {
        if i > 0 {
            out.push('+');
        }
        let _ = write!(out, "{l}");
    }
    out
}

/// The residual index: headroom slots plus the freshness epoch.
#[derive(Clone, Debug, Default)]
pub struct ResidualIndex {
    slots: BTreeMap<IndexKey, IndexSlot>,
    /// One record per sweep, shared by every key that sweep installed
    /// (a warm-up sweep fills all slices of a pair and bucket).
    provenance: BTreeMap<IndexKey, Arc<SlotProvenance>>,
    epoch: u64,
}

impl ResidualIndex {
    /// Empty (cold) index.
    pub fn new() -> ResidualIndex {
        ResidualIndex::default()
    }

    /// The current freshness epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Invalidate every slot at once by advancing the epoch. O(1): the
    /// slots stay in place but [`ResidualIndex::fresh_remaining`] stops
    /// serving them.
    pub fn invalidate_all(&mut self) {
        self.epoch += 1;
    }

    /// Remaining headroom for a key — only if the slot was built under
    /// the current epoch. Stale slots are never served.
    pub fn fresh_remaining(&self, key: &IndexKey) -> Option<Rate> {
        self.slots
            .get(key)
            .filter(|s| s.built_epoch == self.epoch)
            .map(|s| s.remaining)
    }

    /// Rate already granted against a key (fresh or stale: consumption
    /// is real either way).
    pub fn consumed(&self, key: &IndexKey) -> Rate {
        self.slots.get(key).map_or(Rate::ZERO, |s| s.consumed)
    }

    /// Install (or refresh) a slot from a sweep decision: `headroom` is
    /// the physical SLO-feasible volume for the pair, from which the
    /// key's prior consumption is subtracted.
    pub fn install(&mut self, key: IndexKey, headroom: Rate) {
        let consumed = self.consumed(&key);
        self.slots.insert(
            key,
            IndexSlot {
                remaining: (headroom - consumed).clamp_zero(),
                consumed,
                built_epoch: self.epoch,
            },
        );
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
        self.install(key, headroom);
        self.provenance.insert(key, provenance);
    }

    /// Provenance of a key's slot, if a provenance-carrying install
    /// recorded one. Survives epoch bumps alongside the slot (it
    /// explains the *last computed* headroom, which is what the slot
    /// still holds).
    #[must_use]
    pub fn provenance(&self, key: &IndexKey) -> Option<&SlotProvenance> {
        self.provenance.get(key).map(Arc::as_ref)
    }

    /// Decrement a slot after a grant.
    pub fn consume(&mut self, key: &IndexKey, granted: Rate) {
        if let Some(slot) = self.slots.get_mut(key) {
            slot.remaining = (slot.remaining - granted).clamp_zero();
            slot.consumed += granted;
        }
    }

    /// The serving state of a key's slot, as a stable label: `fresh`
    /// (servable), `exhausted` (fresh but empty), `stale` (built under
    /// an older epoch), or `cold` (never built).
    #[must_use]
    pub fn slot_state(&self, key: &IndexKey) -> &'static str {
        match self.slots.get(key) {
            Some(s) if s.built_epoch == self.epoch && !s.remaining.is_zero() => "fresh",
            Some(s) if s.built_epoch == self.epoch => "exhausted",
            Some(_) => "stale",
            None => "cold",
        }
    }

    /// Number of slots currently fresh.
    pub fn fresh_len(&self) -> usize {
        self.slots
            .values()
            .filter(|s| s.built_epoch == self.epoch)
            .count()
    }

    /// Total number of slots, fresh or stale.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the index holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// The shared headroom kernel: the SLO-feasible volume the backbone can
/// carry from `src` to `dst` on top of `background`, under the given
/// scenario set.
///
/// Both the index build and the sweep fallback call exactly this
/// function with exactly the same inputs, which is what makes an
/// index-path decision bit-equal a sweep-path decision while the index
/// is fresh: the cached number *is* the sweep's number.
pub fn pair_headroom(
    topo: &Topology,
    scenarios: &ScenarioSet,
    background: &[Demand],
    src: RegionId,
    dst: RegionId,
    slo: SloTarget,
    k_paths: usize,
) -> Rate {
    pair_headroom_probe(
        topo,
        scenarios,
        background,
        src,
        dst,
        slo,
        k_paths,
        &Obs::disabled(),
    )
    .headroom
}

/// A headroom sweep's full answer: the number plus its provenance.
#[derive(Clone, Debug)]
pub struct HeadroomProbe {
    /// SLO-feasible volume for the pair.
    pub headroom: Rate,
    /// Which scenario was binding and why.
    pub provenance: SlotProvenance,
}

/// [`pair_headroom`] keeping the per-scenario evidence: the same
/// sweep, but instead of folding the samples into a curve and reading
/// one point, the binding scenario (the one at which cumulative
/// probability first covers the SLO, in admitted-volume order) is
/// identified and recorded. `probe.headroom` is bit-equal to
/// [`pair_headroom`]'s return value; the provenance is free.
///
/// Routes through a throw-away [`RoutePlan`]; the market's own sweeps
/// read the one it keeps. Telemetry (`risk` sweep/merge/scenario
/// spans, sweep histograms) lands in `obs` when enabled.
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
    let risk = headroom_risk(background, k_paths);
    let mut plan = RoutePlan::build(topo, scenarios, k_paths);
    plan.ensure(
        topo,
        background.iter().map(Demand::pair).chain([(src, dst)]),
    );
    let samples = pair_samples(topo, &plan, scenarios, &risk, src, dst, obs);
    HeadroomProbe::at_slo(&samples, scenarios, slo)
}

/// The risk knobs every headroom sweep runs with: serial and
/// deduplicated, so the `risk`/`scenario` spans are byte-stable.
pub(crate) fn headroom_risk(background: &[Demand], k_paths: usize) -> RiskConfig {
    RiskConfig {
        k_paths,
        background: background.to_vec(),
        workers: 1,
        dedup: true,
    }
}

/// The headroom sweep itself: per-scenario admitted volume of a probe
/// at the source's full egress — no admissible volume can exceed it, so
/// the curve's point at any SLO is the true headroom at that SLO. The
/// samples depend on the pair, never on the bucket: one sweep serves
/// every bucket's [`HeadroomProbe::at_slo`] read. `plan` must cover the
/// pair and the background's.
pub(crate) fn pair_samples(
    topo: &Topology,
    plan: &RoutePlan,
    scenarios: &ScenarioSet,
    risk: &RiskConfig,
    src: RegionId,
    dst: RegionId,
    obs: &Obs,
) -> RiskSamples {
    let probe = Demand {
        src,
        dst,
        amount: topo.egress_capacity(src),
    };
    sweep_plan(topo, plan, &[probe], scenarios, risk, obs)
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
                        binding_links: fmt_links(&scenario.dead_links),
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
    fn link_sets_render_for_labels() {
        assert_eq!(fmt_links(&[]), "none");
        assert_eq!(fmt_links(&[LinkId(3)]), "l3");
        assert_eq!(fmt_links(&[LinkId(3), LinkId(7)]), "l3+l7");
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
