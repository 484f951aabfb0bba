//! The entitlement market: approval as a serving system.
//!
//! [`EntitlementMarket`] turns the batch approval engine into an
//! admission server. Contracts load into the [`EntitlementBook`] and
//! become risk-sweep background; [`EntitlementMarket::warm`] runs one
//! upfront sweep per region pair, reads it at every bucket's SLO, and
//! installs the resulting SLO-feasible headroom into the
//! [`ResidualIndex`] for every time slice. A steady-state [`EntitlementMarket::admit`] is then one
//! probe of that table — classify, grant, decrement in a single
//! borrow — and one hashed slot of the grant ledger; only a cold,
//! stale or exhausted slot falls back to the full RSS sweep (the same
//! sweep the warm-up ran), whose decision re-installs the slot — the
//! index refreshes incrementally from decisions, never from scratch.
//! Warm-up and fallback sweeps read one [`RoutePlan`], kept for the
//! life of the effective scenario set, so neither searches a path
//! twice; its rows outlive it on the topology (which keeps the rows of
//! the last few sets asked for), so a heal, or the same fault again,
//! finds them filled. They also read one placement of the committed
//! background under each failure set of the plan, kept until the book
//! or the effective set changes, so no sweep places it again.
//! [`crate::index::pair_headroom_probe`] places it from scratch and is
//! the independent witness the tests hold those sweeps to.
//!
//! **Fail-closed**: a topology fault ([`EntitlementMarket::apply_fault`])
//! bumps the index epoch before anything else, so no admit after the
//! fault can be served pre-fault headroom. The first admit per key after
//! a fault pays for a sweep against the degraded scenario set.

use crate::book::{EntitlementBook, MarketEntitlement, MarketKey};
use crate::index::{headroom_risk, HeadroomProbe, IndexKey, ResidualIndex};
use crate::slice::{SliceGrid, SliceId};
use entitlement_approval::{negotiate_scenarios, Agreement, ApprovalConfig, ServicePolicy};
use entitlement_core::{NpgId, QosBucket, Rate, RegionId, SloTarget};
use entitlement_hose::HoseRequest;
use entitlement_obs::{key, Key, Obs, SpanTimer};
use entitlement_risk::{sweep_plan, RiskConfig, RiskSamples};
use entitlement_topology::routing::Demand;
use entitlement_topology::{FailureScenario, LinkId, Placement, RoutePlan, ScenarioSet, Topology};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// One admission request: an NPG asking for rate on a directed region
/// pair, in one bucket and one time slice.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AdmitRequest {
    /// Who is asking.
    pub npg: NpgId,
    /// Approval bucket.
    pub bucket: QosBucket,
    /// Time slice the entitlement should cover.
    pub slice: SliceId,
    /// Source region.
    pub src: RegionId,
    /// Destination region.
    pub dst: RegionId,
    /// Requested rate.
    pub ask: Rate,
}

/// Which serving path decided an admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmitPath {
    /// Fresh index slot: lookup + decrement, no sweep.
    Index,
    /// Cold/stale/exhausted slot: full RSS sweep, slot re-installed.
    Sweep,
}

impl AdmitPath {
    /// Stable label for metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            AdmitPath::Index => "index",
            AdmitPath::Sweep => "sweep",
        }
    }
}

/// The admission outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmitOutcome {
    /// The full ask was granted.
    Granted,
    /// Some, but not all, of the ask was granted.
    Partial,
    /// Nothing was granted.
    Denied,
}

impl AdmitOutcome {
    /// Stable label for metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            AdmitOutcome::Granted => "granted",
            AdmitOutcome::Partial => "partial",
            AdmitOutcome::Denied => "denied",
        }
    }
}

/// One admission decision.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AdmitDecision {
    /// Rate actually granted (`ask.min(available)`).
    pub granted: Rate,
    /// Granted / partial / denied.
    pub outcome: AdmitOutcome,
    /// Which serving path produced the decision.
    pub path: AdmitPath,
    /// Residual headroom in the served slot before this decision.
    pub residual_before: Rate,
    /// Residual after the decrement: exactly
    /// `(residual_before − granted).clamp_zero()` — the watchdog's
    /// W0103 monitor holds every decision to that equation.
    pub residual_after: Rate,
}

impl AdmitDecision {
    fn new(ask: Rate, granted: Rate, path: AdmitPath, residual_before: Rate) -> AdmitDecision {
        let outcome = if granted.is_zero() {
            AdmitOutcome::Denied
        } else if granted.as_bps() >= ask.as_bps() {
            AdmitOutcome::Granted
        } else {
            AdmitOutcome::Partial
        };
        AdmitDecision {
            granted,
            outcome,
            path,
            residual_before,
            residual_after: (residual_before - granted).clamp_zero(),
        }
    }
}

/// The serving-side entitlement market.
#[derive(Clone, Debug)]
pub struct EntitlementMarket {
    topo: Topology,
    grid: SliceGrid,
    config: ApprovalConfig,
    /// Enumerated once at construction; never re-enumerated on the
    /// serving path.
    scenarios: ScenarioSet,
    /// `scenarios` with the currently dead links appended to every
    /// scenario's failure set. Rebuilt only when faults change.
    effective: ScenarioSet,
    /// Path sets under `effective`, filled pair by pair as sweeps ask
    /// and replaced — empty — whenever `effective` is. Shared by clones
    /// until one of them needs a pair the others have not routed.
    plan: Arc<RoutePlan>,
    /// The committed background placed under each unique failure set of
    /// `plan`: what every sweep routes its probe on. Built by
    /// `ensure_routes`, dropped whenever the background or `effective`
    /// changes. Shared by clones; one that takes a fault or a book
    /// drops its own handle and leaves the others' placement alone.
    placed: Option<Placement>,
    dead_links: Vec<LinkId>,
    book: EntitlementBook,
    /// Headroom-sweep knobs; the background is the committed reserving
    /// contracts, merged by `(src, dst)`.
    risk: RiskConfig,
    index: ResidualIndex,
    /// Rates granted through `admit`, for reporting: one hashed slot
    /// per key, added to in admission order, so a key's sum has the
    /// bits an ordered map's had. Nothing iterates it, so the map's
    /// order never reaches an output. Its hasher is fixed, not seeded
    /// (`LedgerHasher`): crafted NPG ids can make keys collide and
    /// slow the map down, never change an answer.
    grants: HashMap<MarketKey, Rate, BuildHasherDefault<LedgerHasher>>,
    /// Monotone per-market admission ordinal; becomes the stable
    /// `request` label on `market`/`admit` spans so explain/summarize
    /// can address one decision without positional indexing. Counts
    /// every admit, traced or not, so ordinals match across runs.
    admit_seq: u64,
    /// What [`EntitlementMarket::last_admit_ms`] reads.
    last_admit_ms: f64,
}

impl EntitlementMarket {
    /// Build a market over a topology. Scenario enumeration — the
    /// expensive, combinatorial part — happens once, here.
    pub fn new(topo: Topology, grid: SliceGrid, config: ApprovalConfig) -> EntitlementMarket {
        let scenarios = ScenarioSet::enumerate(&topo, config.max_cuts);
        let effective = scenarios.clone();
        let plan = Arc::new(RoutePlan::build(&topo, &effective, config.k_paths));
        let risk = headroom_risk(config.k_paths);
        let index = ResidualIndex::with_space(topo.region_count(), grid.slice_count() as usize);
        EntitlementMarket {
            topo,
            grid,
            config,
            scenarios,
            effective,
            plan,
            placed: None,
            dead_links: Vec::new(),
            book: EntitlementBook::new(),
            risk,
            index,
            grants: HashMap::default(),
            admit_seq: 0,
            last_admit_ms: 0.0,
        }
    }

    /// The slice grid admissions are keyed by.
    pub fn grid(&self) -> SliceGrid {
        self.grid
    }

    /// The topology being served.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The committed book.
    pub fn book(&self) -> &EntitlementBook {
        &self.book
    }

    /// The residual index (for inspection and tests).
    pub fn index(&self) -> &ResidualIndex {
        &self.index
    }

    /// Links currently dead.
    pub fn dead_links(&self) -> &[LinkId] {
        &self.dead_links
    }

    /// The route plan the market's sweeps read (for inspection and
    /// tests).
    pub fn route_plan(&self) -> &RoutePlan {
        &self.plan
    }

    /// Total rate granted through `admit` so far under one key: one
    /// hashed lookup, O(1) expected.
    pub fn granted(&self, key: &MarketKey) -> Rate {
        self.grants.get(key).copied().unwrap_or(Rate::ZERO)
    }

    /// The SLO an admission in `bucket` is approved against: the
    /// class's default availability target.
    pub fn slo_for(bucket: QosBucket) -> SloTarget {
        SloTarget(bucket.class.default_slo())
    }

    /// Load committed contracts. They cover every slice of the grid,
    /// reserving kinds join the risk-sweep background, and the index is
    /// invalidated: committed load changes physical headroom.
    pub fn load_contracts(&mut self, contracts: &[MarketEntitlement]) {
        for c in contracts {
            self.book.commit_all_slices(&self.grid, c);
        }
        self.risk.background = self.book.reserved_background();
        self.placed = None;
        self.index.invalidate_all();
    }

    /// Mark links dead. The epoch bump comes FIRST: between the fault
    /// and the next per-key sweep no admit may be served pre-fault
    /// headroom (fail-closed).
    pub fn apply_fault(&mut self, links: &[LinkId]) {
        self.index.invalidate_all();
        for l in links {
            if !self.dead_links.contains(l) {
                self.dead_links.push(*l);
            }
        }
        self.set_effective(self.effective_scenarios());
    }

    /// Clear all faults. Headroom may have *grown*, so the index is
    /// invalidated here too.
    pub fn clear_faults(&mut self) {
        self.index.invalidate_all();
        self.dead_links.clear();
        self.set_effective(self.scenarios.clone());
    }

    /// Make `links` the dead set — the fault schedule's one entry
    /// point. A no-op while the set is unchanged, compared as a set
    /// (order and repeats do not count), so a caller may ask before
    /// every admit; a change clears, then applies `links` in the given
    /// order, so the epoch moves exactly as the two calls would move it
    /// by hand.
    pub fn set_faults(&mut self, links: &[LinkId]) {
        let dead = &self.dead_links;
        if links.iter().all(|l| dead.contains(l)) && dead.iter().all(|l| links.contains(l)) {
            return;
        }
        self.clear_faults();
        if !links.is_empty() {
            self.apply_fault(links);
        }
    }

    /// Swap the effective scenario set, and with it the route plan and
    /// the background placed on it: a path set is only valid for the
    /// failure sets it was searched under. The new plan starts empty;
    /// the topology still holds the rows an earlier plan of the same
    /// set filled (the healthy plan's, after a heal), so taking a pair
    /// in is then a lookup.
    fn set_effective(&mut self, effective: ScenarioSet) {
        self.plan = Arc::new(RoutePlan::build(&self.topo, &effective, self.config.k_paths));
        self.placed = None;
        self.effective = effective;
    }

    /// Make the plan cover `pairs`, and place the background under
    /// every failure set unless it already is for the current book and
    /// effective set. Clones share the plan; only one that needs a pair
    /// nobody has routed yet, or has to place a background, copies it.
    fn ensure_routes(&mut self, pairs: &[(RegionId, RegionId)]) -> Placement {
        if !self.plan.covers(pairs.iter().copied()) {
            Arc::make_mut(&mut self.plan).ensure(&self.topo, pairs.iter().copied());
        }
        let (topo, plan, background) = (&self.topo, &mut self.plan, &self.risk.background);
        self.placed
            .get_or_insert_with(|| Arc::make_mut(plan).place(topo, background))
            .clone()
    }

    /// The enumerated scenario set with every dead link appended to
    /// every scenario (probabilities unchanged: the dead links are a
    /// certainty, not a scenario).
    fn effective_scenarios(&self) -> ScenarioSet {
        if self.dead_links.is_empty() {
            return self.scenarios.clone();
        }
        let scenarios = self
            .scenarios
            .scenarios
            .iter()
            .map(|s| {
                let mut dead = s.dead_links.clone();
                for l in &self.dead_links {
                    if !dead.contains(l) {
                        dead.push(*l);
                    }
                }
                FailureScenario {
                    dead_links: dead,
                    probability: s.probability,
                    label: s.label.clone(),
                }
            })
            .collect();
        ScenarioSet { scenarios }
    }

    /// Warm the index: one headroom sweep per DC pair, read at each
    /// bucket's SLO and installed for every slice of the grid. This is
    /// the single upfront risk sweep that makes steady-state admits
    /// index hits.
    pub fn warm(&mut self, buckets: &[QosBucket], obs: &Obs) {
        let span = obs
            .span("market", "warm")
            .label_fmt(key!("buckets"), buckets.len());
        let dcs = self.topo.dc_ids();
        let pairs: Vec<(RegionId, RegionId)> = dcs
            .iter()
            .flat_map(|&src| dcs.iter().map(move |&dst| (src, dst)))
            .filter(|(src, dst)| src != dst)
            .collect();
        let placed = self.ensure_routes(&pairs);
        for (src, dst) in pairs {
            let samples = self.sweep_pair(src, dst, &placed, obs);
            for &bucket in buckets {
                let probe =
                    HeadroomProbe::at_slo(&samples, &self.effective, Self::slo_for(bucket));
                let provenance = Arc::new(probe.provenance);
                for slice in self.grid.slices() {
                    self.index.install_shared(
                        IndexKey {
                            src,
                            dst,
                            bucket,
                            slice,
                        },
                        probe.headroom,
                        Arc::clone(&provenance),
                    );
                }
            }
        }
        span.finish();
    }

    /// One pair's headroom sweep over the market's own plan, which
    /// must already cover it, on the background `placed` on that plan:
    /// per-scenario admitted volume of a probe at the source's full
    /// egress — no admissible volume can exceed it, so
    /// the curve's point at any SLO is the true headroom at that SLO.
    /// The samples depend on the pair, never on the bucket: one sweep
    /// serves every bucket's [`HeadroomProbe::at_slo`] read.
    fn sweep_pair(
        &self,
        src: RegionId,
        dst: RegionId,
        placed: &Placement,
        obs: &Obs,
    ) -> RiskSamples {
        let probe = Demand {
            src,
            dst,
            amount: self.topo.egress_capacity(src),
        };
        sweep_plan(
            &self.plan,
            placed,
            &[probe],
            &self.effective,
            self.risk.workers,
            self.risk.dedup,
            obs,
        )
    }

    /// Admit without telemetry.
    pub fn admit(&mut self, req: &AdmitRequest) -> AdmitDecision {
        self.admit_obs(req, &Obs::disabled())
    }

    /// Which part of an ask cannot be served at all: its `ask` (a
    /// negative or non-finite rate), `slice` (outside the grid) or
    /// `region` (outside the topology). An ask is outside input;
    /// nothing is sized, swept or decremented from one this names.
    fn rejection(&self, req: &AdmitRequest) -> Option<&'static str> {
        let regions = self.topo.region_count();
        if !(0.0..f64::INFINITY).contains(&req.ask.as_bps()) {
            Some("ask")
        } else if req.slice.0 >= self.grid.slice_count() {
            Some("slice")
        } else if req.src.index() >= regions || req.dst.index() >= regions {
            Some("region")
        } else {
            None
        }
    }

    /// Serve one admission. Index path when the slot is fresh and has
    /// residual; otherwise the sweep path recomputes the pair's
    /// headroom with the *same sweep* the warm-up ran, on the same
    /// placed background, and re-installs the slot under the current
    /// epoch — so an index decision is bit-equal to the sweep decision
    /// it caches.
    ///
    /// An ask that cannot be served at all — a negative or non-finite
    /// rate, a slice outside the grid, a region outside the topology —
    /// is `Denied` with a zero grant and zero residuals before the
    /// table, the ledger or the plan sees it. It takes its `request`
    /// ordinal and, traced, its `market`/`admit` span (labelled
    /// `rejected`) like any other, and reports [`AdmitPath::Index`]: it
    /// was decided in O(1) and no sweep ran. Its latency is two clock
    /// reads, the span's open and close (or untraced, the same two).
    pub fn admit_obs(&mut self, req: &AdmitRequest, obs: &Obs) -> AdmitDecision {
        let seq = self.admit_seq;
        self.admit_seq += 1;
        let traced = obs.enabled();
        let t0 = if traced { 0 } else { obs.clock.now_ms() };
        let mut span = obs.span("market", "admit");
        let key = IndexKey {
            src: req.src,
            dst: req.dst,
            bucket: req.bucket,
            slice: req.slice,
        };
        let epoch = self.index.epoch();
        let rejected = self.rejection(req);
        // The one borrow of the table an index-path admit makes.
        let probe = match rejected {
            None => self.index.serve(&key, req.ask),
            Some(_) => Err("rejected"),
        };
        let (path, residual_before, granted) = match probe {
            Ok((remaining, granted)) => (AdmitPath::Index, remaining, granted),
            Err(_) if rejected.is_some() => (AdmitPath::Index, Rate::ZERO, Rate::ZERO),
            Err(slot_state) => {
                // Cold, stale, or exhausted: fall closed to the sweep.
                let fallback = obs
                    .span("market", "sweep_fallback")
                    .label(key!("reason"), slot_state);
                let placed = self.ensure_routes(&[(req.src, req.dst)]);
                let probe = HeadroomProbe::at_slo(
                    &self.sweep_pair(req.src, req.dst, &placed, obs),
                    &self.effective,
                    Self::slo_for(req.bucket),
                );
                fallback.finish();
                let (available, granted) =
                    self.index
                        .install_serve(key, probe.headroom, probe.provenance, req.ask);
                (AdmitPath::Sweep, available, granted)
            }
        };
        let decision = AdmitDecision::new(req.ask, granted, path, residual_before);
        if !decision.granted.is_zero() {
            let mkey = MarketKey {
                npg: req.npg,
                bucket: req.bucket,
                slice: req.slice,
            };
            *self.grants.entry(mkey).or_insert(Rate::ZERO) += decision.granted;
        }
        if traced {
            // Decision-provenance ledger: everything `entitlectl
            // explain` and the watchdog need, carried on the span itself
            // so the trace alone is sufficient evidence, and the slot
            // state the probe found (`state`, last in key order). The
            // binding scenario and the slot's physical headroom are
            // written only when the ask was not granted in full: a full
            // grant's verdict never reads them. Written once, in key
            // order, shortest-round-trip decimal bps (the index's unit,
            // so a reader gets its bits back). The sink formats a float
            // once per value; only the `NaN` or `inf` of a rejected ask
            // has to be spelled out.
            let prov = match rejected {
                None if decision.outcome != AdmitOutcome::Granted => self.index.provenance(&key),
                _ => None,
            };
            let float = |span: &mut SpanTimer, key: Key, v: f64| {
                if v.is_finite() {
                    span.add_label_f64(key, v);
                } else {
                    span.add_label_fmt(key, v);
                }
            };
            float(&mut span, key!("ask_bps"), req.ask.as_bps());
            if let Some(prov) = prov {
                span.add_label(key!("binding_links"), &prov.binding_links);
                float(&mut span, key!("binding_p"), prov.binding_probability);
                span.add_label(key!("binding_scenario"), &prov.binding_scenario);
            }
            req.bucket.add_to(&mut span, key!("bucket"));
            req.dst.add_to(&mut span, key!("dst"));
            epoch.add_to(&mut span, key!("epoch"));
            float(&mut span, key!("granted_bps"), decision.granted.as_bps());
            if let Some(prov) = prov {
                float(&mut span, key!("headroom_bps"), prov.headroom.as_bps());
            }
            req.npg.add_to(&mut span, key!("npg"));
            span.add_label(key!("outcome"), decision.outcome.as_str());
            span.add_label(key!("path"), decision.path.as_str());
            if let Some(why) = rejected {
                span.add_label(key!("rejected"), why);
            }
            seq.add_to(&mut span, key!("request"));
            float(&mut span, key!("residual_after_bps"), decision.residual_after.as_bps());
            float(&mut span, key!("residual_before_bps"), residual_before.as_bps());
            req.slice.add_to(&mut span, key!("slice"));
            req.src.add_to(&mut span, key!("src"));
            span.add_label(key!("state"), probe.err().unwrap_or("fresh"));
        }
        let untraced_ms = || obs.clock.now_ms().saturating_sub(t0) as f64;
        self.last_admit_ms = span.finish_ms().unwrap_or_else(untraced_ms);
        decision
    }

    /// The latency [`EntitlementMarket::admit_obs`] measured for the
    /// last admit, in `obs.clock` ms (0 before the first).
    pub fn last_admit_ms(&self) -> f64 {
        self.last_admit_ms
    }

    /// Negotiate a hose request against the market's *warm* scenario
    /// set: every round of §8 negotiation reuses the one enumeration
    /// done at construction (plus current faults), so a warm
    /// negotiation is bit-identical to a cold `negotiate` while no
    /// fault is active.
    pub fn negotiate_warm(
        &self,
        request: &HoseRequest,
        slo: SloTarget,
        policy: &mut dyn ServicePolicy,
        max_rounds: usize,
    ) -> Agreement {
        negotiate_scenarios(
            &self.topo,
            request,
            slo,
            policy,
            &self.config,
            max_rounds,
            &self.effective,
        )
    }
}

/// The grant ledger's hasher: a multiply-rotate fold per written word,
/// the rotate in `finish` bringing the product's well-mixed high bits
/// down to where the table indexes. Fixed and unseeded, unlike
/// `RandomState`, so a market's work is a function of its inputs alone.
#[derive(Clone, Copy, Default)]
struct LedgerHasher(u64);

impl LedgerHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for LedgerHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b.into());
        }
    }

    // What `MarketKey`'s derived `Hash` writes: its two `u32` ids and
    // its two enum discriminants (`isize`, forwarded here).
    fn write_u32(&mut self, v: u32) {
        self.add(v.into());
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// An ask's field as a ledger label: the text `{}` prints for it,
/// written as a static prefix and a number. The ids' `Display` runs
/// nested `Debug`/`write!` through `core::fmt`, which cost a traced
/// admit more than copying the rest of its labels.
trait Label: Copy {
    fn add_to(self, span: &mut SpanTimer, key: Key);
}

impl Label for u64 {
    fn add_to(self, span: &mut SpanTimer, key: Key) {
        span.add_label_u64(key, "", self);
    }
}

impl Label for NpgId {
    fn add_to(self, span: &mut SpanTimer, key: Key) {
        if self.is_low_touch() {
            span.add_label(key, "npg:low-touch");
        } else {
            span.add_label_u64(key, "npg:", self.0.into());
        }
    }
}

impl Label for RegionId {
    fn add_to(self, span: &mut SpanTimer, key: Key) {
        span.add_label_u64(key, "r", self.0.into());
    }
}

impl Label for SliceId {
    fn add_to(self, span: &mut SpanTimer, key: Key) {
        span.add_label_u64(key, "s", self.0.into());
    }
}

impl Label for QosBucket {
    fn add_to(self, span: &mut SpanTimer, key: Key) {
        span.add_label(key, self.as_str());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_obs::{Clock, TraceSink};
    use proptest::prelude::*;
    use std::fmt::Display;

    /// `v` through [`Label::add_to`] reads back as it does through
    /// `add_label_fmt`, and as `{}` prints it.
    fn assert_same<T: Label + Display>(v: T) {
        let sink = TraceSink::new();
        let clock = Clock::manual(0);
        let mut ours = sink.span(&clock, "l", "ours");
        v.add_to(&mut ours, key!("k"));
        drop(ours);
        let mut fmt = sink.span(&clock, "l", "fmt");
        fmt.add_label_fmt(key!("k"), v);
        drop(fmt);
        let events = sink.events();
        assert_eq!(events[0].label("k"), events[1].label("k"));
        assert_eq!(events[0].label("k"), Some(v.to_string().as_str()));
    }

    #[test]
    fn id_labels_read_as_display_prints_them_at_the_edges() {
        for v in [0, 1, 9, 10, 11, 99, 100, 101, 999, 1_000, u64::MAX] {
            assert_same(v);
            assert_same(NpgId(v as u32));
            assert_same(RegionId(v as u16));
            assert_same(SliceId(v as u32));
        }
        assert_same(NpgId::LOW_TOUCH);
        assert_same(NpgId(u32::MAX - 1));
        for bucket in QosBucket::approval_order() {
            assert_same(bucket);
        }
    }

    /// The ledger's hash of three fixed keys, read through the field's
    /// own hasher: a seeded `RandomState` or a swap to `DefaultHasher`
    /// moves every one of them.
    #[test]
    fn the_ledger_hasher_is_fixed() {
        use entitlement_core::{QosBand, QosClass, Quarter};
        use entitlement_topology::BackboneSpec;
        use std::hash::BuildHasher;
        let market = EntitlementMarket::new(
            BackboneSpec::small(7).build(),
            SliceGrid::quarterly(Quarter(0), 30),
            ApprovalConfig {
                max_cuts: 1,
                ..Default::default()
            },
        );
        let key = |npg, class, band, slice| MarketKey {
            npg,
            bucket: QosBucket { class, band },
            slice: SliceId(slice),
        };
        let keys = [
            key(NpgId(0), QosClass::C2, QosBand::High, 5),
            key(NpgId(9), QosClass::C3, QosBand::High, 2),
            key(NpgId::LOW_TOUCH, QosClass::C4, QosBand::Low, 11),
        ];
        let hashes = keys.map(|k| market.grants.hasher().hash_one(k));
        assert_eq!(
            hashes,
            [
                742_175_102_900_394_349,
                3_466_055_217_681_984_914,
                9_031_885_237_645_016_525
            ]
        );
    }

    proptest! {
        #[test]
        fn id_labels_read_as_display_prints_them(v in any::<u64>()) {
            assert_same(v);
            assert_same(NpgId(v as u32));
            assert_same(RegionId(v as u16));
            assert_same(SliceId(v as u32));
        }
    }
}
