//! The streaming watchdog fold, [`WatchEvaluator`], and the
//! observations it reads (the channels and their wire forms are
//! described on [`crate::watch`]).

use crate::eval::{fold_events, pair_mut, PairMap};
use crate::watch::config::WatchPolicy;
use crate::watch::detector::{Cusum, EwmaDrift, WatchTransition};
use crate::watch::monitor::{check_delivery, check_fractions, check_residual, check_shard_sum};
use crate::watch::report::{DetectorEvent, Violation, WatchReport};
use entitlement_core::Code;
use entitlement_obs::{key, BadLabel, Key, Obs, TraceEvent};
use std::collections::BTreeMap;

pub use crate::eval::CycleObs;

/// One market admission's health observation. On the wire it is the
/// admit's own `market`/`admit` span, written by the market.
#[derive(Clone, Debug, PartialEq)]
pub struct AdmitObs {
    /// Monotone admission ordinal (the `request` span label).
    pub request: u64,
    /// Requested rate, bits/s (`NaN` or `inf` for a rejected ask).
    pub ask_bps: f64,
    /// Granted rate, bits/s.
    pub granted_bps: f64,
    /// Residual headroom in the slot before the decision, bits/s —
    /// the market's own unit, so the W0103 bit-compare runs the exact
    /// arithmetic the index ran.
    pub residual_before_bps: f64,
    /// Residual after the decrement, bits/s.
    pub residual_after_bps: f64,
    /// Admission latency, logical ms (the span's `dur_ms`).
    pub admit_ms: f64,
    /// Serving path label (`index` / `sweep`).
    pub path: String,
}

impl AdmitObs {
    /// Read a `market`/`admit` span back. Every field is required; the
    /// ask may be non-finite (a rejected ask's `NaN` or `inf` is
    /// spelled out), every other rate is a finite number.
    ///
    /// # Errors
    ///
    /// Names the first label that is missing or does not parse;
    /// nothing is defaulted. A trace-schema v4 admit (rates in Gbps)
    /// is refused at its missing `ask_bps`.
    pub fn decode(e: &TraceEvent) -> Result<AdmitObs, BadLabel> {
        Ok(AdmitObs {
            request: e.parsed("request")?,
            ask_bps: e.parsed("ask_bps")?,
            granted_bps: e.num("granted_bps")?,
            residual_before_bps: e.num("residual_before_bps")?,
            residual_after_bps: e.num("residual_after_bps")?,
            admit_ms: e.dur_ms,
            path: e.need("path")?.to_string(),
        })
    }
}

/// The wire form of a W0102 shard check: one `watch`/`shards` event
/// with the fold total, the shard count and one `s{n}` label per
/// partial. Labels in key order: the `s{n}` keys as text sorts them
/// (`s0, s1, s10, …, s2, …`), all before `shards`.
fn encode_shards(
    obs: &Obs,
    keys: &mut ShardKeys,
    entity: &str,
    qos: &str,
    total_bps: f64,
    shard_bps: &[f64],
) {
    if !obs.enabled() {
        return; // spares building the `s{n}` keys
    }
    let mut event = obs
        .point("watch", "shards")
        .label(key!("entity"), entity)
        .label(key!("qos"), qos);
    for (shard, key) in keys.sorted(shard_bps.len()) {
        event.add_label_f64(key.borrowed(), shard_bps[*shard]);
    }
    event
        .label_fmt(key!("shards"), shard_bps.len())
        .label_f64(key!("total_bps"), total_bps)
        .finish();
}

/// The `s{n}` keys of a `watch`/`shards` event with each key's shard,
/// in key order: built and checked once per shard count, not on every
/// traced cycle.
#[derive(Default)]
struct ShardKeys(Vec<(usize, Key<String>)>);

impl ShardKeys {
    /// The keys of `shards` partials in key order.
    fn sorted(&mut self, shards: usize) -> &[(usize, Key<String>)] {
        if self.0.len() != shards {
            let key = |s| Key::new(format!("s{s}")).expect("`s` and digits need no escape");
            self.0 = (0..shards).map(|s| (s, key(s))).collect();
            self.0.sort_unstable_by(|a, b| a.1.cmp(&b.1));
        }
        &self.0
    }
}

/// Inverse of [`encode_shards`] — `(entity, qos, total, partials)`.
/// Every label is required, including each of the `shards` partials.
fn decode_shards(e: &TraceEvent) -> Result<(&str, &str, f64, Vec<f64>), BadLabel> {
    let shards: usize = e.parsed("shards")?;
    let partials = (0..shards).map(|s| e.num(&format!("s{s}")));
    Ok((
        e.need("entity")?,
        e.need("qos")?,
        e.num("total_bps")?,
        partials.collect::<Result<_, _>>()?,
    ))
}

#[derive(Default)]
struct EntityState {
    cycles: u64,
    shard_checks: u64,
    last_approved: f64,
    settled_for: u64,
    staleness: Cusum,
    attainment: EwmaDrift,
}

#[derive(Default)]
struct AdmitState {
    admits: u64,
    latency: Cusum,
}

/// The streaming watchdog fold. Same observation stream ⇒ identical
/// report, bitwise.
#[derive(Default)]
pub struct WatchEvaluator {
    states: PairMap<EntityState>,
    admit: AdmitState,
    violations: Vec<Violation>,
    transitions: Vec<DetectorEvent>,
    shard_keys: ShardKeys,
}

/// The `(entity, QoS)` state, created on first sight.
fn state_mut<'a>(
    states: &'a mut PairMap<EntityState>,
    entity: &str,
    qos: &str,
) -> &'a mut EntityState {
    pair_mut(states, entity, qos, || EntityState {
        last_approved: f64::NAN,
        ..EntityState::default()
    })
}

impl WatchEvaluator {
    /// A new evaluator, the same as [`WatchEvaluator::default`]: the
    /// thresholds are [`WatchPolicy`]'s constants.
    #[must_use]
    pub fn new(_: WatchPolicy) -> Self {
        WatchEvaluator::default()
    }

    fn violation(
        &mut self,
        obs: &Obs,
        code: Code,
        entity: &str,
        qos: &str,
        cycle: u64,
        detail: String,
    ) {
        // Monitors check fold totals, not individual shards; the shard
        // slot stays -1 and the offending shard (if any) is named in
        // the detail text.
        let shard = -1i64;
        obs.point("watch", "violation")
            .label(key!("code"), code.as_str())
            .label_fmt(key!("cycle"), cycle)
            .label(key!("detail"), &detail)
            .label(key!("entity"), entity)
            .label(key!("qos"), qos)
            .label_fmt(key!("shard"), shard)
            .finish();
        self.violations.push(Violation {
            code,
            entity: entity.to_string(),
            qos: qos.to_string(),
            shard,
            cycle,
            detail,
        });
    }

    fn transition(
        &mut self,
        obs: &Obs,
        code: Code,
        entity: &str,
        qos: &str,
        cycle: u64,
        t: WatchTransition,
    ) {
        obs.point("watch", t.kind.as_str())
            .label(key!("code"), code.as_str())
            .label_fmt(key!("cycle"), cycle)
            .label(key!("entity"), entity)
            .label(key!("qos"), qos)
            .label_f64(key!("stat"), t.stat)
            .finish();
        self.transitions.push(DetectorEvent {
            code,
            entity: entity.to_string(),
            qos: qos.to_string(),
            cycle,
            kind: t.kind,
            stat: t.stat,
        });
    }

    /// Fold one metered tick, emitting any violations/transitions it
    /// causes. The tick itself is on the wire as the `slo`/`cycle`
    /// event the SLO evaluator writes for it.
    pub fn observe_cycle(&mut self, obs: &Obs, o: &CycleObs) {
        let st = state_mut(&mut self.states, &o.entity, &o.qos);
        st.cycles += 1;
        let cycle = st.cycles;

        // Settle window: a material approved-rate change (contract
        // rollover) restarts the delivery monitor's grace period.
        let changed = !st.last_approved.is_finite()
            || (o.approved_bps - st.last_approved).abs()
                > 0.01 * st.last_approved.abs().max(1.0);
        st.last_approved = o.approved_bps;
        if changed {
            st.settled_for = 0;
        } else {
            st.settled_for += 1;
        }
        let settled = st.settled_for >= WatchPolicy::SETTLE_CYCLES;

        // The detectors step here, while the entity's state is in
        // hand; what they decided is emitted below, after the
        // monitors' violations.
        let stale = st.staleness.observe(o.staleness_ms);
        // W0106's sample is the delivered share of what was required
        // (capped at 1 — over-delivery is W0101's business); an idle
        // cycle attains vacuously.
        let required = o.demand_bps.min(o.approved_bps);
        let drift = st.attainment.observe(if required > 0.0 {
            (o.delivered_bps / required).min(1.0)
        } else {
            1.0
        });

        // W0101 delivery conservation (settled, measurable cycles only).
        if settled && o.measurable {
            if let Some(detail) = check_delivery(o.demand_bps, o.delivered_bps, o.approved_bps) {
                self.violation(obs, Code::W0101, &o.entity, &o.qos, cycle, detail);
            }
        }
        // W0104 fraction sanity (every cycle).
        if let Some(detail) = check_fractions(o.marked_fraction, o.conform_fraction) {
            self.violation(obs, Code::W0104, &o.entity, &o.qos, cycle, detail);
        }
        // W0105 staleness CUSUM, W0106 attainment drift.
        if let Some(t) = stale {
            self.transition(obs, Code::W0105, &o.entity, &o.qos, cycle, t);
        }
        if let Some(t) = drift {
            self.transition(obs, Code::W0106, &o.entity, &o.qos, cycle, t);
        }
    }

    /// Fold one sharded-aggregation check: the flat fold total the
    /// meters consumed plus every shard's partial, in shard order.
    /// Emits a `watch`/`shards` event plus any W0102 violation.
    pub fn observe_shards(
        &mut self,
        obs: &Obs,
        entity: &str,
        qos: &str,
        total_bps: f64,
        shard_bps: &[f64],
    ) {
        let st = state_mut(&mut self.states, entity, qos);
        st.shard_checks += 1;
        let cycle = st.shard_checks;
        encode_shards(obs, &mut self.shard_keys, entity, qos, total_bps, shard_bps);
        if let Some(detail) = check_shard_sum(total_bps, shard_bps) {
            self.violation(obs, Code::W0102, entity, qos, cycle, detail);
        }
    }

    /// Fold one admission observation, emitting any W0103 violation /
    /// W0107 transition. The observation is on the wire already, as
    /// the admit's `market`/`admit` span.
    pub fn observe_admit(&mut self, obs: &Obs, o: &AdmitObs) {
        self.admit.admits += 1;
        let cycle = self.admit.admits;
        if let Some(detail) = check_residual(
            o.residual_before_bps,
            o.residual_after_bps,
            o.granted_bps,
            o.ask_bps,
        ) {
            self.violation(obs, Code::W0103, "market", "-", cycle, detail);
        }
        if let Some(t) = self.admit.latency.observe(o.admit_ms) {
            self.transition(obs, Code::W0107, "market", "-", cycle, t);
        }
    }

    /// Rebuild the evaluator from a recorded trace: every `slo`/`cycle`,
    /// `watch`/`shards`, and `market`/`admit` event is re-observed
    /// against a disabled sink. Violations and transitions are
    /// recomputed from the observation stream, so the fold reproduces
    /// the live timeline exactly.
    ///
    /// Returns the observation events that did not decode (a missing
    /// or unparsable label); those are not folded, so a non-empty
    /// return means the report does not describe the run. A
    /// trace-schema v3 tick (`watch`/`cycle`, no `target` or `good`)
    /// and a v4 admit (no `ask_bps`) are among them: an old trace is
    /// refused, never read as a run of zero cycles or admits.
    pub fn fold_trace(&mut self, events: &[TraceEvent]) -> Vec<BadLabel> {
        fold_events(events, |silent, e| {
            match (e.span.as_str(), e.phase.as_str()) {
                ("slo" | "watch", "cycle") => {
                    CycleObs::decode(e).map(|(o, _)| self.observe_cycle(silent, &o))
                }
                ("watch", "shards") => decode_shards(e).map(|(entity, qos, total, partials)| {
                    self.observe_shards(silent, entity, qos, total, &partials);
                }),
                ("market", "admit") => AdmitObs::decode(e).map(|o| self.observe_admit(silent, &o)),
                _ => Ok(()),
            }
        })
    }

    /// Whether any detector is currently firing.
    #[must_use]
    pub fn any_firing(&self) -> bool {
        !self.firing_codes().is_empty()
    }

    fn firing_codes(&self) -> Vec<Code> {
        let mut out = Vec::new();
        for st in self.states.values().flat_map(BTreeMap::values) {
            if st.staleness.firing() && !out.contains(&Code::W0105) {
                out.push(Code::W0105);
            }
            if st.attainment.firing() && !out.contains(&Code::W0106) {
                out.push(Code::W0106);
            }
        }
        if self.admit.latency.firing() {
            out.push(Code::W0107);
        }
        out.sort();
        out
    }

    /// Produce the report.
    #[must_use]
    pub fn report(&self) -> WatchReport {
        let states = || self.states.values().flat_map(BTreeMap::values);
        WatchReport {
            detectors: WatchPolicy::detector_label(),
            cycles: states().map(|s| s.cycles).sum(),
            shard_checks: states().map(|s| s.shard_checks).sum(),
            admits: self.admit.admits,
            violations: self.violations.clone(),
            transitions: self.transitions.clone(),
            firing: self.firing_codes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlertKind, SloEvaluator};
    use entitlement_obs::Clock;

    fn healthy_cycle(i: u64) -> CycleObs {
        CycleObs {
            entity: "npg:2".to_string(),
            qos: "c3".to_string(),
            demand_bps: 2e12 + i as f64 * 1e9,
            delivered_bps: 1e12,
            approved_bps: 1e12,
            marked_fraction: 0.5,
            conform_fraction: 0.5,
            staleness_ms: 30_000.0,
            measurable: true,
        }
    }

    fn healthy_admit(i: u64) -> AdmitObs {
        AdmitObs {
            request: i,
            ask_bps: 5.0,
            granted_bps: 5.0,
            residual_before_bps: 100.0 - i as f64 * 5.0,
            residual_after_bps: 100.0 - (i + 1) as f64 * 5.0,
            admit_ms: 2.0,
            path: "index".to_string(),
        }
    }

    /// The labels of `a`'s `market`/`admit` span that the watchdog
    /// reads, as the market writes them, over `a.admit_ms`.
    fn write_admit(obs: &Obs, a: &AdmitObs) {
        obs.trace
            .child(obs.clock.now_ms(), a.admit_ms, "market", "admit")
            .label_f64(key!("ask_bps"), a.ask_bps)
            .label_f64(key!("granted_bps"), a.granted_bps)
            .label(key!("path"), &a.path)
            .label_fmt(key!("request"), a.request)
            .label_f64(key!("residual_after_bps"), a.residual_after_bps)
            .label_f64(key!("residual_before_bps"), a.residual_before_bps)
            .finish();
    }

    #[test]
    fn healthy_stream_is_silent() {
        let mut ev = WatchEvaluator::default();
        let obs = Obs::disabled();
        for i in 0..200 {
            ev.observe_cycle(&obs, &healthy_cycle(i));
        }
        for i in 0..10 {
            ev.observe_admit(&obs, &healthy_admit(i));
        }
        let shards = [3.0e11, 3.5e11, 3.5e11];
        ev.observe_shards(&obs, "npg:2", "c3", shards.iter().sum(), &shards);
        let r = ev.report();
        assert!(r.healthy(), "{}", r.render_text());
        assert_eq!((r.cycles, r.shard_checks, r.admits), (200, 1, 10));
    }

    #[test]
    fn over_delivery_fires_w0101_after_settle() {
        let mut ev = WatchEvaluator::default();
        let obs = Obs::disabled();
        for i in 0..40 {
            let mut o = healthy_cycle(i);
            if i >= 30 {
                o.delivered_bps = 1.3e12; // bound is 1.25e12
            }
            ev.observe_cycle(&obs, &o);
        }
        let r = ev.report();
        let w0101: Vec<&Violation> =
            r.violations.iter().filter(|v| v.code == Code::W0101).collect();
        assert_eq!(w0101.len(), 10, "{}", r.render_text());
        assert_eq!(w0101[0].cycle, 31);
    }

    #[test]
    fn settle_window_absorbs_a_contract_rollover() {
        let mut ev = WatchEvaluator::default();
        let obs = Obs::disabled();
        for i in 0..30 {
            ev.observe_cycle(&obs, &healthy_cycle(i));
        }
        // The cut: approved drops 1e12 → 0.5e12 and delivery reacts
        // slowly; within the 10-cycle settle window nothing fires.
        for i in 0..10 {
            let mut o = healthy_cycle(30 + i);
            o.approved_bps = 0.5e12;
            o.delivered_bps = 1e12; // way over the new bound
            ev.observe_cycle(&obs, &o);
        }
        assert!(
            ev.report().violations.is_empty(),
            "{}",
            ev.report().render_text()
        );
        // One settled cycle later the over-delivery is a violation.
        let mut o = healthy_cycle(41);
        o.approved_bps = 0.5e12;
        o.delivered_bps = 1e12;
        ev.observe_cycle(&obs, &o);
        assert_eq!(ev.report().violations.len(), 1);
    }

    #[test]
    fn unmeasurable_cycles_skip_delivery_but_keep_staleness() {
        let mut ev = WatchEvaluator::default();
        let obs = Obs::disabled();
        for i in 0..WatchPolicy::WARMUP + 5 {
            ev.observe_cycle(&obs, &healthy_cycle(i));
        }
        // Outage: unreadable aggregates, growing staleness, delivery
        // way over bound — only W0105 may react.
        let mut fired = false;
        for k in 0..20u64 {
            let mut o = healthy_cycle(100 + k);
            o.measurable = false;
            o.delivered_bps = 2e12;
            o.staleness_ms = 30_000.0 * (k + 2) as f64;
            ev.observe_cycle(&obs, &o);
            fired |= ev.any_firing();
        }
        let r = ev.report();
        assert!(fired, "staleness CUSUM fires during the outage");
        assert!(r.violations.is_empty(), "{}", r.render_text());
        assert!(r.transitions.iter().all(|t| t.code == Code::W0105));
    }

    #[test]
    fn corrupt_fractions_fire_w0104() {
        let mut ev = WatchEvaluator::default();
        let obs = Obs::disabled();
        let mut o = healthy_cycle(0);
        o.conform_fraction = 1.4;
        ev.observe_cycle(&obs, &o);
        assert_eq!(ev.report().violations[0].code, Code::W0104);
    }

    #[test]
    fn shard_mismatch_fires_w0102() {
        let mut ev = WatchEvaluator::default();
        let obs = Obs::disabled();
        let shards = [0.1, 0.2, 0.3];
        let reversed: f64 = shards.iter().rev().sum();
        ev.observe_shards(&obs, "npg:7", "c2", reversed, &shards);
        let r = ev.report();
        assert_eq!(r.violations[0].code, Code::W0102);
        assert_eq!(r.shard_checks, 1);
    }

    #[test]
    fn residual_underflow_fires_w0103() {
        let mut ev = WatchEvaluator::default();
        let obs = Obs::disabled();
        let mut o = healthy_admit(0);
        o.residual_after_bps = -1.0;
        ev.observe_admit(&obs, &o);
        assert_eq!(ev.report().violations[0].code, Code::W0103);
    }

    #[test]
    fn attainment_collapse_fires_w0106_and_recovery_clears() {
        let mut ev = WatchEvaluator::default();
        let obs = Obs::disabled();
        for i in 0..50 {
            ev.observe_cycle(&obs, &healthy_cycle(i));
        }
        for i in 0..30 {
            let mut o = healthy_cycle(50 + i);
            o.delivered_bps = 0.1e12;
            ev.observe_cycle(&obs, &o);
        }
        let fired: Vec<&DetectorEvent> = ev
            .transitions
            .iter()
            .filter(|t| t.code == Code::W0106)
            .collect();
        assert_eq!(fired.len(), 1, "{:?}", ev.transitions);
        assert_eq!(fired[0].kind, AlertKind::Fire);
        for i in 0..300 {
            ev.observe_cycle(&obs, &healthy_cycle(80 + i));
        }
        let kinds: Vec<AlertKind> = ev
            .transitions
            .iter()
            .filter(|t| t.code == Code::W0106)
            .map(|t| t.kind)
            .collect();
        assert_eq!(kinds, vec![AlertKind::Fire, AlertKind::Clear]);
        assert!(!ev.any_firing());
    }

    #[test]
    fn latency_jump_fires_w0107() {
        let mut ev = WatchEvaluator::default();
        let obs = Obs::disabled();
        for i in 0..WatchPolicy::WARMUP + 5 {
            ev.observe_admit(&obs, &healthy_admit(i));
        }
        let mut fired_at = None;
        for i in 0..30u64 {
            let mut o = healthy_admit(100 + i);
            o.admit_ms = 40.0;
            ev.observe_admit(&obs, &o);
            if ev.admit.latency.firing() && fired_at.is_none() {
                fired_at = Some(i);
            }
        }
        assert!(fired_at.is_some(), "{:?}", ev.transitions);
        assert_eq!(ev.transitions[0].code, Code::W0107);
    }

    #[test]
    fn a_tick_writes_no_watch_event_of_its_own() {
        let mut ev = WatchEvaluator::default();
        let obs = Obs::new(Clock::counting(1));
        ev.observe_cycle(&obs, &healthy_cycle(0));
        let shards = [0.1, 0.2, 0.3];
        ev.observe_shards(&obs, "npg:2", "c3", shards.iter().sum(), &shards);
        ev.observe_admit(&obs, &healthy_admit(0));
        let mut bad = healthy_cycle(1);
        bad.marked_fraction = 2.0;
        ev.observe_cycle(&obs, &bad);
        let jsonl = obs.trace.to_jsonl();
        let parsed = entitlement_obs::parse_trace(&jsonl).expect("valid trace");
        let phases: Vec<&str> = parsed.iter().map(|e| e.phase.as_str()).collect();
        assert_eq!(phases, vec!["shards", "violation"]);
        assert!(parsed.iter().all(|e| e.span == "watch"));
        let violation = &parsed[1];
        assert_eq!(violation.label("code"), Some("W0104"));
        assert_eq!(violation.label("entity"), Some("npg:2"));
    }

    #[test]
    fn a_v3_tick_is_refused() {
        let obs = Obs::new(Clock::counting(1));
        let o = healthy_cycle(0);
        obs.point("watch", "cycle")
            .label_f64(key!("approved_bps"), o.approved_bps)
            .label_f64(key!("conform_fraction"), o.conform_fraction)
            .label_f64(key!("delivered_bps"), o.delivered_bps)
            .label_f64(key!("demand_bps"), o.demand_bps)
            .label(key!("entity"), &o.entity)
            .label_f64(key!("marked_fraction"), o.marked_fraction)
            .label_fmt(key!("measurable"), o.measurable)
            .label(key!("qos"), &o.qos)
            .label_f64(key!("staleness_ms"), o.staleness_ms)
            .finish();
        let mut ev = WatchEvaluator::default();
        let bad = ev.fold_trace(&obs.trace.events());
        assert_eq!(bad.len(), 1);
        assert_eq!((bad[0].event.as_str(), bad[0].key.as_str()), ("watch/cycle", "target"));
        assert_eq!(ev.report().cycles, 0);
    }

    #[test]
    fn a_v4_admit_is_refused() {
        let obs = Obs::new(Clock::counting(1));
        obs.span("market", "admit")
            .label(key!("ask_gbps"), "0.005")
            .label(key!("granted_gbps"), "0.005")
            .label(key!("path"), "index")
            .label(key!("request"), "0")
            .finish();
        let mut ev = WatchEvaluator::default();
        let bad = ev.fold_trace(&obs.trace.events());
        assert_eq!(bad.len(), 1);
        assert_eq!((bad[0].event.as_str(), bad[0].key.as_str()), ("market/admit", "ask_bps"));
        assert_eq!(ev.report().admits, 0);
    }

    #[test]
    fn offline_refold_reproduces_the_streaming_report_bytes() {
        let run = |via_trace: bool| {
            let mut ev = WatchEvaluator::default();
            let mut slo = SloEvaluator::default();
            let obs = Obs::new(Clock::counting(1));
            for i in 0..120u64 {
                let mut o = healthy_cycle(i);
                if (60..80).contains(&i) {
                    o.staleness_ms = 30_000.0 * (i - 58) as f64;
                    o.measurable = false;
                }
                if i == 100 {
                    o.conform_fraction = 1.7;
                }
                slo.observe_cycle(&obs, 0.99, &o);
                ev.observe_cycle(&obs, &o);
            }
            let shards = [0.1, 0.2, 0.3];
            ev.observe_shards(&obs, "npg:2", "c3", shards.iter().sum(), &shards);
            for i in 0..60u64 {
                let mut a = healthy_admit(i);
                a.residual_before_bps = 1e6;
                a.residual_after_bps = 1e6 - a.granted_bps;
                if (40..50).contains(&i) {
                    a.admit_ms = 55.0;
                    a.path = "sweep".to_string();
                }
                write_admit(&obs, &a);
                ev.observe_admit(&obs, &a);
            }
            if via_trace {
                let mut offline = WatchEvaluator::default();
                offline.fold_trace(&obs.trace.events());
                offline.report()
            } else {
                ev.report()
            }
        };
        let streaming = run(false);
        let offline = run(true);
        assert!(!streaming.healthy(), "stream exercises every channel");
        assert_eq!(streaming.render_json(), offline.render_json());
        assert_eq!(streaming.render_text(), offline.render_text());
        assert_eq!(streaming, offline);
    }
}
