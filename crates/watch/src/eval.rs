//! The streaming watchdog: a deterministic fold over live
//! observations, emitting `watch/*` trace events as it goes.
//!
//! Three observation channels feed the evaluator:
//!
//! * [`WatchEvaluator::observe_cycle`] — one [`CycleObs`] per metering
//!   cycle (the same cadence the drill/fleet loops feed the SLO
//!   evaluator). Runs the W0101/W0104 invariant monitors plus the
//!   W0105 staleness CUSUM and W0106 attainment drift detectors.
//! * [`WatchEvaluator::observe_shards`] — the per-cycle sharded
//!   aggregation fold. Runs the W0102 bit-reconciliation monitor.
//! * [`WatchEvaluator::observe_admit`] — one [`AdmitObs`] per market
//!   admission. Runs the W0103 residual monitor and the W0107 admit
//!   latency CUSUM.
//!
//! Each observation is simultaneously emitted as a `watch`/`cycle`,
//! `watch`/`shards`, or `watch`/`admit` trace event (pinned label set,
//! floats shortest-round-trip), so [`WatchEvaluator::fold_trace`] can
//! rebuild the identical evaluator — and a byte-identical
//! [`WatchReport`] — from the trace file alone. Violations and
//! detector transitions additionally emit `watch`/`violation` and
//! `watch`/`fire`|`clear` events; those are *recomputed* by the
//! offline fold, never parsed back, so a fold under different
//! thresholds re-judges the same run.

use crate::config::WatchPolicy;
use crate::detector::{Cusum, EwmaDrift, WatchTransition};
use crate::monitor::{
    check_delivery, check_fractions, check_residual, check_shard_sum,
};
use crate::report::{DetectorEvent, Violation, WatchReport};
use entitlement_analyzer::Code;
use entitlement_obs::{BadLabel, Obs, TraceEvent};
use entitlement_slo::{pair_mut, PairMap};
use std::collections::BTreeMap;

/// One metering cycle's health observation for one `(entity, QoS)`.
#[derive(Clone, Debug, PartialEq)]
pub struct CycleObs {
    /// The entitled entity, e.g. `npg:2`.
    pub entity: String,
    /// QoS class, e.g. `c3`.
    pub qos: String,
    /// Offered/sent demand this cycle, bits/s.
    pub demand_bps: f64,
    /// Conforming delivered rate this cycle, bits/s.
    pub delivered_bps: f64,
    /// Approved/entitled rate in force this cycle, bits/s.
    pub approved_bps: f64,
    /// Fraction of hosts marked non-conforming.
    pub marked_fraction: f64,
    /// Conforming share of the sent rate.
    pub conform_fraction: f64,
    /// Age of the aggregates behind the standing decision, ms.
    pub staleness_ms: f64,
    /// Whether the cycle's aggregates were readable. W0101 is skipped
    /// on unmeasurable cycles (the SLO fold already fails them
    /// closed); the staleness detector keeps running — staleness is a
    /// local measurement and is exactly what an outage drives up.
    pub measurable: bool,
}

/// One market admission's health observation.
#[derive(Clone, Debug, PartialEq)]
pub struct AdmitObs {
    /// Monotone admission ordinal (the `request` span label).
    pub request: u64,
    /// Requested rate, bits/s.
    pub ask_bps: f64,
    /// Granted rate, bits/s.
    pub granted_bps: f64,
    /// Residual headroom in the slot before the decision, bits/s —
    /// kept in the market's own unit so the W0103 bit-compare runs the
    /// exact arithmetic the index ran.
    pub residual_before_bps: f64,
    /// Residual after the decrement, bits/s.
    pub residual_after_bps: f64,
    /// Admission latency, logical ms.
    pub admit_ms: f64,
    /// Serving path label (`index` / `sweep`).
    pub path: String,
}

impl CycleObs {
    /// The wire form: one `watch`/`cycle` event carrying every field,
    /// labels in key order (the order the sink writes them in).
    fn encode(&self, obs: &Obs) {
        obs.point("watch", "cycle")
            .label_f64("approved_bps", self.approved_bps)
            .label_f64("conform_fraction", self.conform_fraction)
            .label_f64("delivered_bps", self.delivered_bps)
            .label_f64("demand_bps", self.demand_bps)
            .label("entity", &self.entity)
            .label_f64("marked_fraction", self.marked_fraction)
            .label_fmt("measurable", self.measurable)
            .label("qos", &self.qos)
            .label_f64("staleness_ms", self.staleness_ms)
            .finish();
    }

    /// Read a `watch`/`cycle` event back. Every field is required.
    ///
    /// # Errors
    ///
    /// Names the first label that is missing or does not parse;
    /// nothing is defaulted.
    pub fn decode(e: &TraceEvent) -> Result<CycleObs, BadLabel> {
        Ok(CycleObs {
            entity: e.need("entity")?.to_string(),
            qos: e.need("qos")?.to_string(),
            demand_bps: e.num("demand_bps")?,
            delivered_bps: e.num("delivered_bps")?,
            approved_bps: e.num("approved_bps")?,
            marked_fraction: e.num("marked_fraction")?,
            conform_fraction: e.num("conform_fraction")?,
            staleness_ms: e.num("staleness_ms")?,
            measurable: e.parsed("measurable")?,
        })
    }
}

impl AdmitObs {
    /// The wire form: one `watch`/`admit` event carrying every field,
    /// labels in key order.
    fn encode(&self, obs: &Obs) {
        obs.point("watch", "admit")
            .label_f64("admit_ms", self.admit_ms)
            .label_f64("ask_bps", self.ask_bps)
            .label_f64("granted_bps", self.granted_bps)
            .label("path", &self.path)
            .label_fmt("request", self.request)
            .label_f64("residual_after_bps", self.residual_after_bps)
            .label_f64("residual_before_bps", self.residual_before_bps)
            .finish();
    }

    /// Read a `watch`/`admit` event back. Every field is required.
    ///
    /// # Errors
    ///
    /// As [`CycleObs::decode`].
    pub fn decode(e: &TraceEvent) -> Result<AdmitObs, BadLabel> {
        Ok(AdmitObs {
            request: e.parsed("request")?,
            ask_bps: e.num("ask_bps")?,
            granted_bps: e.num("granted_bps")?,
            residual_before_bps: e.num("residual_before_bps")?,
            residual_after_bps: e.num("residual_after_bps")?,
            admit_ms: e.num("admit_ms")?,
            path: e.need("path")?.to_string(),
        })
    }
}

/// The wire form of a W0102 shard check: one `watch`/`shards` event
/// with the fold total, the shard count and one `s{n}` label per
/// partial. Labels in key order: the `s{n}` keys as text sorts them
/// (`s0, s1, s10, …, s2, …`), all before `shards`.
fn encode_shards(obs: &Obs, entity: &str, qos: &str, total_bps: f64, shard_bps: &[f64]) {
    if !obs.enabled() {
        return; // spares formatting the `s{n}` keys
    }
    let mut partials: Vec<(String, f64)> = shard_bps
        .iter()
        .enumerate()
        .map(|(s, &v)| (format!("s{s}"), v))
        .collect();
    partials.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut event = obs.point("watch", "shards").label("entity", entity).label("qos", qos);
    for (key, v) in &partials {
        event.add_label_f64(key, *v);
    }
    event
        .label_fmt("shards", shard_bps.len())
        .label_f64("total_bps", total_bps)
        .finish();
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
            .label("code", code.as_str())
            .label("entity", entity)
            .label("qos", qos)
            .label_fmt("shard", shard)
            .label_fmt("cycle", cycle)
            .label("detail", &detail)
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
            .label("code", code.as_str())
            .label("entity", entity)
            .label("qos", qos)
            .label_fmt("cycle", cycle)
            .label_f64("stat", t.stat)
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

    /// Fold one metering-cycle observation, emitting a `watch`/`cycle`
    /// event plus any violations/transitions it causes.
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

        o.encode(obs);

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
        encode_shards(obs, entity, qos, total_bps, shard_bps);
        if let Some(detail) = check_shard_sum(total_bps, shard_bps) {
            self.violation(obs, Code::W0102, entity, qos, cycle, detail);
        }
    }

    /// Fold one admission observation, emitting a `watch`/`admit`
    /// event plus any W0103 violation / W0107 transition.
    pub fn observe_admit(&mut self, obs: &Obs, o: &AdmitObs) {
        self.admit.admits += 1;
        let cycle = self.admit.admits;
        o.encode(obs);
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

    /// Rebuild the evaluator from a recorded trace: every
    /// `watch`/`cycle`, `watch`/`shards`, and `watch`/`admit` event is
    /// re-observed against a disabled sink. Violations and transitions
    /// are recomputed from the observation stream, so the fold
    /// reproduces the live timeline exactly.
    ///
    /// Returns the observation events that did not decode (a missing
    /// or unparsable label); those are not folded, so a non-empty
    /// return means the report does not describe the run.
    pub fn fold_trace(&mut self, events: &[TraceEvent]) -> Vec<BadLabel> {
        let silent = Obs::disabled();
        let mut malformed = Vec::new();
        for e in events.iter().filter(|e| e.span == "watch") {
            let folded = match e.phase.as_str() {
                "cycle" => CycleObs::decode(e).map(|o| self.observe_cycle(&silent, &o)),
                "shards" => decode_shards(e).map(|(entity, qos, total, partials)| {
                    self.observe_shards(&silent, entity, qos, total, &partials);
                }),
                "admit" => AdmitObs::decode(e).map(|o| self.observe_admit(&silent, &o)),
                _ => Ok(()),
            };
            malformed.extend(folded.err());
        }
        malformed
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
    use entitlement_obs::Clock;
    use entitlement_slo::AlertKind;

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
    fn events_roundtrip_the_v2_schema() {
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
        let parsed = entitlement_obs::parse_trace(&jsonl).expect("valid v2 trace");
        let phases: Vec<&str> = parsed.iter().map(|e| e.phase.as_str()).collect();
        assert_eq!(
            phases,
            vec!["cycle", "shards", "admit", "cycle", "violation"]
        );
        assert!(parsed.iter().all(|e| e.span == "watch"));
        let violation = &parsed[4];
        assert_eq!(violation.label("code"), Some("W0104"));
        assert_eq!(violation.label("entity"), Some("npg:2"));
    }

    #[test]
    fn offline_refold_reproduces_the_streaming_report_bytes() {
        let run = |via_trace: bool| {
            let mut ev = WatchEvaluator::default();
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
