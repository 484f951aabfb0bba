//! The streaming SLO evaluator: a fold over per-cycle interval
//! observations, keyed by `(entity, QoS)`.
//!
//! The drill and fleet engine loops feed
//! [`SloEvaluator::observe_cycle`] one [`CycleObs`] per metered tick —
//! no post-hoc re-parse — and each tick is written once, as an
//! `slo`/`cycle` event (pinned JSONL key order, floats in
//! shortest-round-trip form) that carries the watchdog's SLIs too.
//! Samples the watchdog does not read (the market CLI's chunks) go
//! through [`SloEvaluator::observe`] as
//! `slo`/`interval` events. [`SloEvaluator::fold_trace`] folds both
//! kinds, so it rebuilds the identical evaluator offline from the
//! trace file alone; `entitlectl slo report|audit` is exactly that
//! offline fold.
//!
//! **Fail-closed accounting**: an interval whose aggregates were
//! unreadable (`measurable == false`, e.g. a KV shard outage) counts
//! *bad* even if traffic kept flowing — an SLO you cannot measure is an
//! SLO you cannot claim.

use crate::burn::{AlertKind, BurnAlert};
use crate::config::SloPolicy;
use crate::report::{EntityReport, SloReport};
use entitlement_obs::{key, BadLabel, Obs, TraceEvent};
use std::collections::BTreeMap;

/// One SLO sample for one `(entity, QoS)` that carries nothing for
/// the watchdog: a market chunk or one shard's share of a fleet tick.
#[derive(Clone, Debug, PartialEq)]
pub struct IntervalObs {
    /// The entitled entity, e.g. `npg:2`.
    pub entity: String,
    /// QoS class, e.g. `c3`.
    pub qos: String,
    /// The contract's SLO target (attainment is compared against it).
    pub target: f64,
    /// Offered demand this cycle, bits/s.
    pub demand_bps: f64,
    /// Conforming (delivered-as-approved) rate this cycle, bits/s.
    pub delivered_bps: f64,
    /// The approved/entitled rate in force this cycle, bits/s.
    pub approved_bps: f64,
    /// Whether the cycle's aggregates were readable. Unmeasurable
    /// cycles count bad (fail-closed).
    pub measurable: bool,
}

/// One metered tick for one `(entity, QoS)`: what the SLO fold judges
/// (with the contract's target, given alongside) and the SLIs the
/// watchdog reads.
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
    /// Whether the cycle's aggregates were readable. The SLO fold
    /// counts an unmeasurable tick bad; the watchdog skips W0101 on it
    /// but keeps its staleness detector running — staleness is a local
    /// measurement and is exactly what an outage drives up.
    pub measurable: bool,
}

impl IntervalObs {
    /// The wire form: one `slo`/`interval` event carrying every field
    /// plus the fold's `good` verdict (informational — a re-fold
    /// recomputes it under its own policy). Labels in key order, which
    /// is the order the sink writes them in.
    fn encode(&self, obs: &Obs, good: bool) {
        obs.point("slo", "interval")
            .label_f64(key!("approved_bps"), self.approved_bps)
            .label_f64(key!("delivered_bps"), self.delivered_bps)
            .label_f64(key!("demand_bps"), self.demand_bps)
            .label(key!("entity"), &self.entity)
            .label_fmt(key!("good"), good)
            .label_fmt(key!("measurable"), self.measurable)
            .label(key!("qos"), &self.qos)
            .label_f64(key!("target"), self.target)
            .finish();
    }

    /// Read an `slo`/`interval` event back. Every label is required,
    /// `good` too, though the fold recomputes it.
    ///
    /// # Errors
    ///
    /// Names the first label that is missing or does not parse;
    /// nothing is defaulted.
    pub fn decode(e: &TraceEvent) -> Result<IntervalObs, BadLabel> {
        let o = IntervalObs {
            entity: e.need("entity")?.to_string(),
            qos: e.need("qos")?.to_string(),
            target: e.num("target")?,
            demand_bps: e.num("demand_bps")?,
            delivered_bps: e.num("delivered_bps")?,
            approved_bps: e.num("approved_bps")?,
            measurable: e.parsed("measurable")?,
        };
        e.parsed::<bool>("good")?;
        Ok(o)
    }
}

impl CycleObs {
    /// The wire form: one `slo`/`cycle` event carrying every field, the
    /// target and the fold's `good` verdict, labels in key order.
    fn encode(&self, obs: &Obs, target: f64, good: bool) {
        obs.point("slo", "cycle")
            .label_f64(key!("approved_bps"), self.approved_bps)
            .label_f64(key!("conform_fraction"), self.conform_fraction)
            .label_f64(key!("delivered_bps"), self.delivered_bps)
            .label_f64(key!("demand_bps"), self.demand_bps)
            .label(key!("entity"), &self.entity)
            .label_fmt(key!("good"), good)
            .label_f64(key!("marked_fraction"), self.marked_fraction)
            .label_fmt(key!("measurable"), self.measurable)
            .label(key!("qos"), &self.qos)
            .label_f64(key!("staleness_ms"), self.staleness_ms)
            .label_f64(key!("target"), target)
            .finish();
    }

    /// Read an `slo`/`cycle` event back: the tick and the target it
    /// was judged against. Every label is required, `good` too.
    ///
    /// # Errors
    ///
    /// As [`IntervalObs::decode`].
    pub fn decode(e: &TraceEvent) -> Result<(CycleObs, f64), BadLabel> {
        let o = CycleObs {
            entity: e.need("entity")?.to_string(),
            qos: e.need("qos")?.to_string(),
            demand_bps: e.num("demand_bps")?,
            delivered_bps: e.num("delivered_bps")?,
            approved_bps: e.num("approved_bps")?,
            marked_fraction: e.num("marked_fraction")?,
            conform_fraction: e.num("conform_fraction")?,
            staleness_ms: e.num("staleness_ms")?,
            measurable: e.parsed("measurable")?,
        };
        let target = e.num("target")?;
        e.parsed::<bool>("good")?;
        Ok((o, target))
    }
}

/// Fold each observation event of `events` with `fold`, against a
/// disabled sink, and return the ones that did not decode (a missing
/// or unparsable label). Those are not folded, so a non-empty return
/// means the report does not describe the run.
pub(crate) fn fold_events(
    events: &[TraceEvent],
    mut fold: impl FnMut(&Obs, &TraceEvent) -> Result<(), BadLabel>,
) -> Vec<BadLabel> {
    let silent = Obs::disabled();
    events
        .iter()
        .filter_map(|e| fold(&silent, e).err())
        .collect()
}

/// A typed alert transition, as recorded in the report (the same
/// transition is also emitted as an `slo`/`alert_*` trace event).
#[derive(Clone, Debug, PartialEq)]
pub struct AlertEvent {
    /// Entity the alert belongs to.
    pub entity: String,
    /// QoS class.
    pub qos: String,
    /// 1-based cycle index at which the transition happened.
    pub cycle: u64,
    /// Fire or clear.
    pub kind: AlertKind,
    /// The policy's window label, e.g. `fast5/slow60`.
    pub window: String,
    /// Fast-window burn rate at the transition.
    pub fast_burn: f64,
    /// Slow-window burn rate at the transition.
    pub slow_burn: f64,
}

struct EntityState {
    target: f64,
    intervals: u64,
    good: u64,
    sum_demand_bps: f64,
    sum_delivered_bps: f64,
    sum_approved_bps: f64,
    alert: BurnAlert,
    alerts: Vec<AlertEvent>,
}

/// The streaming fold. Same observation stream ⇒ identical report,
/// bitwise.
pub struct SloEvaluator {
    policy: SloPolicy,
    states: PairMap<EntityState>,
}

/// Fold state per `(entity, QoS)`, nested by entity then QoS: it
/// iterates in the order a `(String, String)` key would, and finding a
/// pair already seen allocates nothing.
pub(crate) type PairMap<T> = BTreeMap<String, BTreeMap<String, T>>;

/// The state of `(entity, qos)` in `map`, made by `make` on first
/// sight, the only time the names are copied.
pub(crate) fn pair_mut<'a, T>(
    map: &'a mut PairMap<T>,
    entity: &str,
    qos: &str,
    make: impl FnOnce() -> T,
) -> &'a mut T {
    slot(slot(map, entity, BTreeMap::new), qos, make)
}

/// `map[key]`, inserted by `make` when absent.
fn slot<'a, V>(
    map: &'a mut BTreeMap<String, V>,
    key: &str,
    make: impl FnOnce() -> V,
) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), make());
    }
    map.get_mut(key).expect("present: inserted above")
}

impl Default for SloEvaluator {
    /// An evaluator under the default [`SloPolicy`].
    fn default() -> Self {
        SloEvaluator::new(SloPolicy::default())
    }
}

impl SloEvaluator {
    /// New evaluator under `policy`.
    #[must_use]
    pub fn new(policy: SloPolicy) -> Self {
        SloEvaluator {
            policy,
            states: BTreeMap::new(),
        }
    }

    /// Fold one SLO-only sample, emitting an `slo`/`interval` event
    /// and any `alert_fire`/`alert_clear` it causes into `obs`.
    pub fn observe(&mut self, obs: &Obs, o: &IntervalObs) {
        let rates = [o.demand_bps, o.delivered_bps, o.approved_bps];
        let key = (o.entity.as_str(), o.qos.as_str());
        self.fold(obs, key, o.target, rates, o.measurable, |good| {
            o.encode(obs, good)
        });
    }

    /// Fold one metered tick against `target`, emitting its one
    /// `slo`/`cycle` event and any `alert_fire`/`alert_clear` it causes
    /// into `obs`. The caller folds the same tick into the watchdog
    /// ([`WatchEvaluator::observe_cycle`](crate::watch::WatchEvaluator::observe_cycle)),
    /// which writes no copy of it.
    pub fn observe_cycle(&mut self, obs: &Obs, target: f64, o: &CycleObs) {
        let rates = [o.demand_bps, o.delivered_bps, o.approved_bps];
        let key = (o.entity.as_str(), o.qos.as_str());
        self.fold(obs, key, target, rates, o.measurable, |good| {
            o.encode(obs, target, good)
        });
    }

    /// Judge one sample of `(entity, qos)` — its demand, delivered and
    /// approved rates, in that order — fold it, `write` its event and
    /// emit the burn alert's transition, if any.
    fn fold(
        &mut self,
        obs: &Obs,
        (entity, qos): (&str, &str),
        target: f64,
        [demand_bps, delivered_bps, approved_bps]: [f64; 3],
        measurable: bool,
        write: impl FnOnce(bool),
    ) {
        let required = demand_bps.min(approved_bps) * (1.0 - self.policy.delivery_tolerance);
        let good = measurable && delivered_bps >= required;

        let policy = &self.policy;
        let st = pair_mut(&mut self.states, entity, qos, || EntityState {
            target,
            intervals: 0,
            good: 0,
            sum_demand_bps: 0.0,
            sum_delivered_bps: 0.0,
            sum_approved_bps: 0.0,
            alert: BurnAlert::new(policy, target),
            alerts: Vec::new(),
        });
        st.target = target;
        st.intervals += 1;
        if good {
            st.good += 1;
        }
        st.sum_demand_bps += demand_bps;
        st.sum_delivered_bps += delivered_bps;
        st.sum_approved_bps += approved_bps;
        let cycle = st.intervals;

        write(good);

        if let Some(t) = st.alert.observe(!good) {
            let event = AlertEvent {
                entity: entity.to_string(),
                qos: qos.to_string(),
                cycle,
                kind: t.kind,
                window: self.policy.window_label(),
                fast_burn: t.fast_burn,
                slow_burn: t.slow_burn,
            };
            let phase = match t.kind {
                AlertKind::Fire => "alert_fire",
                AlertKind::Clear => "alert_clear",
            };
            obs.point("slo", phase)
                .label_fmt(key!("cycle"), cycle)
                .label(key!("entity"), entity)
                .label_f64(key!("fast_burn"), t.fast_burn)
                .label(key!("qos"), qos)
                .label_f64(key!("slow_burn"), t.slow_burn)
                .label(key!("window"), &event.window)
                .finish();
            st.alerts.push(event);
        }
    }

    /// Rebuild the evaluator state from a recorded trace: every
    /// `slo`/`cycle` and `slo`/`interval` event is re-observed (without
    /// re-emitting — the sink is disabled). Alert transitions are
    /// *recomputed* from the sample stream under this evaluator's
    /// policy, so the same policy reproduces the in-process alert
    /// timeline exactly and a different policy re-judges the same run.
    ///
    /// Returns the observation events that did not decode
    /// ([`CycleObs::decode`], [`IntervalObs::decode`]); those are not
    /// folded, so a non-empty return means the report does not
    /// describe the run.
    pub fn fold_trace(&mut self, events: &[TraceEvent]) -> Vec<BadLabel> {
        fold_events(events, |silent, e| {
            match (e.span.as_str(), e.phase.as_str()) {
                ("slo", "cycle") => {
                    CycleObs::decode(e).map(|(o, target)| self.observe_cycle(silent, target, &o))
                }
                ("slo", "interval") => IntervalObs::decode(e).map(|o| self.observe(silent, &o)),
                _ => Ok(()),
            }
        })
    }

    /// Whether any entity's burn alert is firing right now.
    #[must_use]
    pub fn any_firing(&self) -> bool {
        self.states.values().flat_map(BTreeMap::values).any(|s| s.alert.firing())
    }

    /// Produce the report: one row per `(entity, QoS)` in key order.
    #[must_use]
    pub fn report(&self) -> SloReport {
        let entities = self
            .states
            .iter()
            .flat_map(|(entity, by_qos)| by_qos.iter().map(move |(qos, st)| (entity, qos, st)))
            .map(|(entity, qos, st)| {
                let attainment = if st.intervals > 0 {
                    st.good as f64 / st.intervals as f64
                } else {
                    1.0
                };
                let utilization = if st.sum_approved_bps > 0.0 {
                    st.sum_demand_bps / st.sum_approved_bps
                } else {
                    0.0
                };
                EntityReport {
                    entity: entity.clone(),
                    qos: qos.clone(),
                    target: st.target,
                    intervals: st.intervals,
                    good: st.good,
                    attainment,
                    utilization,
                    audit: self.policy.classify(utilization),
                    violated: attainment < st.target,
                    window: self.policy.window_label(),
                    mean_demand_gbps: mean_gbps(st.sum_demand_bps, st.intervals),
                    mean_delivered_gbps: mean_gbps(st.sum_delivered_bps, st.intervals),
                    mean_approved_gbps: mean_gbps(st.sum_approved_bps, st.intervals),
                    firing: st.alert.firing(),
                    alerts: st.alerts.clone(),
                }
            })
            .collect();
        SloReport {
            policy: self.policy.clone(),
            entities,
        }
    }
}

fn mean_gbps(sum_bps: f64, intervals: u64) -> f64 {
    if intervals == 0 {
        0.0
    } else {
        sum_bps / intervals as f64 / 1e9
    }
}

impl SloPolicy {
    /// Classify an entity's mean utilization (demand / approved) into
    /// an audit band.
    #[must_use]
    pub fn classify(&self, utilization: f64) -> crate::report::AuditClass {
        use crate::report::AuditClass;
        if utilization < self.under_utilization {
            AuditClass::OverEntitled
        } else if utilization > self.over_utilization {
            AuditClass::UnderEntitled
        } else {
            AuditClass::WellEntitled
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_obs::Clock;

    fn interval(good: bool) -> IntervalObs {
        IntervalObs {
            entity: "npg:2".to_string(),
            qos: "c3".to_string(),
            target: 0.99,
            demand_bps: 2e12,
            delivered_bps: if good { 1e12 } else { 0.2e12 },
            approved_bps: 1e12,
            measurable: true,
        }
    }

    #[test]
    fn good_and_bad_intervals_fold_into_attainment() {
        let mut ev = SloEvaluator::new(SloPolicy::default());
        let obs = Obs::disabled();
        for i in 0..100 {
            ev.observe(&obs, &interval(i % 50 != 0));
        }
        let r = ev.report();
        assert_eq!(r.entities.len(), 1);
        let e = &r.entities[0];
        assert_eq!(e.intervals, 100);
        assert_eq!(e.good, 98);
        assert!((e.attainment - 0.98).abs() < 1e-12);
        assert!(e.violated, "0.98 < 0.99 target");
    }

    #[test]
    fn unmeasurable_intervals_count_bad_fail_closed() {
        let mut ev = SloEvaluator::new(SloPolicy::default());
        let obs = Obs::disabled();
        let mut o = interval(true);
        o.measurable = false;
        ev.observe(&obs, &o);
        let r = ev.report();
        assert_eq!(r.entities[0].good, 0, "unmeasurable is never good");
    }

    #[test]
    fn delivery_tolerance_absorbs_slack() {
        let p = SloPolicy {
            delivery_tolerance: 0.2,
            ..Default::default()
        };
        let mut ev = SloEvaluator::new(p);
        let obs = Obs::disabled();
        let mut o = interval(true);
        // required = min(2T, 1T) * 0.8 = 0.8T
        o.delivered_bps = 0.85e12;
        ev.observe(&obs, &o);
        o.delivered_bps = 0.75e12;
        ev.observe(&obs, &o);
        let r = ev.report();
        assert_eq!(r.entities[0].good, 1);
    }

    #[test]
    fn interval_events_carry_the_fold_labels() {
        let mut ev = SloEvaluator::new(SloPolicy::default());
        let obs = Obs::new(Clock::manual(12));
        ev.observe(&obs, &interval(true));
        let events = obs.trace.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!((e.span.as_str(), e.phase.as_str()), ("slo", "interval"));
        let get = |k: &str| {
            e.labels
                .iter()
                .find(|(lk, _)| lk == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        assert_eq!(get("entity"), "npg:2");
        assert_eq!(get("qos"), "c3");
        assert_eq!(get("good"), "true");
        assert_eq!(get("delivered_bps"), "1000000000000");
    }

    #[test]
    fn sustained_badness_emits_fire_then_clear_events() {
        let mut ev = SloEvaluator::new(SloPolicy::default());
        let obs = Obs::new(Clock::manual(0));
        for _ in 0..20 {
            ev.observe(&obs, &interval(false));
        }
        assert!(ev.any_firing());
        for _ in 0..20 {
            ev.observe(&obs, &interval(true));
        }
        assert!(!ev.any_firing());
        let phases: Vec<String> = obs
            .trace
            .events()
            .iter()
            .filter(|e| e.phase.starts_with("alert_"))
            .map(|e| e.phase.clone())
            .collect();
        assert_eq!(phases, vec!["alert_fire", "alert_clear"]);
        let r = ev.report();
        assert_eq!(r.entities[0].alerts.len(), 2);
        assert_eq!(r.entities[0].alerts[0].kind, AlertKind::Fire);
        assert_eq!(r.entities[0].alerts[0].window, "fast5/slow60");
    }

    #[test]
    fn offline_fold_reproduces_the_streaming_report() {
        let run = |via_trace: bool| {
            let mut ev = SloEvaluator::new(SloPolicy::default());
            let obs = Obs::new(Clock::counting(1));
            for i in 0..80u64 {
                let mut o = interval(true);
                o.demand_bps = 1.3e12 + (i as f64) * 1e9;
                o.delivered_bps = if (30..45).contains(&i) { 0.1e12 } else { 1e12 };
                o.measurable = !(60..65).contains(&i);
                ev.observe(&obs, &o);
            }
            if via_trace {
                let mut offline = SloEvaluator::new(SloPolicy::default());
                offline.fold_trace(&obs.trace.events());
                offline.report()
            } else {
                ev.report()
            }
        };
        let streaming = run(false);
        let offline = run(true);
        assert_eq!(streaming.render_json(), offline.render_json());
        assert_eq!(streaming.render_text(), offline.render_text());
    }

    #[test]
    fn entities_report_in_key_order() {
        let mut ev = SloEvaluator::new(SloPolicy::default());
        let obs = Obs::disabled();
        let mut b = interval(true);
        b.entity = "npg:9".to_string();
        ev.observe(&obs, &b);
        ev.observe(&obs, &interval(true));
        let r = ev.report();
        assert_eq!(r.entities[0].entity, "npg:2");
        assert_eq!(r.entities[1].entity, "npg:9");
    }
}
