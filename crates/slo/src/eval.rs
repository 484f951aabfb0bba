//! The streaming SLO evaluator: a fold over per-cycle interval
//! observations, keyed by `(entity, QoS)`.
//!
//! The drill and fleet engine loops feed [`SloEvaluator::observe`] one
//! [`IntervalObs`] per metering cycle — no post-hoc re-parse — and each
//! observation is simultaneously emitted as an `slo`/`interval` trace
//! event (pinned JSONL key order, floats in shortest-round-trip form),
//! so [`SloEvaluator::fold_trace`] can rebuild the identical evaluator
//! offline from the trace file alone. `entitlectl slo report|audit` is
//! exactly that offline fold.
//!
//! **Fail-closed accounting**: an interval whose aggregates were
//! unreadable (`measurable == false`, e.g. a KV shard outage) counts
//! *bad* even if traffic kept flowing — an SLO you cannot measure is an
//! SLO you cannot claim.

use crate::burn::{AlertKind, BurnAlert};
use crate::config::SloPolicy;
use crate::report::{EntityReport, SloReport};
use entitlement_obs::{BadLabel, Obs, TraceEvent};
use std::collections::BTreeMap;

/// One metering cycle's delivery observation for one `(entity, QoS)`.
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

impl IntervalObs {
    /// The wire form: one `slo`/`interval` event carrying every field
    /// plus the fold's `good` verdict (informational — a re-fold
    /// recomputes it under its own policy). Labels in key order, which
    /// is the order the sink writes them in.
    fn encode(&self, obs: &Obs, good: bool) {
        obs.point("slo", "interval")
            .label_f64("approved_bps", self.approved_bps)
            .label_f64("delivered_bps", self.delivered_bps)
            .label_f64("demand_bps", self.demand_bps)
            .label("entity", &self.entity)
            .label_fmt("good", good)
            .label_fmt("measurable", self.measurable)
            .label("qos", &self.qos)
            .label_f64("target", self.target)
            .finish();
    }

    /// Read an `slo`/`interval` event back. Every field is required.
    ///
    /// # Errors
    ///
    /// Names the first label that is missing or does not parse;
    /// nothing is defaulted.
    pub fn decode(e: &TraceEvent) -> Result<IntervalObs, BadLabel> {
        Ok(IntervalObs {
            entity: e.need("entity")?.to_string(),
            qos: e.need("qos")?.to_string(),
            target: e.num("target")?,
            demand_bps: e.num("demand_bps")?,
            delivered_bps: e.num("delivered_bps")?,
            approved_bps: e.num("approved_bps")?,
            measurable: e.parsed("measurable")?,
        })
    }
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
pub type PairMap<T> = BTreeMap<String, BTreeMap<String, T>>;

/// The state of `(entity, qos)` in `map`, made by `make` on first
/// sight, the only time the names are copied.
pub fn pair_mut<'a, T>(
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

    /// Fold one interval, emitting `slo` trace events into `obs`
    /// (an `interval` event always; `alert_fire`/`alert_clear` on a
    /// burn-alert transition).
    pub fn observe(&mut self, obs: &Obs, o: &IntervalObs) {
        let required =
            o.demand_bps.min(o.approved_bps) * (1.0 - self.policy.delivery_tolerance);
        let good = o.measurable && o.delivered_bps >= required;

        let policy = &self.policy;
        let st = pair_mut(&mut self.states, &o.entity, &o.qos, || EntityState {
            target: o.target,
            intervals: 0,
            good: 0,
            sum_demand_bps: 0.0,
            sum_delivered_bps: 0.0,
            sum_approved_bps: 0.0,
            alert: BurnAlert::new(policy, o.target),
            alerts: Vec::new(),
        });
        st.target = o.target;
        st.intervals += 1;
        if good {
            st.good += 1;
        }
        st.sum_demand_bps += o.demand_bps;
        st.sum_delivered_bps += o.delivered_bps;
        st.sum_approved_bps += o.approved_bps;
        let cycle = st.intervals;

        o.encode(obs, good);

        if let Some(t) = st.alert.observe(!good) {
            let event = AlertEvent {
                entity: o.entity.clone(),
                qos: o.qos.clone(),
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
                .label("entity", &o.entity)
                .label("qos", &o.qos)
                .label_fmt("cycle", cycle)
                .label("window", &event.window)
                .label_f64("fast_burn", t.fast_burn)
                .label_f64("slow_burn", t.slow_burn)
                .finish();
            st.alerts.push(event);
        }
    }

    /// Rebuild the evaluator state from a recorded trace: every
    /// `slo`/`interval` event is re-observed (without re-emitting —
    /// the sink is disabled). Alert transitions are *recomputed* from
    /// the interval stream under this evaluator's policy, so the same
    /// policy reproduces the in-process alert timeline exactly and a
    /// different policy re-judges the same run.
    ///
    /// Returns the interval events that did not decode
    /// ([`IntervalObs::decode`]); those are not folded, so a non-empty
    /// return means the report does not describe the run.
    pub fn fold_trace(&mut self, events: &[TraceEvent]) -> Vec<BadLabel> {
        let silent = Obs::disabled();
        let mut malformed = Vec::new();
        for e in events {
            if e.span != "slo" || e.phase != "interval" {
                continue;
            }
            match IntervalObs::decode(e) {
                Ok(o) => self.observe(&silent, &o),
                Err(bad) => malformed.push(bad),
            }
        }
        malformed
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
