//! The end-to-end enforcement drill (paper §6, Figs 11–17).
//!
//! Reproduces the September 2021 production test: Coldstorage's egress
//! entitled rate for one region is cut (creating non-conforming
//! traffic), then switch ACLs drop a progressively larger share of the
//! non-conforming traffic — 0%, 12.5%, 50%, 100% — before everything is
//! rolled back. All the while the distributed agents meter and remark,
//! the bottleneck applies the strict-priority discipline, and the
//! storage application serves reads and writes with host failover.
//!
//! Time units: the drill timeline is in minutes (the paper's x-axis);
//! the contract database is keyed by drill-minute so the entitled-rate
//! cut at t=30 min is an ordinary contract rollover.

use crate::agent::{Agent, AgentConfig};
use crate::db::ContractDb;
use crate::marking::MarkingStrategy;
use entitlement_core::{
    Direction, Entitlement, HostId, NpgId, Period, QosClass, Rate, RegionId, SloTarget,
};
use entitlement_chaos::{ChaosStore, FaultPlan};
use entitlement_kvstore::{ObservedKv, ShardedStore, StoreConfig};
use entitlement_obs::Obs;
use entitlement_simnet::{
    AclRule, Bottleneck, MarkingCommand, Recorder, StorageApp, World, WorldConfig,
};
use entitlement_slo::watch::WatchEvaluator;
use entitlement_slo::{CycleObs, SloEvaluator};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// One ACL stage of the drill.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DrillStage {
    /// Stage start, minutes into the drill.
    pub start_min: f64,
    /// Drop fraction applied to non-conforming traffic.
    pub drop_fraction: f64,
}

/// Minute at which the entitlement is cut (paper: 30).
pub const CUT_MIN: u32 = 30;

/// Simulation tick, seconds: the production 30 s metering cycle.
pub const DT_SECS: f64 = 30.0;

/// Drill configuration (defaults follow the paper's timeline).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DrillConfig {
    /// Host count of the monitored service (the real drill used O(10k)).
    pub hosts: usize,
    /// Entitled rate before the cut.
    pub entitled_before: Rate,
    /// Entitled rate after the cut (paper: 1 Tbps).
    pub entitled_after: Rate,
    /// ACL stages (paper: 12.5% / 50% / 100% at ~35 min intervals).
    pub stages: Vec<DrillStage>,
    /// Minute at which all ACLs are removed (paper: ~225).
    pub rollback_min: f64,
    /// Total drill duration, minutes.
    pub duration_min: f64,
    /// Marking granularity (production default: host-based).
    pub strategy: MarkingStrategy,
    /// Seed.
    pub seed: u64,
    /// Fault plan injected between the agent and the KV store
    /// (`None` = healthy drill). Windows are in logical milliseconds
    /// of drill time (tick `k` happens at `k * DT_SECS * 1000` ms).
    pub faults: Option<FaultPlan>,
}

impl Default for DrillConfig {
    fn default() -> Self {
        DrillConfig {
            hosts: 2000,
            entitled_before: Rate::tbps(3.0),
            entitled_after: Rate::tbps(1.0),
            stages: vec![
                DrillStage {
                    start_min: 70.0,
                    drop_fraction: 0.125,
                },
                DrillStage {
                    start_min: 105.0,
                    drop_fraction: 0.5,
                },
                DrillStage {
                    start_min: 150.0,
                    drop_fraction: 1.0,
                },
            ],
            rollback_min: 225.0,
            duration_min: 250.0,
            strategy: MarkingStrategy::HostBased,
            seed: 0xD217,
            faults: None,
        }
    }
}

/// Demand ramp of the drill: the service is quiet early ("before x=65
/// min, the total rate closely matches the conforming rate as the
/// service is not busy, but as service traffic increases, more traffic
/// is marked as non-conforming") and busy later.
fn demand_multiplier(t_secs: f64) -> f64 {
    let t_min = t_secs / 60.0;
    // 0.9 T at start, ramping to 2.2 T between minute 20 and 120.
    0.9 + 1.3 * ((t_min - 20.0) / 100.0).clamp(0.0, 1.0)
}

/// [`run_drill_with`] without telemetry: a disabled [`Obs`] and
/// default evaluators nobody reads.
pub fn run_drill(config: &DrillConfig) -> Recorder {
    run_drill_with(
        config,
        &Obs::disabled(),
        &mut SloEvaluator::default(),
        &mut WatchEvaluator::default(),
    )
}

/// Run the drill; returns the recorder with every Fig 11–17 series.
///
/// The metering loop runs through the real KV plumbing: each tick the
/// agent publishes the observed rates into a [`ShardedStore`] (behind
/// a fault-injecting [`ChaosStore`]) and reads the aggregates back
/// before cycling. On a healthy store this is bitwise-identical to
/// metering the observation directly; under a [`FaultPlan`] the agent
/// goes fail-static on unavailable aggregates and the recorded series
/// show the held decision.
///
/// Recorded series (one sample per tick, times in seconds):
/// `loss_conf`, `loss_nonconf`, `rate_total_tbps`, `rate_conform_tbps`,
/// `rate_entitled_tbps`, `rtt_conf_ms`, `rtt_nonconf_ms`, `syn_conf`,
/// `syn_nonconf`, `read_latency_s`, `write_latency_s`, `block_errors`,
/// `marked_fraction` — plus the failure-mode series `kv_unavailable`
/// (1.0 when this tick's aggregate read failed), `fail_static`
/// (cumulative held-decision cycles) and `staleness_ms` (age of the
/// aggregates behind the standing decision).
///
/// **Telemetry.** The drill's logical time drives `obs.clock` (one
/// `set_ms` per tick, so a manual clock tracks drill time exactly),
/// every KV operation crosses an [`ObservedKv`] decorator (`kv` trace
/// spans with their outcome), each metering cycle is an `agent`/`cycle`
/// span that parents its KV spans, and the metered tick's `slo`/`cycle`
/// event carries the agent's staleness. Decoration only: the recorded
/// series are bitwise identical whatever `obs` is.
///
/// **Health folds.** The caller owns them: it builds `slo` and `watch`
/// under whatever policy it wants and reads `report()` afterwards.
/// Every tick with a completed agent cycle is one [`CycleObs`]
/// (conforming delivery vs. the entitled rate in force, fail-closed on
/// KV-unavailable ticks, plus the marked/conforming split and the
/// aggregate staleness). `slo` folds it and writes it, once, as an
/// `slo`/`cycle` event (plus any `alert_*`); `watch` then folds the
/// same tick and writes only its `violation`, `fire` and `clear`
/// events. Re-folding the saved trace with `fold_trace` under the
/// same policy reproduces both reports byte-for-byte.
pub fn run_drill_with(
    config: &DrillConfig,
    obs: &Obs,
    slo: &mut SloEvaluator,
    watch: &mut WatchEvaluator,
) -> Recorder {
    // --- Contract database: the entitlement cut is a contract rollover.
    let db = ContractDb::new();
    let npg = NpgId(2); // "coldstorage" in the catalog ordering
    let qos = QosClass::C3;
    let region = RegionId(0);
    let slo_target = 0.99;
    let contract_slo = SloTarget::new(slo_target).expect("a probability");
    for (entitled_rate, period) in [
        (config.entitled_before, Period::new(0, CUT_MIN)),
        (config.entitled_after, Period::new(CUT_MIN, u32::MAX)),
    ] {
        let entitlement = Entitlement {
            npg,
            qos,
            region,
            direction: Direction::Egress,
            entitled_rate,
            period,
        };
        db.insert(npg, contract_slo, vec![entitlement])
            .expect("valid contract");
    }

    // --- The world: Coldstorage fleet behind a 10T bottleneck.
    let mut bottleneck = Bottleneck {
        capacity: Rate::tbps(10.0),
        base_rtt_ms: 40.0,
        max_queue_ms: 20.0,
        acls: Vec::new(),
    };
    // ACL stages: each stage runs until the next one starts; the last
    // runs until rollback.
    for (i, stage) in config.stages.iter().enumerate() {
        let end_min = config
            .stages
            .get(i + 1)
            .map_or(config.rollback_min, |s| s.start_min);
        bottleneck.acls.push(AclRule {
            from_secs: stage.start_min * 60.0,
            to_secs: end_min * 60.0,
            drop_fraction: stage.drop_fraction,
        });
    }
    let mut world = World::new(
        WorldConfig {
            hosts: config.hosts,
            base_rate: Rate::tbps(1.0),
            dt_secs: DT_SECS,
            seed: config.seed,
        },
        bottleneck,
    );
    world.set_demand_multiplier(demand_multiplier);

    // --- One representative agent (all agents compute identically).
    let mut agent = Agent::new(AgentConfig {
        host: HostId(0),
        npg,
        qos,
        region,
        strategy: config.strategy,
    });

    // --- The KV store the metering loop runs through, behind the
    // fault plan (an empty plan injects nothing).
    let store = Arc::new(ShardedStore::new(StoreConfig {
        shards: 8,
        ttl: Duration::from_secs_f64(DT_SECS * 4.0),
    }));
    let plan = Arc::new(config.faults.clone().unwrap_or_default());
    let kv = ObservedKv::new(ChaosStore::new(store, plan), obs);

    // --- The storage application.
    let mut app = StorageApp::default();

    // --- Main loop.
    let mut recorder = Recorder::new();
    let ticks = (config.duration_min * 60.0 / DT_SECS) as usize;
    let mut marking = MarkingCommand::None;
    let mut last_seen: Option<entitlement_simnet::Observation> = None;

    for k in 0..ticks {
        let t = k as f64 * DT_SECS;
        let minute = (t / 60.0) as u32;
        let now_ms = (t * 1000.0) as u64;

        // Agent cycle: contract refresh, publish the last observation
        // into the KV store, read the aggregates back, meter. The
        // publish and the read both cross the fault layer; an
        // unavailable aggregate holds the previous decision.
        obs.clock.set_ms(now_ms);
        let entitled = agent.refresh_contract(&db, minute).unwrap_or(Rate::ZERO);
        let mut kv_unavailable = 0.0;
        let cycled = last_seen.is_some();
        if let Some(o) = &last_seen {
            let cycle_span = obs.span("agent", "cycle");
            let _ = agent.publish(&kv, o.total_sent, o.conf_sent, now_ms);
            let observed = agent.read_aggregates(&kv, now_ms);
            if observed.is_err() {
                kv_unavailable = 1.0;
            }
            agent.cycle_observed(observed, now_ms);
            marking = agent.marking_command(config.hosts);
            cycle_span.finish();
        }

        // World step.
        let seen = world.step(t, &marking);

        // Application step (impact depends on the marking granularity).
        let m = marking.marked_fraction(config.hosts);
        let app_metrics = match config.strategy {
            MarkingStrategy::HostBased => {
                app.step(m, seen.fabric.nonconf_loss, seen.fabric.conf_loss)
            }
            MarkingStrategy::FlowBased => {
                app.step_flow_based(m, seen.fabric.nonconf_loss, seen.fabric.conf_loss)
            }
        };

        recorder.tick(t);
        recorder.record("loss_conf", seen.fabric.conf_loss);
        recorder.record("loss_nonconf", seen.fabric.nonconf_loss);
        recorder.record("rate_total_tbps", seen.total_sent.as_tbps());
        recorder.record("rate_conform_tbps", seen.conf_sent.as_tbps());
        recorder.record("rate_entitled_tbps", entitled.as_tbps());
        recorder.record("rtt_conf_ms", seen.fabric.conf_rtt_ms);
        recorder.record("rtt_nonconf_ms", seen.fabric.nonconf_rtt_ms);
        recorder.record("syn_conf", seen.tcp_conf.syn_sent);
        recorder.record("syn_nonconf", seen.tcp_nonconf.syn_sent);
        recorder.record("read_latency_s", app_metrics.read_latency_secs);
        recorder.record("write_latency_s", app_metrics.write_latency_secs);
        recorder.record("block_errors", app_metrics.block_errors);
        recorder.record("marked_fraction", m);
        recorder.record("kv_unavailable", kv_unavailable);
        recorder.record("fail_static", agent.fail_static_cycles() as f64);
        recorder.record("staleness_ms", agent.staleness_ms(now_ms) as f64);

        // Health folds: one observation per metered tick. A tick whose
        // aggregate read failed is unmeasurable: the SLO counts it bad
        // (fail-closed), regardless of what the wire delivered.
        if cycled {
            let total = seen.total_sent.as_bps();
            let delivered = seen.conf_sent.as_bps();
            let tick = CycleObs {
                entity: npg.to_string(),
                qos: qos.to_string(),
                demand_bps: total,
                delivered_bps: delivered,
                approved_bps: entitled.as_bps(),
                marked_fraction: m,
                conform_fraction: if total > 0.0 { delivered / total } else { 1.0 },
                staleness_ms: agent.staleness_ms(now_ms) as f64,
                measurable: kv_unavailable == 0.0,
            };
            slo.observe_cycle(obs, slo_target, &tick);
            watch.observe_cycle(obs, &tick);
        }

        last_seen = Some(seen);
    }
    recorder
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minute_mean(r: &Recorder, name: &str, from_min: f64, to_min: f64) -> f64 {
        r.window_mean(name, from_min * 60.0, to_min * 60.0)
    }

    fn drill() -> Recorder {
        run_drill(&DrillConfig {
            hosts: 500, // smaller fleet for test speed
            ..Default::default()
        })
    }

    #[test]
    fn fig11_conforming_loss_stays_zero() {
        let r = drill();
        let conf_loss = minute_mean(&r, "loss_conf", 0.0, 250.0);
        assert!(
            conf_loss < 0.005,
            "conforming loss must stay ~0, got {conf_loss}"
        );
    }

    #[test]
    fn fig11_nonconforming_loss_steps() {
        let r = drill();
        // Mid-stage windows to avoid transitions.
        let s0 = minute_mean(&r, "loss_nonconf", 40.0, 65.0);
        let s125 = minute_mean(&r, "loss_nonconf", 80.0, 100.0);
        let s50 = minute_mean(&r, "loss_nonconf", 115.0, 145.0);
        let s100 = minute_mean(&r, "loss_nonconf", 160.0, 220.0);
        let after = minute_mean(&r, "loss_nonconf", 235.0, 250.0);
        assert!(s0 < 0.02, "stage0 {s0}");
        assert!((s125 - 0.125).abs() < 0.05, "stage12.5 {s125}");
        assert!((s50 - 0.5).abs() < 0.1, "stage50 {s50}");
        assert!(s100 > 0.9, "stage100 {s100}");
        assert!(after < 0.05, "after rollback {after}");
    }

    #[test]
    fn fig12_total_converges_to_entitled_under_full_drop() {
        let r = drill();
        // During the 100% stage the total sent rate collapses toward the
        // 1T entitlement ("the total rate continues to decrease until it
        // matches the entitled rate").
        let total_late = minute_mean(&r, "rate_total_tbps", 190.0, 220.0);
        assert!(
            (total_late - 1.0).abs() < 0.25,
            "total {total_late} should approach the 1T entitlement"
        );
        // After rollback the rate recovers toward demand (~2.2T).
        let recovered = minute_mean(&r, "rate_total_tbps", 240.0, 250.0);
        assert!(recovered > 1.8, "recovered {recovered}");
    }

    #[test]
    fn fig12_conforming_never_exceeds_entitled_after_cut() {
        let r = drill();
        let conform = r.series("rate_conform_tbps");
        let entitled = r.series("rate_entitled_tbps");
        for (i, &t) in r.times.iter().enumerate() {
            // Allow the metering loop a settling window after the cut.
            if t > 50.0 * 60.0 && t < 225.0 * 60.0 {
                assert!(
                    conform[i] <= entitled[i] * 1.25 + 0.05,
                    "t={}min conform {} vs entitled {}",
                    t / 60.0,
                    conform[i],
                    entitled[i]
                );
            }
        }
    }

    #[test]
    fn fig13_rtt_conforming_flat() {
        let r = drill();
        let early = minute_mean(&r, "rtt_conf_ms", 5.0, 25.0);
        let during = minute_mean(&r, "rtt_conf_ms", 160.0, 220.0);
        assert!(
            (during - early).abs() < 3.0,
            "conforming RTT moved: {early} -> {during}"
        );
    }

    #[test]
    fn fig14_syn_rises_with_drop_percentage() {
        let r = drill();
        let s125 = minute_mean(&r, "syn_nonconf", 80.0, 100.0);
        let s50 = minute_mean(&r, "syn_nonconf", 115.0, 145.0);
        let s100 = minute_mean(&r, "syn_nonconf", 160.0, 220.0);
        assert!(s50 > s125, "{s50} !> {s125}");
        assert!(s100 > s50, "{s100} !> {s50}");
        // Conforming SYNs stay flat relative to their own baseline.
        let syn_conf_mid = minute_mean(&r, "syn_conf", 115.0, 145.0);
        let syn_conf_late = minute_mean(&r, "syn_conf", 160.0, 220.0);
        assert!((syn_conf_late / syn_conf_mid - 1.0).abs() < 0.5);
    }

    #[test]
    fn fig15_read_latency_rises_then_falls_at_100pct() {
        let r = drill();
        let base = minute_mean(&r, "read_latency_s", 40.0, 65.0);
        let at50 = minute_mean(&r, "read_latency_s", 115.0, 145.0);
        let at100 = minute_mean(&r, "read_latency_s", 170.0, 220.0);
        assert!(at50 > base * 1.5, "50% drop hurts reads: {at50} vs {base}");
        assert!(
            at100 < at50,
            "100% drop recovers via failover: {at100} vs {at50}"
        );
    }

    #[test]
    fn fig16_fig17_writes_suffer_and_error() {
        let r = drill();
        let base_w = minute_mean(&r, "write_latency_s", 40.0, 65.0);
        let at125 = minute_mean(&r, "write_latency_s", 80.0, 100.0);
        assert!(
            at125 > base_w * 1.5,
            "write latency severe even at 12.5%: {at125} vs {base_w}"
        );
        let errs_base = minute_mean(&r, "block_errors", 40.0, 65.0);
        let errs_100 = minute_mean(&r, "block_errors", 155.0, 180.0);
        assert!(errs_100 > errs_base + 1.0, "block errors spike: {errs_100}");
    }

    #[test]
    fn healthy_drill_watch_is_silent_and_refolds_byte_identically() {
        let cfg = DrillConfig {
            hosts: 500,
            ..Default::default()
        };
        let obs = Obs::new(entitlement_obs::Clock::manual(0));
        let mut live = WatchEvaluator::default();
        run_drill_with(&cfg, &obs, &mut SloEvaluator::default(), &mut live);
        let watch = live.report();
        assert!(watch.healthy(), "{}", watch.render_text());
        assert_eq!(watch.cycles, 499, "one metered cycle per tick after the first");
        let mut offline = WatchEvaluator::default();
        assert_eq!(offline.fold_trace(&obs.trace.events()), []);
        let refolded = offline.report();
        assert_eq!(refolded.render_json(), watch.render_json());
        assert_eq!(refolded.render_text(), watch.render_text());
        assert_eq!(refolded, watch);
    }

    #[test]
    fn drill_is_deterministic() {
        let a = drill();
        let b = drill();
        assert_eq!(a.series("rate_total_tbps"), b.series("rate_total_tbps"));
    }

    #[test]
    fn traced_drill_matches_plain_and_traces_are_reproducible() {
        let cfg = DrillConfig {
            hosts: 200,
            duration_min: 20.0,
            ..Default::default()
        };
        let run = || {
            let obs = Obs::new(entitlement_obs::Clock::manual(0));
            let r = run_drill_with(
                &cfg,
                &obs,
                &mut SloEvaluator::default(),
                &mut WatchEvaluator::default(),
            );
            (r, obs)
        };
        let (traced, obs_a) = run();
        let (_, obs_b) = run();
        let plain = run_drill(&cfg);
        // Decoration only: recorded series are bitwise identical.
        assert_eq!(
            traced.series("rate_total_tbps"),
            plain.series("rate_total_tbps")
        );
        // Identical seeds → byte-identical traces.
        assert_eq!(obs_a.trace.to_jsonl(), obs_b.trace.to_jsonl());
        // The trace covers both the agent cycle and the KV layer.
        let events = obs_a.trace.events();
        assert!(events.iter().any(|e| e.span == "agent" && e.phase == "cycle"));
        assert!(events.iter().any(|e| e.span == "kv"));
        let text = entitlement_obs::fold_metrics(&events).unwrap();
        assert!(text.contains("entitlement_kv_ops_total"));
        assert!(text.contains("entitlement_agent_staleness_ms_count"));
    }
}
