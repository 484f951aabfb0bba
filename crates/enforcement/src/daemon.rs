//! The tokio agent daemon: the distributed enforcement fleet as real
//! concurrent tasks.
//!
//! Each simulated host runs an agent task that periodically publishes
//! its rate into the shared KV store, runs the stateful meter on the
//! service aggregates, and updates a shared marking decision — the same
//! loop `agent.rs` exposes synchronously, here exercised under real
//! concurrency (task scheduling, concurrent publishes into one store,
//! TTL'd rates from slow agents).
//!
//! Aggregates reach the fleet through a **per-shard fan-out** instead
//! of every agent polling the global prefix sum: once per round the
//! driver reads each KV shard's partial through a [`ShardFanout`]
//! (O(shards) reads, with a one-cycle staleness bound on held
//! partials), folds them in shard order, and broadcasts the folded
//! `(total, conform)` — or the fold's error — on a watch channel every
//! agent meters from. The old path cost O(agents) aggregate reads per
//! cycle; a regression test pins the new read count to
//! `2 × shards × cycles` regardless of fleet size.
//!
//! The KV path is the one the drill and the sharded fleet engine run
//! on: one [`ShardedStore`] behind `Arc`, one fault-injecting
//! [`ChaosStore`] over it that every agent publishes through, and an
//! [`ObservedKv`] over that same `ChaosStore` for the driver's fan-out
//! reads. With a [`FaultPlan`], outages, dropped publishes, stale
//! reads and clock skew therefore reach the daemon exactly as they
//! reach the drill; `AddedLatency` is honoured here alone, as a real
//! sleep before each round's fan-out; and hosts listed in an
//! `AgentCrash` fault skip their rounds and restart with empty state
//! when the window closes. Agents go **fail-static** on unavailable
//! aggregates ([`Agent::cycle_observed`]): a KV outage freezes the
//! standing decision, it never unthrottles the fleet.

use crate::agent::{Agent, AgentConfig};
use crate::marking::MarkingStrategy;
use crate::metrics::{aggregate_fleet, MetricsSnapshot};
use entitlement_chaos::{ChaosStore, FaultPlan};
use entitlement_core::{HostId, NpgId, QosClass, Rate, RegionId};
use entitlement_kvstore::{KvError, ObservedKv, ShardFanout, ShardedStore, StoreConfig};
use entitlement_obs::Obs;
use entitlement_slo::{IntervalObs, SloEvaluator};
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::watch;

/// Configuration for a daemon fleet run.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Number of agent tasks.
    pub hosts: usize,
    /// Service being enforced.
    pub npg: NpgId,
    /// Class being enforced.
    pub qos: QosClass,
    /// Region.
    pub region: RegionId,
    /// Entitled rate (fixed for the run; contract DB integration is
    /// exercised in the sync agent tests).
    pub entitled: Rate,
    /// Offered rate per host.
    pub per_host_rate: Rate,
    /// Metering cycle interval.
    pub cycle: Duration,
    /// Number of cycles to run.
    pub cycles: usize,
    /// Fault plan injected between the agents and the store
    /// (`None` = healthy run). Windows are in logical milliseconds:
    /// round `r` of the run happens at `r * cycle` ms.
    pub faults: Option<FaultPlan>,
}

/// The SLO target of the run's fixed contract, also the target its
/// SLO intervals are judged against.
const SLO_TARGET: f64 = 0.999;

/// Final state of a daemon run.
#[derive(Clone, Debug)]
pub struct DaemonOutcome {
    /// The meter conform ratio each agent ended with (eq. 6 output;
    /// same order as hosts).
    pub conform_ratios: Vec<f64>,
    /// The fraction of the fleet each agent's final decision marks
    /// non-conforming (derived from the conform ratio via the marking
    /// granularity — not the conform ratio itself).
    pub marked_fractions: Vec<f64>,
    /// The service-wide total rate the store last aggregated.
    pub final_total: Rate,
    /// Fleet-wide sum of cycles that ran fail-static on an
    /// unavailable aggregate.
    pub fail_static_cycles: u64,
    /// Fleet-wide sum of failed aggregate reads.
    pub aggregate_read_failures: u64,
    /// Fleet-wide sum of agent crash/restart cycles.
    pub restarts: u64,
    /// Shard-aggregate reads the driver's fan-out issued across the
    /// run: `2 × kv_shards × cycles`, independent of the host count.
    pub fanout_reads: u64,
    /// KV shard count behind the fan-out.
    pub kv_shards: usize,
}

/// [`run_fleet_with`] without telemetry: a disabled [`Obs`] and a
/// default evaluator nobody reads.
pub async fn run_fleet(config: DaemonConfig) -> DaemonOutcome {
    run_fleet_with(config, &Obs::disabled(), &mut SloEvaluator::default()).await
}

/// Run a fleet of agent tasks to convergence.
///
/// The "network" here is trivial (no drops): the point of this harness
/// is the concurrency architecture — N tasks against one store, all
/// reaching the same decision with no controller — and, with a fault
/// plan, that the decision *survives* a degraded store.
///
/// Rounds advance on a watch channel and carry a logical clock
/// (`round * cycle` ms), so fault windows hit the same rounds on every
/// run regardless of scheduler timing.
///
/// **Telemetry.** The driver's fan-out reads cross an [`ObservedKv`]
/// recording the drill's KV families (`entitlement_kv_ops_total`,
/// `entitlement_kv_op_ms`, `kv/shard_aggregate` spans), each metering
/// cycle records the agent's marked-fraction decision and
/// aggregate staleness into fleet-wide histograms
/// (`entitlement_agent_marked_fraction`,
/// `entitlement_agent_staleness_ms`), and on completion every agent's
/// [`AgentMetrics`](crate::AgentMetrics) snapshot is folded into
/// `obs.registry` by [`aggregate_fleet`] — one scrapeable registry for
/// the whole fleet. The outcome is the same whatever `obs` is.
///
/// **SLO fold.** The caller owns it: it builds `slo` under whatever
/// policy it wants and reads `report()` afterwards. After each round
/// the driver reads the fleet-wide conforming aggregate and feeds `slo`
/// one [`IntervalObs`] (fleet demand vs. the entitled rate; a round
/// inside a shard-outage window is unmeasurable and counts bad,
/// fail-closed). Unlike the synchronous drill, the mid-round aggregate
/// races real agent tasks, so the per-round *values* are not
/// byte-stable — tests assert structure, not exact burn rates.
pub async fn run_fleet_with(
    config: DaemonConfig,
    obs: &Obs,
    slo: &mut SloEvaluator,
) -> DaemonOutcome {
    let decision_hist = obs.registry.histogram(
        "entitlement_agent_marked_fraction",
        "Per-cycle marked fraction decided by each agent",
        &[],
    );
    let staleness_hist = obs.registry.histogram(
        "entitlement_agent_staleness_ms",
        "Age of the aggregates behind the agent's standing decision",
        &[],
    );
    let kv_shards = 32usize;
    let store = Arc::new(ShardedStore::new(StoreConfig {
        shards: kv_shards,
        ttl: config.cycle * 4,
    }));
    let plan = Arc::new(config.faults.clone().unwrap_or_default());
    // One fault layer over the one store: agents publish through
    // `kv.inner()`, the driver's fan-out reads through `kv` itself.
    let kv = Arc::new(ObservedKv::new(
        ChaosStore::new(Arc::clone(&store), Arc::clone(&plan)),
        obs,
    ));
    let cycle_ms = config.cycle.as_millis() as u64;

    // Broadcast of the logical cycle number: agents step in rounds so
    // the test is deterministic while still running concurrently.
    let (round_tx, round_rx) = watch::channel(0usize);
    // Broadcast of each round's folded aggregates. Agents meter from
    // this instead of issuing their own global reads — the fan-out
    // keeps the per-round KV read count at O(shards), not O(agents).
    type FoldedAggregates = (usize, Result<(f64, f64), KvError>);
    let (agg_tx, agg_rx) = watch::channel::<FoldedAggregates>((0, Err(KvError::ShardUnavailable)));

    let mut handles = Vec::with_capacity(config.hosts);
    for h in 0..config.hosts {
        let kv = Arc::clone(&kv);
        let mut round_rx = round_rx.clone();
        let mut agg_rx = agg_rx.clone();
        let cfg = config.clone();
        let plan = Arc::clone(&plan);
        let decision_hist = decision_hist.clone();
        let staleness_hist = staleness_hist.clone();
        handles.push(tokio::spawn(async move {
            let mut agent = Agent::new(AgentConfig {
                host: HostId(h as u32),
                npg: cfg.npg,
                qos: cfg.qos,
                region: cfg.region,
                strategy: MarkingStrategy::HostBased,
                max_staleness_ms: AgentConfig::DEFAULT_MAX_STALENESS_MS,
            });
            // Fixed contract for the run.
            let db = crate::db::ContractDb::new();
            db.insert(
                cfg.npg,
                entitlement_core::SloTarget::new(SLO_TARGET).expect("a probability"),
                vec![entitlement_core::Entitlement {
                    npg: cfg.npg,
                    qos: cfg.qos,
                    region: cfg.region,
                    direction: entitlement_core::Direction::Egress,
                    entitled_rate: cfg.entitled,
                    period: entitlement_core::Period::new(0, u32::MAX),
                }],
            )
            .unwrap();
            agent.refresh_contract(&db, 0);

            let mut last_round = 0usize;
            let mut was_down = false;
            loop {
                if round_rx.changed().await.is_err() {
                    break;
                }
                let round = *round_rx.borrow();
                if round == usize::MAX {
                    break;
                }
                if round <= last_round {
                    continue;
                }
                last_round = round;
                let now_ms = round as u64 * cycle_ms;

                // A crashed host does nothing this round: it neither
                // publishes (the TTL ages it out of the aggregates,
                // like any dead host) nor meters.
                if plan.agent_down(h as u32, now_ms) {
                    was_down = true;
                    continue;
                }
                if was_down {
                    // Process restart: meter and table come back empty
                    // and the contract is re-read; the next healthy
                    // cycle re-derives the fleet decision from the
                    // shared aggregates.
                    agent.restart();
                    agent.refresh_contract(&db, 0);
                    was_down = false;
                }

                // Publish this host's rates: conforming share follows the
                // agent's own previous decision.
                let cr = agent.marking_command(cfg.hosts);
                let marked = agent.self_marked() && cr != entitlement_simnet::MarkingCommand::None;
                let conforming = if marked { Rate::ZERO } else { cfg.per_host_rate };
                // Publishes cross the shared fault layer; aggregates
                // arrive on the driver's fan-out broadcast.
                let _ = agent.publish(kv.inner(), cfg.per_host_rate, conforming, now_ms);
                // Wait for the driver's fan-out to fold this round's
                // shard partials and broadcast the result.
                let folded = loop {
                    let (r, folded) = *agg_rx.borrow();
                    if r >= round {
                        break folded;
                    }
                    if agg_rx.changed().await.is_err() {
                        return agent;
                    }
                };
                let observed = folded.map(|(t, c)| (Rate::bps(t), Rate::bps(c)));
                if observed.is_err() {
                    agent.metrics.aggregate_read_failures.inc();
                }
                agent.cycle_observed(observed, now_ms);
                decision_hist.record(agent.marking_command(cfg.hosts).marked_fraction(cfg.hosts));
                staleness_hist.record(agent.staleness_ms(now_ms) as f64);
            }
            agent
        }));
    }

    // Drive the rounds. Mid-round the driver folds the shard partials
    // through the fan-out (reads cross the same fault layer the agents
    // publish through) and broadcasts the result; each round ends with
    // one SLO interval folded from the store's conforming aggregate.
    let total_prefix = format!("rates/{}/{}/total/", config.npg.0, config.qos);
    let conform_prefix = format!("rates/{}/{}/conform/", config.npg.0, config.qos);
    // Held partials may serve for one cycle before the fold goes
    // fail-static — the same bounded-staleness window agents apply.
    let mut fan_total = ShardFanout::new(kv_shards, cycle_ms);
    let mut fan_conform = ShardFanout::new(kv_shards, cycle_ms);
    let fleet_demand_bps = config.hosts as f64 * config.per_host_rate.as_bps();
    for round in 1..=config.cycles {
        round_tx.send(round).expect("agents alive");
        // First half-cycle: agents publish their shard partials.
        tokio::time::sleep(config.cycle / 2).await;
        let now_ms = round as u64 * cycle_ms;
        // `AddedLatency` slows the round's fan-out, nothing else.
        let latency_ms = plan.latency_ms(now_ms);
        if latency_ms > 0 {
            tokio::time::sleep(Duration::from_millis(latency_ms)).await;
        }
        let folded = match (
            fan_total.refresh(&*kv, &total_prefix, now_ms).fold(),
            fan_conform.refresh(&*kv, &conform_prefix, now_ms).fold(),
        ) {
            (Ok(t), Ok(c)) => Ok((t, c)),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        agg_tx.send((round, folded)).expect("agents alive");
        // Second half-cycle: agents meter on the broadcast fold.
        tokio::time::sleep(config.cycle / 2).await;
        let delivered_bps = store.aggregate_sum(&conform_prefix, now_ms);
        slo.observe(
            obs,
            &IntervalObs {
                entity: config.npg.to_string(),
                qos: config.qos.to_string(),
                target: SLO_TARGET,
                demand_bps: fleet_demand_bps,
                delivered_bps,
                approved_bps: config.entitled.as_bps(),
                measurable: !plan.any_shard_down(now_ms),
            },
        );
    }
    let end_ms = config.cycles as u64 * cycle_ms;
    let final_total = Rate::bps(store.aggregate_sum(&total_prefix, end_ms));
    round_tx.send(usize::MAX).ok();
    drop(round_tx);
    drop(agg_tx);

    let mut out = DaemonOutcome {
        conform_ratios: Vec::with_capacity(config.hosts),
        marked_fractions: Vec::with_capacity(config.hosts),
        final_total,
        fail_static_cycles: 0,
        aggregate_read_failures: 0,
        restarts: 0,
        fanout_reads: fan_total.reads() + fan_conform.reads(),
        kv_shards,
    };
    let mut snapshots: Vec<MetricsSnapshot> = Vec::with_capacity(config.hosts);
    for h in handles {
        let agent = h.await.expect("agent task");
        let s = agent.metrics.snapshot();
        out.conform_ratios.push(s.conform_ratio);
        out.marked_fractions
            .push(agent.marking_command(config.hosts).marked_fraction(config.hosts));
        out.fail_static_cycles += s.fail_static_cycles;
        out.aggregate_read_failures += s.aggregate_read_failures;
        out.restarts += s.restarts;
        snapshots.push(s);
    }
    // Fleet-level aggregation: every agent's metrics in one registry.
    aggregate_fleet(&snapshots, &obs.registry);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_chaos::{Fault, FaultKind, TimeWindow};

    fn config(hosts: usize, entitled_g: f64, per_host_g: f64) -> DaemonConfig {
        DaemonConfig {
            hosts,
            npg: NpgId(7),
            qos: QosClass::C2,
            region: RegionId(0),
            entitled: Rate::gbps(entitled_g),
            per_host_rate: Rate::gbps(per_host_g),
            cycle: Duration::from_millis(40),
            cycles: 8,
            faults: None,
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn fleet_converges_to_marking_the_excess() {
        // 20 hosts × 10G = 200G total, entitled 100G → mark ~half.
        let out = run_fleet(config(20, 100.0, 10.0)).await;
        // All agents agree on the marked share of the fleet.
        let first = out.marked_fractions[0];
        assert!(
            out.marked_fractions.iter().all(|&m| (m - first).abs() < 1e-9),
            "agents disagree: {:?}",
            out.marked_fractions
        );
        assert!(
            (first - 0.5).abs() < 0.15,
            "marked fraction {first} should be near 0.5"
        );
        // The meter output itself also agrees and sits near 1/2.
        let cr = out.conform_ratios[0];
        assert!(
            out.conform_ratios.iter().all(|&c| (c - cr).abs() < 1e-9),
            "meters disagree: {:?}",
            out.conform_ratios
        );
        assert!((cr - 0.5).abs() < 0.2, "conform ratio {cr} near 0.5");
        assert_eq!(out.fail_static_cycles, 0, "healthy run");
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn under_entitlement_fleet_marks_nothing() {
        let out = run_fleet(config(10, 1000.0, 10.0)).await;
        assert!(
            out.marked_fractions.iter().all(|&m| m == 0.0),
            "nothing should be marked: {:?}",
            out.marked_fractions
        );
        assert!(
            out.conform_ratios.iter().all(|&c| c == 1.0),
            "meters should stay fully conforming: {:?}",
            out.conform_ratios
        );
        assert!((out.final_total.as_gbps() - 100.0).abs() < 1.0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn mid_run_outage_goes_fail_static_and_holds_the_throttle() {
        // Rounds 1..=4 are healthy (the fleet converges on marking
        // ~half), then the whole store goes dark for rounds 5..=8.
        let mut cfg = config(10, 50.0, 10.0);
        cfg.faults = Some(FaultPlan {
            seed: 1,
            faults: vec![Fault {
                window: TimeWindow::new(4 * 40 + 1, u64::MAX),
                kind: FaultKind::ShardOutage { shards: vec![] },
            }],
        });
        let out = run_fleet(cfg).await;
        assert!(out.fail_static_cycles > 0, "outage rounds ran fail-static");
        assert!(out.aggregate_read_failures > 0);
        // The fail-static guarantee: nobody read the outage as "no
        // traffic" and unthrottled.
        assert!(
            out.marked_fractions.iter().all(|&m| m > 0.25),
            "held decisions must keep marking: {:?}",
            out.marked_fractions
        );
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn observed_fleet_aggregates_metrics_into_one_registry() {
        let obs = Obs::new(entitlement_obs::Clock::manual(0));
        let out = run_fleet_with(config(6, 30.0, 10.0), &obs, &mut SloEvaluator::default()).await;
        assert_eq!(out.conform_ratios.len(), 6);
        let text = obs.registry.render();
        assert!(text.contains("entitlement_fleet_agents 6"), "{text}");
        // Per-cycle decision and staleness histograms saw every cycle.
        assert!(text.contains("entitlement_agent_marked_fraction_count"));
        assert!(text.contains("entitlement_agent_staleness_ms_count"));
        // The fan-out's reads landed in the drill's KV families: two
        // prefixes × 32 shards × 8 rounds, all served.
        assert!(
            text.contains("entitlement_kv_ops_total{op=\"aggregate\",outcome=\"ok\"} 512"),
            "{text}"
        );
        assert!(text.contains("entitlement_kv_op_ms_count{op=\"aggregate\"} 512"));
        // Fleet counters carry the summed agent counters.
        assert!(text.contains("entitlement_agent_cycles_total"));
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn fanout_read_count_is_o_shards_not_o_agents() {
        // The regression gate for the aggregate path: doubling the
        // fleet must not change how many KV reads a cycle costs.
        for hosts in [4, 16] {
            let out = run_fleet(config(hosts, 1000.0, 10.0)).await;
            assert_eq!(out.kv_shards, 32);
            assert_eq!(
                out.fanout_reads,
                2 * 32 * 8, // two fan-outs × shards × cycles
                "reads for {hosts} hosts"
            );
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn added_latency_slows_the_fan_out_but_moves_no_decision() {
        let healthy = run_fleet(config(20, 100.0, 10.0)).await;
        let mut cfg = config(20, 100.0, 10.0);
        // Rounds 2..=5 (logical ms 80..=200) each wait 15 ms more.
        cfg.faults = Some(FaultPlan {
            seed: 3,
            faults: vec![Fault {
                window: TimeWindow::new(2 * 40, 6 * 40),
                kind: FaultKind::AddedLatency { ms: 15 },
            }],
        });
        let t0 = std::time::Instant::now();
        let slow = run_fleet(cfg).await;
        assert!(t0.elapsed() >= Duration::from_millis(8 * 40 + 4 * 15));
        assert_eq!(slow.marked_fractions, healthy.marked_fractions);
        assert_eq!(slow.fail_static_cycles, 0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn crashed_agent_restarts_and_rejoins() {
        let mut cfg = config(4, 1000.0, 10.0);
        cfg.cycles = 10;
        // Host 0 is dead for rounds 3..=5 (logical ms 120..=200).
        cfg.faults = Some(FaultPlan {
            seed: 2,
            faults: vec![Fault {
                window: TimeWindow::new(3 * 40, 5 * 40 + 1),
                kind: FaultKind::AgentCrash { hosts: vec![0] },
            }],
        });
        let out = run_fleet(cfg).await;
        assert_eq!(out.restarts, 1, "host 0 restarted once");
        // After rejoining, the under-entitled fleet still marks nothing
        // and every meter (including the restarted one) reads 1.0.
        assert!(out.conform_ratios.iter().all(|&c| c == 1.0));
        assert!((out.final_total.as_gbps() - 40.0).abs() < 0.5);
    }
}
