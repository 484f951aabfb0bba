//! End-to-end fail-static chaos tests: a KV outage in the middle of the
//! §6 drill (and of a daemon fleet run) must never unthrottle the
//! service, and the fleet must reconverge once the store recovers.
//!
//! Every scenario runs over a fixed seed matrix so CI exercises more
//! than one trajectory; set `CHAOS_SEED=<n>` to pin a single seed when
//! reproducing a failure.

use network_entitlement::chaos::{Fault, FaultKind, FaultPlan, TimeWindow};
use network_entitlement::enforcement::daemon::{run_fleet, DaemonConfig};
use network_entitlement::enforcement::{
    host_demand_bps, run_fleet_engine, FleetConfig, ShardPlan,
};
use network_entitlement::prelude::*;
use std::time::Duration;

/// The CI seed matrix, or the single `CHAOS_SEED` override.
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![0xD217, 0xBEEF, 0x5EED],
    }
}

/// Minutes 80..110 of drill time, in the drill's logical milliseconds.
const OUTAGE_FROM_MIN: f64 = 80.0;
const OUTAGE_TO_MIN: f64 = 110.0;

fn outage_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        faults: vec![Fault {
            window: TimeWindow::new(
                (OUTAGE_FROM_MIN * 60_000.0) as u64,
                (OUTAGE_TO_MIN * 60_000.0) as u64,
            ),
            kind: FaultKind::ShardOutage { shards: vec![] },
        }],
    }
}

fn drill_config(seed: u64, faults: Option<FaultPlan>) -> DrillConfig {
    DrillConfig {
        hosts: 300,
        seed,
        faults,
        ..Default::default()
    }
}

/// The fail-static guarantee end to end: while the KV store is dark the
/// drill agent holds its marking decision exactly — it never reads the
/// outage as "no traffic" and unthrottles the fleet back to CR 1.0.
#[test]
fn mid_drill_outage_never_unthrottles() {
    for seed in seeds() {
        let r = run_drill(&drill_config(seed, Some(outage_plan(seed))));
        let unavailable = r.series("kv_unavailable");
        let marked = r.series("marked_fraction");
        let fail_static = r.series("fail_static");
        let staleness = r.series("staleness_ms");

        // The outage window covers exactly the expected ticks.
        let dark_ticks: usize = unavailable.iter().filter(|&&v| v == 1.0).count();
        assert_eq!(dark_ticks, 60, "seed {seed:#x}: 30 min at 30 s ticks");
        assert_eq!(
            *fail_static.last().unwrap() as usize,
            dark_ticks,
            "seed {seed:#x}: every dark tick ran fail-static"
        );

        // Entering the outage the service was over entitlement and
        // being marked; the held decision must stay put, tick by tick.
        let first_dark = unavailable.iter().position(|&v| v == 1.0).unwrap();
        let held = marked[first_dark];
        assert!(
            held > 0.05,
            "seed {seed:#x}: marking active before the outage, got {held}"
        );
        for (i, &u) in unavailable.iter().enumerate() {
            if u == 1.0 {
                assert!(
                    (marked[i] - held).abs() < 1e-9,
                    "seed {seed:#x}: tick {i} moved the held decision: {} vs {held}",
                    marked[i]
                );
            }
        }

        // Staleness climbs to the full outage and resets on recovery.
        let max_staleness = staleness.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(
            (max_staleness - 30.0 * 60_000.0).abs() <= 30_000.0 + 1.0,
            "seed {seed:#x}: staleness should reach ~30 min, got {max_staleness}"
        );
        let last_dark = unavailable.iter().rposition(|&v| v == 1.0).unwrap();
        assert_eq!(
            staleness[last_dark + 1],
            0.0,
            "seed {seed:#x}: fresh aggregates after recovery"
        );
    }
}

/// After the store recovers, the faulted drill reconverges to the
/// healthy drill's trajectory within a bounded number of cycles.
#[test]
fn drill_reconverges_after_recovery() {
    const RECONVERGE_TICKS: usize = 10; // 5 minutes of 30 s cycles
    for seed in seeds() {
        let healthy = run_drill(&drill_config(seed, None));
        let faulted = run_drill(&drill_config(seed, Some(outage_plan(seed))));
        let hm = healthy.series("marked_fraction");
        let fm = faulted.series("marked_fraction");
        let unavailable = faulted.series("kv_unavailable");
        let last_dark = unavailable.iter().rposition(|&v| v == 1.0).unwrap();

        // From recovery + N ticks until the ACL rollback, the faulted
        // run tracks the healthy one again.
        let rollback_tick = (225.0 * 2.0) as usize; // minute 225 at 30 s ticks
        for i in (last_dark + RECONVERGE_TICKS)..rollback_tick {
            assert!(
                (fm[i] - hm[i]).abs() < 0.15,
                "seed {seed:#x}: tick {i} still diverged after recovery: \
                 faulted {} vs healthy {}",
                fm[i],
                hm[i]
            );
        }
        // And the healthy prefix (before the outage) is bit-identical:
        // routing the metering loop through the KV store is exact.
        let first_dark = unavailable.iter().position(|&v| v == 1.0).unwrap();
        assert_eq!(
            &hm[..first_dark],
            &fm[..first_dark],
            "seed {seed:#x}: pre-outage trajectories must match exactly"
        );
    }
}

/// The daemon fleet under a mid-run outage: every agent goes
/// fail-static (nobody unthrottles), and once the store recovers the
/// fleet reconverges on the same decision within the remaining rounds.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn fleet_outage_holds_then_reconverges() {
    for seed in seeds() {
        let out = run_fleet(DaemonConfig {
            hosts: 10,
            npg: NpgId(7),
            qos: QosClass::C2,
            region: RegionId(0),
            entitled: Rate::gbps(50.0),
            per_host_rate: Rate::gbps(10.0), // 100G offered vs 50G entitled
            cycle: Duration::from_millis(40),
            cycles: 16,
            // Rounds 5..=9 dark (logical ms 200..=360), 7 healthy
            // rounds afterwards to reconverge.
            faults: Some(FaultPlan {
                seed,
                faults: vec![Fault {
                    window: TimeWindow::new(5 * 40, 9 * 40 + 1),
                    kind: FaultKind::ShardOutage { shards: vec![] },
                }],
            }),
        })
        .await;

        assert!(
            out.fail_static_cycles > 0,
            "seed {seed:#x}: the outage rounds ran fail-static"
        );
        // Nobody unthrottled on "no data"...
        assert!(
            out.marked_fractions.iter().all(|&m| m > 0.25),
            "seed {seed:#x}: an agent unthrottled: {:?}",
            out.marked_fractions
        );
        // ...and after recovery the fleet agrees on ~half marked again.
        let first = out.marked_fractions[0];
        assert!(
            out.marked_fractions.iter().all(|&m| (m - first).abs() < 1e-9),
            "seed {seed:#x}: agents disagree after recovery: {:?}",
            out.marked_fractions
        );
        assert!(
            (first - 0.5).abs() < 0.2,
            "seed {seed:#x}: reconverged marked fraction {first} near 0.5"
        );
    }
}

/// A `StaleReads` window reaches the daemon's fan-out. From round 2 on
/// the driver is served round 1's frozen partials, taken before anyone
/// marked: every round the fleet reads 100G conforming against 50G
/// entitled and keeps cutting, so it ends marking far more than the
/// healthy fleet, which settles near half. Reads that serve a frozen
/// snapshot succeed, so nobody runs fail-static.
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn stale_reads_freeze_the_daemon_fan_out() {
    let config = |faults| DaemonConfig {
        hosts: 10,
        npg: NpgId(7),
        qos: QosClass::C2,
        region: RegionId(0),
        entitled: Rate::gbps(50.0),
        per_host_rate: Rate::gbps(10.0),
        cycle: Duration::from_millis(40),
        cycles: 10,
        faults,
    };
    let healthy = run_fleet(config(None)).await;
    for seed in seeds() {
        let stale = run_fleet(config(Some(FaultPlan {
            seed,
            faults: vec![Fault {
                window: TimeWindow::new(2 * 40, u64::MAX),
                kind: FaultKind::StaleReads,
            }],
        })))
        .await;
        assert_eq!(stale.fail_static_cycles, 0, "seed {seed:#x}");
        let first = stale.marked_fractions[0];
        assert!(
            stale.marked_fractions.iter().all(|&m| m == first),
            "seed {seed:#x}: agents disagree: {:?}",
            stale.marked_fractions
        );
        assert!(
            first > healthy.marked_fractions[0] + 0.25,
            "seed {seed:#x}: the frozen fan-out marked {first}, the healthy run {}",
            healthy.marked_fractions[0]
        );
    }
}

/// Shard-scoped chaos on the hierarchical fleet engine: a dark shard
/// degrades exactly its own contribution — it never unthrottles (or
/// even perturbs) another shard's hosts — and the fleet reconverges
/// within ten cycles of the shard coming back.
#[test]
fn dark_shard_degrades_only_its_contribution_and_reconverges() {
    const HOSTS: usize = 120;
    const SHARDS: usize = 6;
    const DARK: usize = 2;
    const RECONVERGE_CYCLES: usize = 10;
    for seed in seeds() {
        let healthy_cfg = FleetConfig {
            hosts: HOSTS,
            shards: SHARDS,
            entitled: Rate::gbps(600.0),
            per_host_rate: Rate::gbps(10.0), // ~1.2T offered vs 600G
            cycles: 28,
            seed,
            ..FleetConfig::default()
        };
        let mut faulted_cfg = healthy_cfg.clone();
        // Shard 2 dark for cycles 8..=12 (ms 8000..12001). The
        // staleness bound is one cycle: cycle 8 serves the held
        // partial, cycles 9..=12 run fail-static fleet-wide.
        faulted_cfg.faults = Some(FaultPlan {
            seed,
            faults: vec![Fault {
                window: TimeWindow::new(8000, 12_001),
                kind: FaultKind::ShardOutage {
                    shards: vec![DARK],
                },
            }],
        });
        let healthy = run_fleet_engine(&healthy_cfg).expect("healthy fleet");
        let faulted = run_fleet_engine(&faulted_cfg).expect("faulted fleet");
        assert_eq!(faulted.fail_static_cycles, 4, "seed {seed:#x}");

        // Fault isolation: only the dark shard saw any failure; a
        // healthy shard's hosts never even noticed.
        for (s, stats) in faulted.shard_stats.iter().enumerate() {
            if s == DARK {
                assert_eq!(stats.publish_failures, 5, "seed {seed:#x}");
                assert_eq!(stats.read_failures, 5, "seed {seed:#x}");
                assert_eq!(stats.held_serves, 1, "seed {seed:#x}");
            } else {
                assert_eq!(
                    (stats.publish_failures, stats.read_failures),
                    (0, 0),
                    "seed {seed:#x}: healthy shard {s} was hit"
                );
            }
        }

        // The live aggregate degrades by *exactly* the dark shard's
        // contribution: the shard-order fold of every other shard's
        // demand, bit for bit.
        let plan = ShardPlan::new(HOSTS, SHARDS).expect("plan");
        let shard_demand: Vec<f64> = (0..SHARDS)
            .map(|s| {
                plan.range(s)
                    .map(|h| host_demand_bps(seed, Rate::gbps(10.0), h as u32))
                    .sum()
            })
            .collect();
        let expected_live: f64 = shard_demand
            .iter()
            .enumerate()
            .filter(|&(s, _)| s != DARK)
            .map(|(_, d)| d)
            .sum();
        for (i, cycle) in faulted.cycles[7..12].iter().enumerate() {
            assert_eq!(
                cycle.shard_totals[DARK], None,
                "seed {seed:#x}: dark cycle {i}"
            );
            assert_eq!(
                cycle.live_total.to_bits(),
                expected_live.to_bits(),
                "seed {seed:#x}: dark cycle {i} live total {} != {expected_live}",
                cycle.live_total
            );
        }

        // Nobody unthrottled on the outage: the standing decision is
        // held bitwise through the fail-static cycles (cycles 9..=12
        // all mark from the same frozen meter state) and keeps marking
        // the pre-outage excess.
        let frozen = faulted.cycles[8].marked_fraction;
        assert!(frozen > 0.25, "seed {seed:#x}: marking active, {frozen}");
        for cycle in &faulted.cycles[8..12] {
            assert_eq!(cycle.marked_fraction.to_bits(), frozen.to_bits());
        }

        // Recovery at cycle 13; within ten cycles the faulted fleet
        // tracks the healthy trajectory again, and the pre-outage
        // prefix is bit-identical.
        for i in (12 + RECONVERGE_CYCLES)..faulted.cycles.len() {
            assert!(
                (faulted.cycles[i].marked_fraction - healthy.cycles[i].marked_fraction).abs()
                    < 0.15,
                "seed {seed:#x}: cycle {i} still diverged: {} vs {}",
                faulted.cycles[i].marked_fraction,
                healthy.cycles[i].marked_fraction
            );
        }
        for i in 0..7 {
            assert_eq!(
                faulted.cycles[i].marked_fraction.to_bits(),
                healthy.cycles[i].marked_fraction.to_bits(),
                "seed {seed:#x}: pre-outage cycle {i} must match exactly"
            );
        }
        // All hosts end in agreement — including the dark shard's.
        let first = faulted.conform_ratios[0];
        assert!(faulted.conform_ratios.iter().all(|&cr| cr == first));
    }
}

/// The shipped example fault plans stay parseable — they are the CLI's
/// documented entry point (`entitlectl drill --faults`).
#[test]
fn example_fault_plans_parse() {
    let mut paths: Vec<_> = std::fs::read_dir("examples/faults")
        .expect("examples/faults")
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 4, "{paths:?}");
    for path in &paths {
        let path = path.to_str().expect("utf-8 path");
        let text = std::fs::read_to_string(path).expect(path);
        let plan = FaultPlan::from_json(&text).expect(path);
        assert!(!plan.is_empty(), "{path} should describe faults");
        // Round-trip through the serializer.
        let again = FaultPlan::from_json(&plan.to_json()).expect(path);
        assert_eq!(plan, again);
    }
}

/// A fault plan that would load as something else is refused, by the
/// library and by `entitlectl drill --faults` (exit 2). An integer
/// field takes only an integer the JSON parser read exactly (these used
/// to load as link 0, link 1, `u32::MAX`, `from_ms` 0, seed …992); a
/// window must not close before it opens (it would never fire); a
/// `DropPublishes` fraction must lie in [0, 1] (1.5 acted as 1, −0.1 as
/// 0).
#[test]
fn fault_plans_that_load_as_something_else_are_refused() {
    let plan = |seed: &str, from_ms: &str, links: &str| {
        format!(
            r#"{{"seed":{seed},"faults":[{{"window":{{"from_ms":{from_ms},"to_ms":5000}},"kind":{{"LinkCut":{{"links":[{links}]}}}}}}]}}"#
        )
    };
    let drop = |fraction: &str| {
        format!(
            r#"{{"seed":19,"faults":[{{"window":{{"from_ms":0,"to_ms":5000}},"kind":{{"DropPublishes":{{"fraction":{fraction}}}}}}}]}}"#
        )
    };
    let good = FaultPlan::from_json(&plan("9007199254740991", "1000", "0,3")).expect("exact");
    assert_eq!(good.seed, 9_007_199_254_740_991);
    FaultPlan::from_json(&drop("1")).expect("fraction 1 drops everything");
    let bad = [
        plan("19", "1000", "-1"),
        plan("19", "1000", "1.5"),
        plan("19", "1000", "4294967296"),
        plan("19", "1000", "1e300"),
        plan("19", "-5", "0"),
        plan("9007199254740993", "1000", "0"),
        plan("19", "5001", "0"),
        drop("1.5"),
        drop("-0.1"),
    ];
    let dir = std::env::temp_dir().join(format!("chaos_inexact_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (i, text) in bad.iter().enumerate() {
        assert!(FaultPlan::from_json(text).is_err(), "{text} loaded");
        let path = dir.join(format!("plan{i}.json"));
        std::fs::write(&path, text).expect("write plan");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_entitlectl"))
            .args(["drill", "--hosts", "20", "--faults"])
            .arg(&path)
            .output()
            .expect("run entitlectl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{text}: {stderr}");
        assert!(
            stderr.contains("cannot parse fault plan"),
            "{text}: {stderr}"
        );
    }
}
