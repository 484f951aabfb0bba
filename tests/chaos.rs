//! End-to-end fail-static chaos tests: a KV outage in the middle of the
//! §6 drill (and of a fleet engine run) must never unthrottle the
//! service, and the fleet must reconverge once the store recovers. An
//! agent crash takes exactly its hosts out of the aggregates, and the
//! fleet reconverges after they restart.
//!
//! Every scenario runs over a fixed seed matrix so CI exercises more
//! than one trajectory; set `CHAOS_SEED=<n>` to pin a single seed when
//! reproducing a failure.

use network_entitlement::chaos::{Fault, FaultKind, FaultPlan, TimeWindow};
use network_entitlement::enforcement::marking::GROUPS;
use network_entitlement::enforcement::{
    host_demand_bps, run_fleet_engine, FleetConfig, FleetCycleStats, ShardPlan,
};
use network_entitlement::prelude::*;
use proptest::prelude::*;

/// The CI seed matrix, or the single `CHAOS_SEED` override.
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        // 8 and 12 drove the healthy 300-host drill into the §10 limit
        // cycle before the meter's recovery band.
        Err(_) => vec![0xD217, 0xBEEF, 0x5EED, 8, 12],
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

/// The fleet under a mid-run full outage: it goes fail-static (nobody
/// unthrottles; the standing decision holds bit for bit), and once the
/// store recovers it reconverges on marking about half again.
#[test]
fn fleet_outage_holds_then_reconverges() {
    for seed in seeds() {
        let out = run_fleet_engine(&FleetConfig {
            hosts: 10,
            shards: 2,
            entitled: Rate::gbps(50.0),
            per_host_rate: Rate::gbps(10.0), // ~100G offered vs 50G entitled
            cycles: 16,
            seed,
            // Cycles 5..=9 dark, 7 healthy cycles afterwards to
            // reconverge. The staleness bound is one cycle: cycle 5
            // serves the held partials, cycles 6..=9 hold.
            faults: Some(FaultPlan {
                seed,
                faults: vec![Fault {
                    window: TimeWindow::new(5000, 9001),
                    kind: FaultKind::ShardOutage { shards: vec![] },
                }],
            }),
            ..FleetConfig::default()
        })
        .expect("fleet");

        assert_eq!(out.fail_static_cycles, 4, "seed {seed:#x}");
        // Nobody unthrottled on "no data": cycles 6..=10 all mark from
        // the meter state cycle 5 left, and it marks.
        let held = out.cycles[5].marked_fraction;
        assert!(held > 0.25, "seed {seed:#x}: held decision marks {held}");
        for cycle in &out.cycles[5..10] {
            assert_eq!(cycle.marked_fraction.to_bits(), held.to_bits(), "seed {seed:#x}");
        }
        // ...and after recovery every host agrees on about half marked.
        let first = out.conform_ratios[0];
        assert!(
            out.conform_ratios.iter().all(|&cr| cr == first),
            "seed {seed:#x}: hosts disagree after recovery: {:?}",
            out.conform_ratios
        );
        assert!(
            (out.marked_fraction - 0.5).abs() < 0.2,
            "seed {seed:#x}: reconverged marked fraction {} near 0.5",
            out.marked_fraction
        );
    }
}

/// A `StaleReads` window reaches the fleet's fan-out. From cycle 2 on
/// the driver is served cycle 1's frozen partials, taken before anyone
/// marked: every cycle the fleet reads ~100G conforming against 50G
/// entitled and keeps cutting, so it ends marking far more than the
/// healthy fleet, which settles near half. Reads that serve a frozen
/// snapshot succeed, so nobody runs fail-static.
#[test]
fn stale_reads_freeze_the_fleet_fan_out() {
    let config = |seed, faults| FleetConfig {
        hosts: 10,
        shards: 2,
        entitled: Rate::gbps(50.0),
        per_host_rate: Rate::gbps(10.0),
        cycles: 10,
        seed,
        faults,
        ..FleetConfig::default()
    };
    for seed in seeds() {
        let healthy = run_fleet_engine(&config(seed, None)).expect("healthy fleet");
        let stale = run_fleet_engine(&config(
            seed,
            Some(FaultPlan {
                seed,
                faults: vec![Fault {
                    window: TimeWindow::new(2000, u64::MAX),
                    kind: FaultKind::StaleReads,
                }],
            }),
        ))
        .expect("stale fleet");
        assert_eq!(stale.fail_static_cycles, 0, "seed {seed:#x}");
        let first = stale.conform_ratios[0];
        assert!(
            stale.conform_ratios.iter().all(|&cr| cr == first),
            "seed {seed:#x}: hosts disagree: {:?}",
            stale.conform_ratios
        );
        assert!(
            stale.marked_fraction > healthy.marked_fraction + 0.25,
            "seed {seed:#x}: the frozen fan-out marked {}, the healthy run {}",
            stale.marked_fraction,
            healthy.marked_fraction
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

/// Crash runs use 2 000 hosts over 8 shards of 250: at 200 hosts the
/// healthy run itself swings ±12 % at load 10 (DESIGN §10).
const CRASH_HOSTS: usize = 2000;
const CRASH_SHARDS: usize = 8;
const PER_HOST_GBPS: f64 = 10.0;
/// fig25's convergence bound, in cycles.
const RECONVERGE_CYCLES: usize = 12;

/// A crash-run config at offered ÷ entitled = `load`.
fn crash_config(seed: u64, load: f64, cycles: usize, faults: Option<FaultPlan>) -> FleetConfig {
    let offered: f64 = (0..CRASH_HOSTS as u32)
        .map(|h| host_demand_bps(seed, Rate::gbps(PER_HOST_GBPS), h))
        .sum();
    FleetConfig {
        hosts: CRASH_HOSTS,
        shards: CRASH_SHARDS,
        entitled: Rate::bps(offered / load),
        per_host_rate: Rate::gbps(PER_HOST_GBPS),
        cycles,
        seed,
        faults,
        ..FleetConfig::default()
    }
}

/// `down` (ascending, distinct) crash for cycles `first..=last`.
fn crash_plan(seed: u64, down: &[u32], first: usize, last: usize) -> FaultPlan {
    FaultPlan {
        seed,
        faults: vec![Fault {
            window: TimeWindow::new(first as u64 * 1000, last as u64 * 1000 + 1),
            kind: FaultKind::AgentCrash {
                hosts: down.to_vec(),
            },
        }],
    }
}

/// Run `config` healthy and with `down` crashed for cycles
/// `first..=last`, and check the crash against the healthy twin: the
/// cycles before the window are bit-identical; every down cycle's live
/// total is, in bits, the shard-order fold that skips the down hosts;
/// each host restarts once; and from `RECONVERGE_CYCLES` after the
/// window closes, the conforming aggregate is within `10 % + slack` of
/// `min(entitled, offered)`.
fn check_crash(config: &FleetConfig, down: &[u32], first: usize, last: usize, slack: f64) {
    let what = format!("seed {:#x}, entitled {}, down {down:?} for cycles {first}..={last}", config.seed, config.entitled.as_bps());
    let healthy = run_fleet_engine(config).expect("healthy fleet");
    let crashed = run_fleet_engine(&FleetConfig {
        faults: Some(crash_plan(config.seed, down, first, last)),
        ..config.clone()
    })
    .expect("crashed fleet");
    assert_eq!(crashed.restarts, down.len() as u64, "{what}");
    assert_eq!(healthy.restarts, 0);
    let bits = |c: &FleetCycleStats| {
        (
            c.live_total.to_bits(),
            c.live_conform.to_bits(),
            c.marked_fraction.to_bits(),
            c.metered.map(|(t, c)| (t.to_bits(), c.to_bits())),
        )
    };
    for i in 0..first - 1 {
        assert_eq!(bits(&crashed.cycles[i]), bits(&healthy.cycles[i]), "{what}: cycle {}", i + 1);
    }
    let plan = ShardPlan::new(config.hosts, config.shards).expect("plan");
    let live: f64 = (0..config.shards)
        .map(|s| {
            plan.range(s)
                .filter(|&h| down.binary_search(&(h as u32)).is_err())
                .map(|h| host_demand_bps(config.seed, config.per_host_rate, h as u32))
                .sum::<f64>()
        })
        .sum();
    for cycle in &crashed.cycles[first - 1..last] {
        assert_eq!(
            cycle.live_total.to_bits(),
            live.to_bits(),
            "{what}: at {} ms live total {} != {live}",
            cycle.now_ms,
            cycle.live_total
        );
    }
    let target = config.entitled.as_bps().min(crashed.demand_bps);
    for cycle in &crashed.cycles[last + RECONVERGE_CYCLES..] {
        let gap = (cycle.live_conform - target).abs() / target;
        assert!(
            gap <= 0.10 + slack,
            "{what}: at {} ms conforming {} is {:.1} % off {target}",
            cycle.now_ms,
            cycle.live_conform,
            gap * 100.0
        );
    }
}

/// Eight of 2 000 hosts crash for cycles 6..=12, in pairs across shard
/// boundaries and at the fleet's two ends, at offered ÷ entitled = 0.5,
/// 2 and 10.
#[test]
fn crashed_hosts_leave_the_aggregates_and_rejoin() {
    let down = [0, 1, 249, 250, 999, 1000, 1500, 1999];
    for seed in seeds() {
        for load in [0.5, 2.0, 10.0] {
            check_crash(&crash_config(seed, load, 30, None), &down, 6, 12, 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any crash set of up to 40 hosts, over any window that closes
    /// before the run ends, at any of the three loads. A restarted
    /// host keeps a higher ratio than the fleet (eq. 7 scales every
    /// ratio by the same factor, and the gap closes only while the
    /// restarted one sits at 1.0), so the hosts that restarted mark
    /// less and the rest settle on a coarser cut: the limit cycle may
    /// miss the target by one more marking group, `load ÷ GROUPS` of
    /// it. At load 10 that is 10 %; with 40 of 2 000 hosts restarted
    /// the gap reached 13.5 % on 84 of 300 seeds, with 8 on none.
    #[test]
    fn any_crash_set_leaves_the_aggregates_and_rejoins(
        pick in any::<usize>(),
        load in 0usize..3,
        hosts in proptest::collection::vec(0..CRASH_HOSTS as u32, 1..40),
        (first, len) in (2usize..=10, 1usize..=8),
    ) {
        let seeds = seeds();
        let seed = seeds[pick % seeds.len()];
        let mut down = hosts;
        down.sort_unstable();
        down.dedup();
        let last = first + len - 1;
        let config = crash_config(seed, [0.5, 2.0, 10.0][load], last + RECONVERGE_CYCLES + 3, None);
        check_crash(&config, &down, first, last, [0.5, 2.0, 10.0][load] / f64::from(GROUPS));
    }
}

/// Run `entitlectl <args>`, with `--faults <plan>` if given, and return
/// its exit code, what it computed and its stderr. What the run computes
/// is the flat drill's CSV (written to `csv`), and any other command's
/// stdout without the plan summary line a faulted run adds.
fn run_computed(
    command: &str,
    args: &[&str],
    plan: Option<&std::path::Path>,
    csv: &std::path::Path,
) -> (Option<i32>, String, String) {
    let flat = command == "entitlectl drill";
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_entitlectl"));
    cmd.args(args);
    if flat {
        cmd.arg("--csv").arg(csv);
    }
    if let Some(plan) = plan {
        cmd.arg("--faults").arg(plan);
    }
    let out = cmd.output().expect("run entitlectl");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let computed = if flat {
        std::fs::read_to_string(csv).unwrap_or_default()
    } else {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|line| !line.contains("fault plan:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let _ = std::fs::remove_file(csv);
    (out.status.code(), computed, stderr)
}

/// Every fault family against every command that takes `--faults`: a
/// plan either changes what the run computes or is refused with exit 2
/// naming the fault and the command, never "exit 0, no effect" (what a
/// run computes: see [`run_computed`]). Each family's window opens at
/// 1 s and stays open, so it covers some of every command's logical
/// clock.
#[test]
fn every_fault_family_changes_the_run_or_is_refused() {
    let families = [
        r#"{"ShardOutage":{"shards":[1]}}"#,
        r#"{"DropPublishes":{"fraction":0.5}}"#,
        r#""StaleReads""#,
        // Past the flat drill's TTL of four 30 s ticks: a skew inside
        // the TTL ages no entry out, and changes nothing.
        r#"{"ClockSkew":{"skew_ms":150000}}"#,
        r#"{"AgentCrash":{"hosts":[0,5,17]}}"#,
        r#"{"LinkCut":{"links":[0,3]}}"#,
    ];
    // (command, its arguments, the families it honours)
    let consumers: [(&str, &[&str], &[&str]); 3] = [
        (
            "entitlectl drill",
            &["drill", "--hosts", "100"],
            &["ShardOutage", "DropPublishes", "StaleReads", "ClockSkew"],
        ),
        (
            "entitlectl drill --shards",
            &["drill", "--hosts", "200", "--shards", "4", "--cycles", "8"],
            &["ShardOutage", "DropPublishes", "StaleReads", "ClockSkew", "AgentCrash"],
        ),
        ("entitlectl market", &["market", "--requests", "2000"], &["LinkCut"]),
    ];
    let dir = std::env::temp_dir().join(format!("chaos_matrix_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("run.csv");
    for (i, family) in families.iter().enumerate() {
        let text = format!(
            r#"{{"seed":5,"faults":[{{"window":{{"from_ms":1000,"to_ms":9007199254740991}},"kind":{family}}}]}}"#
        );
        let name = FaultPlan::from_json(&text).expect("a plan").faults[0].kind.family();
        let plan = dir.join(format!("family{i}.json"));
        std::fs::write(&plan, text).expect("write plan");
        for (command, args, honoured) in consumers {
            let (code, computed, stderr) = run_computed(command, args, Some(&plan), &csv);
            if honoured.contains(&name) {
                let (healthy_code, healthy, _) = run_computed(command, args, None, &csv);
                assert_eq!((code, healthy_code), (Some(0), Some(0)), "{name} on {command}: {stderr}");
                assert_ne!(computed, healthy, "{name} on {command}: exit 0, no effect");
            } else {
                assert_eq!(code, Some(2), "{name} on {command}: {stderr}");
                assert!(
                    stderr.contains(&format!(
                        "invalid fault plan: fault 0: {command} does not honour {name}"
                    )),
                    "{name} on {command}: {stderr}"
                );
            }
        }
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
    assert_eq!(paths.len(), 5, "{paths:?}");
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

/// Every fault of every shipped plan, run alone under the plan's seed
/// through a command that honours its family, changes what that command
/// computes: a shipped fault that does nothing is a broken example (the
/// `ClockSkew` of `degraded_store.json` sat inside the flat drill's TTL
/// and aged nothing out). Each command's clock covers its plans'
/// windows: the flat drill runs 30 s ticks for hours, the sharded drill
/// 1 s cycles, the market one logical millisecond per admission.
#[test]
fn every_shipped_fault_changes_its_command() {
    let command = |family: &str| -> (&'static str, &'static [&'static str]) {
        match family {
            "AgentCrash" => (
                "entitlectl drill --shards",
                &["drill", "--hosts", "2000", "--shards", "8", "--cycles", "16"],
            ),
            "LinkCut" => ("entitlectl market", &["market", "--requests", "2000"]),
            _ => ("entitlectl drill", &["drill", "--hosts", "100"]),
        }
    };
    let dir = std::env::temp_dir().join(format!("chaos_shipped_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("run.csv");
    let mut paths: Vec<_> = std::fs::read_dir("examples/faults")
        .expect("examples/faults")
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    paths.sort();
    let mut checked = 0;
    for path in &paths {
        let plan = FaultPlan::from_json(&std::fs::read_to_string(path).expect("a plan"))
            .expect("a valid plan");
        for (i, fault) in plan.faults.iter().enumerate() {
            let alone = FaultPlan {
                seed: plan.seed,
                faults: vec![fault.clone()],
            };
            let file = dir.join("alone.json");
            std::fs::write(&file, alone.to_json()).expect("write plan");
            let (name, args) = command(fault.kind.family());
            let what = format!("{} fault {i} ({}) on {name}", path.display(), fault.kind.family());
            let (code, faulted, stderr) = run_computed(name, args, Some(&file), &csv);
            let (healthy_code, healthy, _) = run_computed(name, args, None, &csv);
            assert_eq!((code, healthy_code), (Some(0), Some(0)), "{what}: {stderr}");
            assert_ne!(faulted, healthy, "{what}: exit 0, no effect");
            checked += 1;
        }
    }
    assert_eq!(checked, 7, "every fault of the five shipped plans");
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
