//! `drill`: the §6 enforcement drill — flat, or (`--shards` /
//! `--strategy`) the hierarchical sharded fleet engine.

use crate::{fail, load_faults, only_with, write_file, write_telemetry};
use network_entitlement::cli::Matches;
use network_entitlement::enforcement::fleet::CYCLE_MS;
use network_entitlement::enforcement::{run_fleet_engine_with, FleetConfig, FleetStrategy};
use network_entitlement::prelude::*;
use network_entitlement::telemetry::traced_approval_preamble;

/// The fault families the flat drill injects, all through the store.
/// Its agents are one representative, so it cannot crash a subset.
const DRILL_FAULTS: &[&str] = &["ShardOutage", "DropPublishes", "StaleReads", "ClockSkew"];

/// The fault families the fleet engine injects: the store's, and
/// agent crashes.
const FLEET_FAULTS: &[&str] =
    &["ShardOutage", "DropPublishes", "StaleReads", "ClockSkew", "AgentCrash"];

/// Every series the flat drill records, in CSV column order.
const SERIES: [&str; 16] = [
    "rate_total_tbps",
    "rate_conform_tbps",
    "rate_entitled_tbps",
    "loss_conf",
    "loss_nonconf",
    "rtt_conf_ms",
    "rtt_nonconf_ms",
    "syn_conf",
    "syn_nonconf",
    "read_latency_s",
    "write_latency_s",
    "block_errors",
    "marked_fraction",
    "kv_unavailable",
    "fail_static",
    "staleness_ms",
];

pub fn drill(m: &Matches) {
    match m.get::<usize>("--hosts") {
        Some(0) => fail(2, "--hosts 0: a drill needs at least one host"),
        Some(hosts) if u32::try_from(hosts).is_err() => fail(
            2,
            format_args!("--hosts {hosts}: host ids are 32-bit, at most {}", u32::MAX),
        ),
        _ => {}
    }
    let fleet = m.on("--shards") || m.on("--strategy");
    only_with(m, "--shards/--strategy", fleet, &["--workers", "--cycles"]);
    only_with(m, "the flat drill (no --shards/--strategy)", !fleet, &["--csv"]);
    if fleet {
        return fleet_drill(m);
    }
    let faults = load_faults(m, "entitlectl drill", DRILL_FAULTS);
    let faulted = faults.as_ref().is_some_and(|p| !p.is_empty());
    let seed: u64 = m.get("--seed").unwrap_or_else(|| DrillConfig::default().seed);
    let tele = m.telemetry();
    let obs = tele.make_obs();
    if tele.requested() {
        // One traced approval round first, so the trace file covers the
        // approval and risk span families alongside the drill's own
        // agent/KV spans.
        traced_approval_preamble(seed, &obs);
    }
    let config = DrillConfig {
        hosts: m.get("--hosts").unwrap_or(1000),
        seed,
        faults,
        ..Default::default()
    };
    let mut watchdog = WatchEvaluator::default();
    let recorder = run_drill_with(&config, &obs, &mut SloEvaluator::default(), &mut watchdog);
    let watch = watchdog.report();
    if let Some(csv) = m.text("--csv") {
        let series: Vec<Vec<f64>> = SERIES.iter().map(|n| recorder.series(n)).collect();
        let mut outbuf = format!("minute,{}\n", SERIES.join(","));
        for (i, t) in recorder.times.iter().enumerate() {
            outbuf.push_str(&format!("{:.2}", t / 60.0));
            for column in &series {
                outbuf.push_str(&format!(",{}", column[i]));
            }
            outbuf.push('\n');
        }
        write_file(csv, &outbuf);
        outln!("{} ticks written to {csv}", recorder.len());
    } else {
        let conf_loss_max = recorder
            .series("loss_conf")
            .into_iter()
            .fold(0.0f64, f64::max);
        outln!(
            "drill complete: {} ticks, max conforming loss {:.4}%",
            recorder.len(),
            conf_loss_max * 100.0
        );
    }
    if faulted {
        let unavailable: f64 = recorder.series("kv_unavailable").iter().sum();
        let fail_static = recorder
            .series("fail_static")
            .last()
            .copied()
            .unwrap_or(0.0);
        let max_staleness = recorder
            .series("staleness_ms")
            .into_iter()
            .fold(0.0f64, f64::max);
        outln!(
            "fault plan: {unavailable} tick(s) with the KV store unavailable; \
{fail_static} cycle(s) held the last decision (fail-static); \
max aggregate staleness {:.0} s",
            max_staleness / 1000.0
        );
    }
    if m.on("--watch") {
        out!("{}", watch.render_text());
    }
    write_telemetry(&tele, &obs);
    if m.on("--watch") && !watch.healthy() {
        std::process::exit(1);
    }
}

/// The hierarchical sharded fleet engine, run once: under the counting
/// clock when `--trace`/`--metrics` were requested, untraced otherwise,
/// so stdout and every telemetry file are byte-identical per seed.
/// Cycle speed is measured by `benchmark/` (`fleet_cycle`), not here.
fn fleet_drill(m: &Matches) {
    let hosts: usize = m.get("--hosts").unwrap_or(100_000);
    let shards: usize = m.get("--shards").unwrap_or(64);
    let strategy_arg = m.text("--strategy").unwrap_or("det");
    let Some(strategy) = FleetStrategy::parse(strategy_arg) else {
        fail(2, format_args!("--strategy expects `det` or `par`, got `{strategy_arg}`"));
    };
    // 0 is the *internal* "auto" sentinel; accepting it explicitly
    // would look like "no workers" and silently mean "all cores".
    let workers: Option<usize> = m.get("--workers");
    if workers == Some(0) {
        fail(2, "--workers 0 is not a worker count; omit --workers to auto-size");
    }
    let cycles: usize = m.get("--cycles").unwrap_or(16);
    if cycles == 0 {
        // No cycle would run, and an empty run reports full attainment.
        fail(2, "--cycles 0: a sharded drill needs at least one cycle");
    }
    let config = FleetConfig {
        hosts,
        shards,
        strategy,
        workers: workers.unwrap_or(0),
        cycles,
        seed: m.get("--seed").unwrap_or(0xD217),
        faults: load_faults(m, "entitlectl drill --shards", FLEET_FAULTS),
        // 10G offered per host vs a 5G/host entitlement: the fleet
        // settles near half marked, the regime the paper enforces in.
        entitled: Rate::gbps(5.0 * hosts as f64),
        per_host_rate: Rate::gbps(10.0),
    };
    if config.end_ms().is_none() {
        fail(
            2,
            format_args!(
                "--cycles {cycles}: {cycles} cycles of {CYCLE_MS} ms overflow the u64 millisecond clock"
            ),
        );
    }
    let tele = m.telemetry();
    let obs = tele.make_obs();
    let (mut slo, mut watchdog) = (SloEvaluator::default(), WatchEvaluator::default());
    let out = run_fleet_engine_with(&config, &obs, &mut slo, &mut watchdog)
        .unwrap_or_else(|e| fail(2, format_args!("invalid fleet config: {e}")));
    let (report, watch) = (slo.report(), watchdog.report());
    outln!(
        "fleet drill: {hosts} hosts / {shards} shards, strategy {} — {cycles} cycles",
        strategy.as_str()
    );
    let delivered = out.cycles.last().map_or(0.0, |c| c.live_conform);
    outln!(
        "  marked fraction {:.4}; conforming {:.3} of {:.3} Tbps offered; attainment {:.4}",
        out.marked_fraction,
        delivered / 1e12,
        out.demand_bps / 1e12,
        report.entities.first().map_or(1.0, |e| e.attainment),
    );
    if config.faults.is_some() {
        let publish_failures: u64 = out.shard_stats.iter().map(|s| s.publish_failures).sum();
        let held: u64 = out.shard_stats.iter().map(|s| s.held_serves).sum();
        outln!(
            "  fault plan: {} cycle(s) fleet-wide fail-static; {held} held shard serve(s); \
{publish_failures} shard publish failure(s)",
            out.fail_static_cycles
        );
    }

    if m.on("--watch") {
        out!("{}", watch.render_text());
    }
    write_telemetry(&tele, &obs);
    if m.on("--watch") && !watch.healthy() {
        std::process::exit(1);
    }
}
