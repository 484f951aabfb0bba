//! The fleet engine's per-shard partials against an independent replay.
//!
//! The engine keeps the partials of the last two distinct host-pass
//! inputs and serves a cycle from them when its marking cuts repeat
//! under the same demand. This test holds every cycle it reports to a
//! replay built from public functions alone: each host's demand
//! (`host_demand_bps`), group (`HostId::group`) and cut
//! (`Marker::marked_group_count`), its meter stepped with
//! `StatefulMeter::update_value` on the aggregates the engine says it
//! metered on, and the hosts a crash holds down (`FaultPlan::down_hosts`).
//! Every cycle's fresh `shard_totals` and `shard_conforms` must equal, in
//! bits, the ascending-host fold of that cycle's replayed state, whether
//! the engine ran a host pass for the cycle or served it from the memo,
//! and the final `conform_ratios` the replayed ratios, crashed hosts
//! included. Each fleet also runs with a `StaleReads` window that opens
//! after its last cycle, so that the store snapshots every read the
//! run makes and must still serve the same values.
//!
//! Runs over a seed matrix; set `CHAOS_SEED=<n>` to pin one demand seed
//! (CI's chaos matrix does).

use network_entitlement::chaos::{Fault, FaultKind, FaultPlan, TimeWindow};
use network_entitlement::core::{HostId, Rate};
use network_entitlement::enforcement::fleet::CYCLE_MS;
use network_entitlement::enforcement::marking::{Marker, GROUPS};
use network_entitlement::enforcement::{
    host_demand_bps, run_fleet_engine, FleetConfig, FleetOutcome, FleetStrategy, ShardPlan,
    StatefulMeter,
};
use proptest::prelude::*;

/// The CI seed matrix, or the single `CHAOS_SEED` override.
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![0xD217, 0xBEEF, 0x5EED],
    }
}

/// A fleet at offered ÷ entitled = `load`, with `down` crashed for
/// cycles `first..=last` when `down` is non-empty.
fn config(
    seed: u64,
    (hosts, shards, cycles): (usize, usize, usize),
    load: f64,
    (down, first, last): (&[u32], usize, usize),
) -> FleetConfig {
    let per_host_rate = Rate::gbps(10.0);
    let offered: f64 = (0..hosts as u32)
        .map(|h| host_demand_bps(seed, per_host_rate, h))
        .sum();
    let faults = (!down.is_empty()).then(|| FaultPlan {
        seed,
        faults: vec![Fault {
            window: TimeWindow::new(first as u64 * 1000, last as u64 * 1000 + 1),
            kind: FaultKind::AgentCrash {
                hosts: down.to_vec(),
            },
        }],
    });
    FleetConfig {
        hosts,
        shards,
        cycles,
        seed,
        entitled: Rate::bps(offered / load),
        per_host_rate,
        faults,
        ..FleetConfig::default()
    }
}

/// Replay `config` host by host next to the engine's outcome `out`,
/// and check every cycle's fresh partials against the replayed fold.
fn check_against_replay(config: &FleetConfig, out: &FleetOutcome) {
    let what = format!(
        "{} hosts / {} shards, seed {:#x}, entitled {}, {}",
        config.hosts,
        config.shards,
        config.seed,
        config.entitled.as_bps(),
        config.strategy.as_str()
    );
    let plan = ShardPlan::new(config.hosts, config.shards).expect("a valid shape");
    let faults = config.faults.clone().unwrap_or_else(FaultPlan::none);
    let demand: Vec<f64> = (0..config.hosts as u32)
        .map(|h| host_demand_bps(config.seed, config.per_host_rate, h))
        .collect();
    let group: Vec<u32> = (0..config.hosts as u32)
        .map(|h| HostId(h).group(GROUPS))
        .collect();
    let mut ratio = vec![1.0f64; config.hosts];
    let mut was_down: Vec<u32> = Vec::new();
    assert_eq!(out.cycles.len(), config.cycles, "{what}");
    for (i, cycle) in out.cycles.iter().enumerate() {
        let now_ms = (i as u64 + 1) * CYCLE_MS;
        assert_eq!(cycle.now_ms, now_ms, "{what}");
        let down = faults.down_hosts(now_ms);
        let is_down = |h: usize| down.binary_search(&(h as u32)).is_ok();
        // A down host and a host that just came back both sit at 1.0.
        for &h in down.iter().chain(&was_down) {
            ratio[h as usize] = 1.0;
        }
        for s in 0..config.shards {
            let (mut total, mut conform) = (0.0f64, 0.0f64);
            for h in plan.range(s) {
                let d = if is_down(h) { 0.0 } else { demand[h] };
                total += d;
                if group[h] >= Marker::marked_group_count(ratio[h]) {
                    conform += d;
                }
            }
            let fresh = (cycle.shard_totals[s], cycle.shard_conforms[s]);
            assert_eq!(
                (fresh.0.map(f64::to_bits), fresh.1.map(f64::to_bits)),
                (Some(total.to_bits()), Some(conform.to_bits())),
                "{what}: cycle {} shard {s}: fresh {fresh:?}, replayed ({total}, {conform})",
                i + 1
            );
        }
        let (total, conform) = cycle.metered.expect("no store fault: every cycle meters");
        for (h, r) in ratio.iter_mut().enumerate() {
            *r = if is_down(h) {
                1.0
            } else {
                StatefulMeter::update_value(*r, total, conform, config.entitled.as_bps(), 2.0)
            };
        }
        was_down = down;
    }
    let bits = |r: &[f64]| r.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out.conform_ratios), bits(&ratio), "{what}: final ratios");
}

/// `config`'s fault plan plus a `StaleReads` window that opens after
/// its last cycle: the store keeps a snapshot of every read, and no
/// read is served one.
fn snapshotting(config: &FleetConfig) -> FleetConfig {
    let mut plan = config.faults.clone().unwrap_or_else(FaultPlan::none);
    let after = config.end_ms().expect("a bounded run") + 1;
    plan.faults.push(Fault {
        window: TimeWindow::new(after, u64::MAX),
        kind: FaultKind::StaleReads,
    });
    FleetConfig {
        faults: Some(plan),
        ..config.clone()
    }
}

/// Run `config` under `det` and under `par` with two workers, and once
/// more under `det` with a store that snapshots its reads, and check
/// each against the replay.
fn check(config: &FleetConfig) {
    let runs = [
        (FleetStrategy::Deterministic, 0, config.clone()),
        (FleetStrategy::Parallel, 2, config.clone()),
        (FleetStrategy::Deterministic, 0, snapshotting(config)),
    ];
    for (strategy, workers, config) in runs {
        let config = FleetConfig {
            strategy,
            workers,
            ..config
        };
        let out = run_fleet_engine(&config).expect("a valid fleet");
        check_against_replay(&config, &out);
    }
}

const LOADS: [f64; 4] = [0.5, 1.0, 2.0, 10.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any fleet of up to 2 000 hosts, any load from 0.5 to 10, up to 64
    /// cycles, and an optional crash of up to 40 hosts whose window
    /// opens at cycle 1 or mid-run, closing inside the run or not.
    #[test]
    fn every_cycle_folds_the_replayed_hosts(
        (pick, hosts, shards, cycles) in (any::<usize>(), 1usize..=2000, 1usize..=16, 1usize..=64),
        (load, free_load) in (0..=LOADS.len(), 0.5f64..10.0),
        crashed in proptest::collection::vec(any::<u32>(), 0..40),
        (at_start, mid, len) in (any::<bool>(), 2usize..=64, 1usize..=64),
    ) {
        let seeds = seeds();
        let mut down: Vec<u32> = crashed.iter().map(|&h| h % hosts as u32).collect();
        down.sort_unstable();
        down.dedup();
        let first = if at_start { 1 } else { mid.min(cycles) };
        let load = LOADS.get(load).copied().unwrap_or(free_load);
        let shape = (hosts, shards.min(hosts), cycles);
        let window = (down.as_slice(), first, first + len - 1);
        check(&config(seeds[pick % seeds.len()], shape, load, window));
    }
}

/// The windows the memo is most likely to get wrong, on every seed: a
/// crash open from cycle 1 at each load, closing while an over-entitled
/// fleet sits in its limit cycle of two cuts (both memo entries then
/// predate the restart); and a mid-run crash at load 0.5, where every
/// host stays at cut 0, so that only the demand tells the cycles apart.
#[test]
fn crash_windows_fold_the_replayed_hosts() {
    let down = [0, 1, 17, 249, 250, 999, 1000, 1999];
    for seed in seeds() {
        for load in LOADS {
            for last in [5, 12, 13, 30] {
                check(&config(seed, (2000, 8, 48), load, (&down, 1, last)));
            }
        }
        for (first, last) in [(2, 2), (6, 12), (20, 64)] {
            check(&config(seed, (2000, 8, 32), 0.5, (&down, first, last)));
        }
    }
}
