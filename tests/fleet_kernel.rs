//! Cross-commit pins of the sharded fleet engine's outcome bits.
//!
//! Every final conform ratio, every cycle's fresh per-shard partials
//! (`total` and `conform`, a dark read included) and the fail-static
//! count of one uneven plan — 20 011 hosts over 61 shards, so shards of
//! 328 and 329 hosts that start and end off every block boundary — at
//! offered ÷ entitled = 0.5, 1, 2 and 10, and once more at 2 with a
//! shard dark long enough to be held and then to hold the fleet. Each
//! case runs under `det` and under `par` with two workers, and both
//! must give the pinned digest: a host-pass or meter-pass rewrite that
//! moves one bit of one partial fails here.
//!
//! Each case also pins how many host passes it ran
//! ([`FleetOutcome::host_passes`]): a cycle whose marking cuts and
//! demand the engine has folded before reuses those partials, so a memo
//! keyed on more than the pass reads (ratio bits, say), or holding fewer
//! entries, moves the count. `tests/fleet_oracle.rs` catches one keyed
//! on less.

use entitlement_chaos::{Fault, FaultKind, FaultPlan, TimeWindow};
use entitlement_core::Rate;
use entitlement_enforcement::{
    host_demand_bps, run_fleet_engine, FleetConfig, FleetOutcome, FleetStrategy,
};

const HOSTS: usize = 20_011;
const SHARDS: usize = 61;
const CYCLES: usize = 10;

/// FNV-1a-64, folded over each word's little-endian bytes.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The digest of everything the engine decided: per cycle, each
/// shard's fresh `total` then `conform` partial in shard order (a
/// failed read as the word `u64::MAX`, which no partial's bits reach:
/// partials are sums of non-negative demand); then every final ratio
/// in host order; then the fail-static count.
fn outcome_digest(out: &FleetOutcome) -> u64 {
    let partial = |p: &Option<f64>| p.map_or(u64::MAX, f64::to_bits);
    let cycles = out.cycles.iter().flat_map(|c| {
        c.shard_totals
            .iter()
            .zip(&c.shard_conforms)
            .flat_map(move |(t, k)| [partial(t), partial(k)])
    });
    let ratios = out.conform_ratios.iter().map(|cr| cr.to_bits());
    fnv(cycles.chain(ratios).chain([out.fail_static_cycles]))
}

fn config(load: f64, dark: bool) -> FleetConfig {
    let base = FleetConfig {
        hosts: HOSTS,
        shards: SHARDS,
        cycles: CYCLES,
        per_host_rate: Rate::gbps(10.0),
        ..FleetConfig::default()
    };
    let offered: f64 = (0..HOSTS as u32)
        .map(|h| host_demand_bps(base.seed, base.per_host_rate, h))
        .sum();
    // Shard 17 dark for cycles 4..=7: held at cycle 4, then three
    // fail-static cycles, then metering again.
    let faults = dark.then(|| FaultPlan {
        seed: 1,
        faults: vec![Fault {
            window: TimeWindow::new(4000, 7001),
            kind: FaultKind::ShardOutage { shards: vec![17] },
        }],
    });
    FleetConfig {
        entitled: Rate::bps(offered / load),
        faults,
        ..base
    }
}

// Digests computed on commit 43b0946, while the meter state was one
// ratio per host; pass counts on the commit that added the pass memo:
// offered ÷ entitled, a dark shard, digest, host passes. Cycle 1 runs
// no pass (every host starts at cut 0, the state build's sums); where
// anyone is marked, the cut moves at cycle 2 and settles into a limit
// cycle of two cuts, one pass each.
const PINS: [(f64, bool, u64, u64); 5] = [
    (0.5, false, 0x1025_f7ec_066a_a108, 0),
    (1.0, false, 0x1025_f7ec_066a_a108, 0), // nobody marked either: same bits as 0.5
    (2.0, false, 0xb63f_9c90_6d60_45a4, 2),
    (10.0, false, 0x727b_fa4a_3431_b6b5, 2),
    (2.0, true, 0xd271_ed8d_32d3_83f1, 2),
];

#[test]
fn fleet_outcomes_match_the_pinned_digests() {
    for (load, dark, pin, passes) in PINS {
        let det = config(load, dark);
        let par = FleetConfig {
            strategy: FleetStrategy::Parallel,
            workers: 2,
            ..det.clone()
        };
        for config in [det, par] {
            let out = run_fleet_engine(&config).expect("a valid fleet");
            assert_eq!(out.conform_ratios.len(), HOSTS);
            assert_eq!(out.fail_static_cycles, if dark { 3 } else { 0 });
            assert_eq!(
                outcome_digest(&out),
                pin,
                "{} at offered/entitled = {load}, dark shard {dark}: {:#018x}",
                config.strategy.as_str(),
                outcome_digest(&out)
            );
            assert_eq!(out.host_passes, passes, "load {load}, dark shard {dark}");
        }
    }
}

/// The drill's own regime (`entitlectl drill --shards 64 --hosts 20000
/// --cycles 64`: 10 Gbps offered a host against 5 entitled) settles
/// into a limit cycle of two marking cuts, which the memo's two entries
/// both hold: 2 passes in 64 cycles, where one entry ran 37.
#[test]
fn a_limit_cycle_runs_two_host_passes_in_64_cycles() {
    let det = FleetConfig {
        hosts: 20_000,
        shards: 64,
        cycles: 64,
        entitled: Rate::gbps(5.0 * 20_000.0),
        per_host_rate: Rate::gbps(10.0),
        ..FleetConfig::default()
    };
    let par = FleetConfig {
        strategy: FleetStrategy::Parallel,
        workers: 2,
        ..det.clone()
    };
    for config in [det, par] {
        let out = run_fleet_engine(&config).expect("a valid fleet");
        assert_eq!(out.host_passes, 2, "{}", config.strategy.as_str());
    }
}
