//! The determinism-equivalence harness for the sharded fleet engine.
//!
//! The engine's contract is that execution strategy is invisible:
//! running the same fleet single-threaded (`det`) or across scoped
//! worker threads (`par`) produces **bit-identical** aggregates, meter
//! states, telemetry traces, and SLO reports — for any fleet size,
//! shard count, seed, worker count, and fault plan. And a one-shard
//! fleet must reproduce the flat (pre-sharding) agent math exactly:
//! the same `StatefulMeter` float ops in the same order.
//!
//! Equality here is `f64` bit equality and byte equality of the
//! rendered trace/report, not tolerance comparison — the point is that
//! parallel summation was *structured* to be deterministic (per-shard
//! host-order partials, shard-order fold), not that it lands close.

use entitlement_chaos::{Fault, FaultKind, FaultPlan, TimeWindow};
use entitlement_enforcement::marking::{Marker, GROUPS};
use entitlement_enforcement::{
    host_demand_bps, run_fleet_engine, run_fleet_engine_with, FleetConfig, FleetOutcome,
    FleetStrategy, Meter, StatefulMeter,
};
use entitlement_core::{HostId, Rate};
use entitlement_kvstore::key_hash;
use entitlement_obs::{Clock, Obs};
use entitlement_slo::{watch::WatchEvaluator, SloEvaluator};
use proptest::prelude::*;

fn base_config(hosts: usize, shards: usize, seed: u64, cycles: usize) -> FleetConfig {
    FleetConfig {
        hosts,
        shards,
        seed,
        cycles,
        // Demand sits around 2× the entitlement so the fleet actually
        // oscillates through mark/recover cycles — the regime where
        // summation order would show up if it could.
        entitled: Rate::gbps(5.0 * hosts as f64),
        per_host_rate: Rate::gbps(10.0),
        ..FleetConfig::default()
    }
}

/// Run under a strategy with telemetry on, returning the outcome plus
/// the rendered trace and SLO report.
fn run_with_telemetry(
    mut config: FleetConfig,
    strategy: FleetStrategy,
    workers: usize,
) -> (FleetOutcome, String, String, String) {
    config.strategy = strategy;
    config.workers = workers;
    let obs = Obs::new(Clock::counting(1));
    let mut slo = SloEvaluator::default();
    let outcome = run_fleet_engine_with(&config, &obs, &mut slo, &mut WatchEvaluator::default())
        .expect("valid config");
    (
        outcome,
        obs.trace.to_jsonl(),
        slo.report().render_json(),
        entitlement_obs::fold_metrics(&obs.trace.events()).expect("the run's events fold"),
    )
}

/// Bitwise equality assertions between two outcomes.
fn assert_outcomes_identical(det: &FleetOutcome, par: &FleetOutcome) {
    assert_eq!(det.conform_ratios, par.conform_ratios, "meter states");
    assert_eq!(det.demand_bps.to_bits(), par.demand_bps.to_bits());
    assert_eq!(det.final_total.to_bits(), par.final_total.to_bits());
    assert_eq!(det.marked_fraction.to_bits(), par.marked_fraction.to_bits());
    assert_eq!(det.fail_static_cycles, par.fail_static_cycles);
    assert_eq!(det.fanout_reads, par.fanout_reads);
    assert_eq!(det.shard_stats, par.shard_stats);
    assert_eq!(det.cycles.len(), par.cycles.len());
    for (d, p) in det.cycles.iter().zip(&par.cycles) {
        assert_eq!(d.metered, p.metered, "cycle {} fold", d.now_ms);
        assert_eq!(d.shard_totals, p.shard_totals, "cycle {} partials", d.now_ms);
        assert_eq!(d.shard_conforms, p.shard_conforms);
        assert_eq!(d.live_total.to_bits(), p.live_total.to_bits());
        assert_eq!(d.live_conform.to_bits(), p.live_conform.to_bits());
        assert_eq!(d.marked_fraction.to_bits(), p.marked_fraction.to_bits());
    }
}

/// The flat-path reference: the pre-sharding agent math, host order,
/// one `StatefulMeter` per host fed the global aggregates — exactly
/// what a per-host agent computes, without any KV or shard machinery.
fn flat_reference(config: &FleetConfig) -> Vec<f64> {
    let demand: Vec<f64> = (0..config.hosts)
        .map(|h| host_demand_bps(config.seed, config.per_host_rate, h as u32))
        .collect();
    let group: Vec<u32> = (0..config.hosts)
        .map(|h| HostId(h as u32).group(GROUPS))
        .collect();
    let mut meters: Vec<StatefulMeter> = (0..config.hosts).map(|_| StatefulMeter::new()).collect();
    for _ in 0..config.cycles {
        let mut total = 0.0;
        let mut conform = 0.0;
        for h in 0..config.hosts {
            total += demand[h];
            if group[h] >= Marker::marked_group_count(meters[h].conform_ratio()) {
                conform += demand[h];
            }
        }
        for m in &mut meters {
            m.update(Rate::bps(total), Rate::bps(conform), config.entitled);
        }
    }
    meters.iter().map(StatefulMeter::conform_ratio).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary fleet shapes, seeds, and worker counts, the
    /// parallel strategy is bit-identical to the deterministic one.
    #[test]
    fn par_equals_det_for_arbitrary_fleets(
        (hosts, shards) in (1usize..=96, 1usize..=8),
        workers in 0usize..=5,
        seed in any::<u64>(),
        cycles in 3usize..=8,
    ) {
        let shards = shards.min(hosts);
        let config = base_config(hosts, shards, seed, cycles);
        let det = run_fleet_engine(&config).expect("det run");
        let mut par_config = config;
        par_config.strategy = FleetStrategy::Parallel;
        par_config.workers = workers;
        let par = run_fleet_engine(&par_config).expect("par run");
        prop_assert_eq!(&det.conform_ratios, &par.conform_ratios);
        prop_assert_eq!(det.demand_bps.to_bits(), par.demand_bps.to_bits());
        prop_assert_eq!(det.final_total.to_bits(), par.final_total.to_bits());
        prop_assert_eq!(det.fail_static_cycles, par.fail_static_cycles);
        for (d, p) in det.cycles.iter().zip(&par.cycles) {
            prop_assert_eq!(d.metered, p.metered);
            prop_assert_eq!(d.marked_fraction.to_bits(), p.marked_fraction.to_bits());
        }
    }

    /// A one-shard fleet reproduces the flat agent math bit for bit:
    /// sharding changed the execution structure, not the numbers.
    #[test]
    fn one_shard_reproduces_the_flat_path(
        hosts in 1usize..=64,
        seed in any::<u64>(),
        cycles in 2usize..=8,
    ) {
        let config = base_config(hosts, 1, seed, cycles);
        let out = run_fleet_engine(&config).expect("engine run");
        let flat = flat_reference(&config);
        prop_assert_eq!(out.conform_ratios, flat);
    }
}

/// The fixed equivalence matrix the issue calls for: ≥3 seeds × ≥3
/// shard counts, with telemetry on — traces, SLO reports, and metric
/// renders must be byte-identical, outcomes bit-identical.
#[test]
fn equivalence_matrix_with_telemetry() {
    for &seed in &[0xD217u64, 0xBEEF, 0x5EED] {
        for &shards in &[1usize, 4, 7] {
            let config = base_config(120, shards, seed, 10);
            let (det, det_trace, det_report, det_metrics) =
                run_with_telemetry(config.clone(), FleetStrategy::Deterministic, 0);
            for workers in [0usize, 3] {
                let (par, par_trace, par_report, par_metrics) =
                    run_with_telemetry(config.clone(), FleetStrategy::Parallel, workers);
                assert_outcomes_identical(&det, &par);
                assert_eq!(
                    det_trace, par_trace,
                    "trace bytes, seed={seed:#x} shards={shards} workers={workers}"
                );
                assert_eq!(det_report, par_report, "SLO report bytes");
                assert_eq!(det_metrics, par_metrics, "metrics render");
            }
        }
    }
}

/// Equivalence holds under faults too: a dark shard mid-run changes
/// the numbers, but changes them identically for both strategies —
/// including the fail-static cycles and per-shard fault accounting.
#[test]
fn equivalence_survives_a_dark_shard() {
    for &seed in &[0xD217u64, 0xBEEF, 0x5EED] {
        let mut config = base_config(90, 6, seed, 12);
        config.per_shard_slis = true;
        config.faults = Some(FaultPlan {
            seed: 9,
            faults: vec![Fault {
                window: TimeWindow::new(5000, 9001),
                kind: FaultKind::ShardOutage { shards: vec![3] },
            }],
        });
        let (det, det_trace, det_report, _) =
            run_with_telemetry(config.clone(), FleetStrategy::Deterministic, 0);
        let (par, par_trace, par_report, _) =
            run_with_telemetry(config, FleetStrategy::Parallel, 4);
        assert!(det.fail_static_cycles > 0, "the fault actually bit");
        assert_outcomes_identical(&det, &par);
        assert_eq!(det_trace, par_trace, "seed={seed:#x}");
        assert_eq!(det_report, par_report);
    }
}

/// FNV-1a (`kvstore::key_hash`) over the hex bits of every cycle's
/// `live_total` / `live_conform` / `marked_fraction` and every final
/// conform ratio of one 20 000-host / 64-shard / 8-cycle run.
fn outcome_digest(out: &FleetOutcome) -> u64 {
    use std::fmt::Write;
    let mut text = String::new();
    for c in &out.cycles {
        for v in [c.live_total, c.live_conform, c.marked_fraction] {
            write!(text, "{:016x}", v.to_bits()).expect("write to a String");
        }
    }
    for cr in &out.conform_ratios {
        write!(text, "{:016x}", cr.to_bits()).expect("write to a String");
    }
    key_hash(&text)
}

// Computed on commit d8a41b3 (PR 20), before the host and meter passes
// became block kernels: offered ÷ entitled, digest.
const KERNEL_PINS: [(f64, u64); 4] = [
    (0.5, 0xd101_352c_c3e1_e445),
    (1.0, 0xd101_352c_c3e1_e445), // nobody marked either: same bits as 0.5
    (2.0, 0xecaa_8ff7_3661_0cb8),
    (10.0, 0xd86d_e136_5a88_65d9),
];

/// Cross-commit pin: the engine's numbers at each load regime are the
/// parent's, bit for bit, under both strategies. 312- and 313-host
/// shards, so every shard ends on a partial block.
#[test]
fn load_regimes_match_the_pinned_digests() {
    for (regime, pin) in KERNEL_PINS {
        let hosts = 20_000;
        let mut config = base_config(hosts, 64, 0xD217, 8);
        let offered: f64 = (0..hosts as u32)
            .map(|h| host_demand_bps(config.seed, config.per_host_rate, h))
            .sum();
        config.entitled = Rate::bps(offered / regime);
        let det = run_fleet_engine(&config).expect("det run");
        assert_eq!(
            outcome_digest(&det),
            pin,
            "det, offered/entitled = {regime}"
        );
        config.strategy = FleetStrategy::Parallel;
        config.workers = 2;
        let par = run_fleet_engine(&config).expect("par run");
        assert_eq!(
            outcome_digest(&par),
            pin,
            "par, offered/entitled = {regime}"
        );
    }
}
