//! End-to-end SLO burn-rate alerting under chaos: a mid-drill KV
//! outage must raise the fast-burn alert within a few cycles of the
//! shard going dark (fail-closed SLI: unmeasurable intervals count as
//! bad), clear it shortly after recovery, and leave the run's
//! attainment below target so `slo audit` flags it. A healthy drill
//! must stay alert-free, and the offline trace fold must reproduce
//! the streaming report byte for byte.
//!
//! Same seed matrix as `tests/chaos.rs`; set `CHAOS_SEED=<n>` to pin
//! one seed when reproducing a failure.

use network_entitlement::obs::parse_trace;
use network_entitlement::prelude::*;
use network_entitlement::slo::{AlertKind, SloEvaluator, SloReport};

/// The CI seed matrix, or the single `CHAOS_SEED` override.
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![0xD217, 0xBEEF, 0x5EED],
    }
}

/// The shipped example outage: the KV store is dark from minute 120
/// to minute 160 — drill ticks 240..320 at the 30 s default cadence.
const OUTAGE_START_TICK: u64 = 240;
const RECOVERY_TICK: u64 = 320;

fn outage_plan() -> FaultPlan {
    let text = std::fs::read_to_string("examples/faults/kv_outage.json")
        .expect("example fault plan exists");
    FaultPlan::from_json(&text).expect("example fault plan parses")
}

fn drill_config(seed: u64, faults: Option<FaultPlan>) -> DrillConfig {
    DrillConfig {
        hosts: 300,
        seed,
        faults,
        ..Default::default()
    }
}

/// The SLO report of one drill under the default policies.
fn drill_slo(config: &DrillConfig, obs: &Obs) -> SloReport {
    let mut slo = SloEvaluator::default();
    run_drill_with(config, obs, &mut slo, &mut WatchEvaluator::default());
    slo.report()
}

fn fault_report(seed: u64) -> SloReport {
    drill_slo(&drill_config(seed, Some(outage_plan())), &Obs::disabled())
}

/// The outage raises the fast-burn alert within a handful of cycles
/// of the store going dark, and clears it shortly after recovery.
#[test]
fn kv_outage_fires_fast_burn_alert_promptly() {
    for seed in seeds() {
        let report = fault_report(seed);
        let e = report
            .entities
            .iter()
            .find(|e| e.entity == "npg:2" && e.qos == "c3")
            .expect("the drill's coldstorage entity is reported");

        let fires: Vec<u64> = e
            .alerts
            .iter()
            .filter(|a| a.kind == AlertKind::Fire)
            .map(|a| a.cycle)
            .collect();
        let clears: Vec<u64> = e
            .alerts
            .iter()
            .filter(|a| a.kind == AlertKind::Clear)
            .map(|a| a.cycle)
            .collect();

        assert_eq!(fires.len(), 1, "seed {seed:#x}: one outage, one fire");
        assert_eq!(clears.len(), 1, "seed {seed:#x}: one recovery, one clear");
        let (fire, clear) = (fires[0], clears[0]);
        assert!(
            (OUTAGE_START_TICK..OUTAGE_START_TICK + 10).contains(&fire),
            "seed {seed:#x}: fire at cycle {fire}, outage starts at {OUTAGE_START_TICK}"
        );
        assert!(
            (RECOVERY_TICK..RECOVERY_TICK + 20).contains(&clear),
            "seed {seed:#x}: clear at cycle {clear}, recovery at {RECOVERY_TICK}"
        );
        assert!(!e.firing, "seed {seed:#x}: the alert ended cleared");

        // 80 dark fail-closed cycles out of ~500 sink attainment well
        // below the 0.99 contract target, so the audit must flag it.
        assert!(
            e.attainment < 0.99,
            "seed {seed:#x}: attainment {} should miss the target",
            e.attainment
        );
        assert!(e.violated, "seed {seed:#x}: entity flagged as violated");
        assert!(report.has_violations(), "seed {seed:#x}: report-level flag");
    }
}

/// A healthy drill never pages and passes the audit.
#[test]
fn healthy_drill_stays_alert_free() {
    for seed in seeds() {
        let report = drill_slo(&drill_config(seed, None), &Obs::disabled());
        assert_eq!(report.alerts_fired(), 0, "seed {seed:#x}: no alerts");
        assert!(!report.has_violations(), "seed {seed:#x}: no violations");
        for e in &report.entities {
            assert!(
                e.attainment >= 0.99,
                "seed {seed:#x}: {} {} attainment {}",
                e.entity,
                e.qos,
                e.attainment
            );
        }
    }
}

/// Folding the emitted trace offline reproduces the streaming report
/// byte for byte — `entitlectl slo report` over a saved trace agrees
/// exactly with the in-process evaluator, including under faults.
#[test]
fn offline_trace_fold_matches_streaming_report() {
    let obs = Obs::new(Clock::manual(0));
    let live = drill_slo(&drill_config(0xD217, Some(outage_plan())), &obs);
    let events = parse_trace(&obs.trace.to_jsonl()).expect("trace parses");
    let mut folded = SloEvaluator::default();
    assert_eq!(folded.fold_trace(&events), []);
    let offline = folded.report();
    assert_eq!(live.render_json(), offline.render_json());
    assert_eq!(live.render_text(), offline.render_text());
}
