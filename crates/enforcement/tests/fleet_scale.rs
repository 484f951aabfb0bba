//! The golden scale gate: a 10⁵-host fleet drill under a wall-clock
//! ceiling, with the SLO report pinned byte-for-byte to a committed
//! golden and the clock reads of every agent cycle pinned exactly.
//!
//! Ignored by default — CI runs it in release
//! (`cargo test --release --test fleet_scale -- --ignored`). To
//! regenerate the golden after an intentional semantic change:
//!
//! ```text
//! BLESS_FLEET_GOLDEN=1 cargo test --release --test fleet_scale -- --ignored
//! ```
//!
//! Because the engine is deterministic (logical clock, seeded demand,
//! counting-clock telemetry), the report bytes depend only on the
//! enforcement math — any drift here is a semantic change, not noise.

use entitlement_core::Rate;
use entitlement_enforcement::{
    run_fleet_engine_with, FleetConfig, FleetOutcome, FleetStrategy,
};
use entitlement_obs::{Clock, Obs};
use entitlement_slo::{watch::WatchEvaluator, SloEvaluator, SloReport};
use std::time::{Duration, Instant};

const HOSTS: usize = 100_000;
const CYCLES: usize = 16;
/// Generous for shared CI runners; a release build folds the 10⁵-host
/// fleet three orders of magnitude faster than this.
const WALL_CEILING: Duration = Duration::from_secs(60);
/// Counting-clock reads inside every `agent/cycle` span of the run.
const CYCLE_READS: f64 = 450.0;

fn scale_config(strategy: FleetStrategy) -> FleetConfig {
    FleetConfig {
        hosts: HOSTS,
        shards: 64,
        strategy,
        // ~1P offered vs 500T entitled: the fleet marks about half,
        // exercising the mark/recover limit cycle at scale.
        entitled: Rate::gbps(5.0 * HOSTS as f64),
        per_host_rate: Rate::gbps(10.0),
        cycles: CYCLES,
        ..FleetConfig::default()
    }
}

/// One scale run under the default policies: the outcome and the SLO
/// report it folded.
fn scale_run(strategy: FleetStrategy, obs: &Obs) -> (FleetOutcome, SloReport) {
    let mut slo = SloEvaluator::default();
    let out = run_fleet_engine_with(
        &scale_config(strategy),
        obs,
        &mut slo,
        &mut WatchEvaluator::default(),
    )
    .expect("scale run");
    (out, slo.report())
}

#[test]
#[ignore = "scale gate: run in release via -- --ignored"]
fn hundred_thousand_hosts_meet_the_ceiling_and_the_golden() {
    let obs = Obs::new(Clock::counting(1));
    let start = Instant::now();
    let (par, report) = scale_run(FleetStrategy::Parallel, &obs);
    let wall = start.elapsed();
    let agent_cycles_per_sec = (HOSTS * CYCLES) as f64 / wall.as_secs_f64();
    eprintln!(
        "fleet_scale: {HOSTS} hosts x {CYCLES} cycles in {:.3}s ({agent_cycles_per_sec:.0} agent-cycles/s)",
        wall.as_secs_f64()
    );
    assert!(
        wall < WALL_CEILING,
        "10^5-host drill took {wall:?}, ceiling {WALL_CEILING:?}"
    );
    assert_eq!(par.fail_static_cycles, 0, "healthy run");
    assert!((par.marked_fraction - 0.5).abs() < 0.15);

    // Clock reads per agent cycle at this shape: under the counting
    // clock a cycle span's `dur_ms` is the number of reads inside it,
    // so one read more or fewer in the host pass, the shard publish or
    // the fan-out fold moves every cycle.
    let cycle_reads: Vec<f64> = obs
        .trace
        .events()
        .iter()
        .filter(|e| e.span == "agent" && e.phase == "cycle")
        .map(|e| e.dur_ms)
        .collect();
    assert_eq!(cycle_reads, [CYCLE_READS; CYCLES], "clock reads per agent cycle moved");

    // The SLO report is pinned to the committed golden, byte for byte.
    let rendered = report.render_json();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fleet_slo.json");
    if std::env::var("BLESS_FLEET_GOLDEN").is_ok() {
        std::fs::write(golden_path, &rendered).expect("bless golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("committed golden");
    assert_eq!(
        rendered, golden,
        "SLO report drifted from the golden; bless intentionally with BLESS_FLEET_GOLDEN=1"
    );

    // Strategy equivalence holds at scale too: the single-threaded run
    // lands on bit-identical meter state and aggregates.
    let (det, det_report) =
        scale_run(FleetStrategy::Deterministic, &Obs::new(Clock::counting(1)));
    assert_eq!(det.conform_ratios, par.conform_ratios);
    assert_eq!(det.final_total.to_bits(), par.final_total.to_bits());
    assert_eq!(det_report.render_json(), rendered);
}
