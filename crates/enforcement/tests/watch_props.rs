//! Property tests for the drill-level watchdog guarantees: a healthy
//! drill is silent for *any* seed from 50 hosts up, and the
//! offline trace refold is byte-identical to the streaming fold no
//! matter the seed.

use entitlement_enforcement::{run_drill_with, DrillConfig};
use entitlement_obs::{parse_trace, Clock, Obs};
use entitlement_slo::watch::{WatchEvaluator, WatchReport};
use entitlement_slo::SloEvaluator;
use proptest::prelude::*;

/// The watchdog report of one drill under the default policies.
fn drill_watch(config: &DrillConfig, obs: &Obs) -> WatchReport {
    let mut watch = WatchEvaluator::default();
    run_drill_with(config, obs, &mut SloEvaluator::default(), &mut watch);
    watch.report()
}

fn config(hosts: usize, seed: u64) -> DrillConfig {
    DrillConfig {
        hosts,
        seed,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// No monitor or detector fires on a healthy drill, whatever the
    /// seed, from 50 hosts to the default 2000: since the meter's
    /// recovery band (DESIGN.md §6, §10) coarse fleets no longer
    /// oscillate.
    #[test]
    fn healthy_drill_is_silent_for_any_seed(
        seed in any::<u64>(),
        hosts_pick in 0usize..7,
    ) {
        let hosts = [50usize, 100, 200, 300, 500, 1000, 2000][hosts_pick];
        let report = drill_watch(&config(hosts, seed), &Obs::disabled());
        prop_assert!(
            report.healthy(),
            "hosts {hosts} seed {seed:#x}:\n{}",
            report.render_text()
        );
    }

    /// Folding the emitted trace offline rebuilds the streaming report
    /// byte for byte, whatever the seed.
    #[test]
    fn offline_refold_is_byte_identical(seed in any::<u64>()) {
        let obs = Obs::new(Clock::manual(0));
        let live = drill_watch(&config(300, seed), &obs);
        let events = parse_trace(&obs.trace.to_jsonl()).expect("trace parses");
        let mut folded = WatchEvaluator::default();
        prop_assert_eq!(folded.fold_trace(&events), []);
        let offline = folded.report();
        prop_assert_eq!(live.render_json(), offline.render_json());
        prop_assert_eq!(live.render_text(), offline.render_text());
        prop_assert_eq!(live, offline);
    }
}
