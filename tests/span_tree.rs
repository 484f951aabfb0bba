//! Property tests for trace-schema v2 span-tree well-formedness: over
//! seeded drill and market runs with arbitrary seeds, every emitted
//! trace must reconstruct into a valid span forest — every `parent_id`
//! resolves, parents open before their children, child intervals nest
//! within the parent's, roots carry their own `span_id` as `trace_id`,
//! and the critical path through any root never exceeds the root's own
//! duration.

use network_entitlement::approval::ApprovalConfig;
use network_entitlement::core::{Quarter, QosBucket};
use network_entitlement::market::{
    generate_storm, EntitlementMarket, SliceGrid, StormConfig,
};
use network_entitlement::obs::{
    build_span_forest, check_well_formed, critical_path, Clock, Obs, TraceEvent,
};
use network_entitlement::prelude::{run_drill_with, DrillConfig, SloEvaluator, WatchEvaluator};
use network_entitlement::telemetry::traced_approval_preamble;
use network_entitlement::topology::BackboneSpec;
use proptest::prelude::*;

/// A traced approval round plus a short drill: covers the approval,
/// risk, kv, and agent span families.
fn drill_trace(seed: u64) -> Vec<TraceEvent> {
    let obs = Obs::new(Clock::counting(1));
    traced_approval_preamble(seed, &obs);
    let _ = run_drill_with(
        &DrillConfig {
            hosts: 50,
            duration_min: 10.0,
            seed,
            ..Default::default()
        },
        &obs,
        &mut SloEvaluator::default(),
        &mut WatchEvaluator::default(),
    );
    obs.trace.events()
}

/// A seeded market storm with asks large enough to force sweep
/// fallbacks: covers the market admit / sweep_fallback / risk scenario
/// span families.
fn market_trace(seed: u64, requests: usize) -> Vec<TraceEvent> {
    let topo = BackboneSpec::small(7).build();
    let grid = SliceGrid::quarterly(Quarter(0), 30);
    let config = ApprovalConfig {
        max_cuts: 1,
        ..Default::default()
    };
    let mut market = EntitlementMarket::new(topo, grid, config);
    let buckets = QosBucket::approval_order();
    let obs = Obs::new(Clock::counting(1));
    market.warm(&buckets, &obs);
    let sc = StormConfig {
        requests,
        seed,
        max_ask_gbps: 500.0,
        ..Default::default()
    };
    let reqs = generate_storm(&market, &buckets, &sc);
    for req in &reqs {
        market.admit_obs(req, &obs);
    }
    obs.trace.events()
}

/// The shared assertion: the trace builds a forest, passes every
/// well-formedness lint, and each root bounds its critical path.
fn assert_tree_invariants(events: &[TraceEvent]) {
    assert!(!events.is_empty(), "seeded run produced no trace");
    let forest = build_span_forest(events).expect("every parent_id resolves");
    let lints = check_well_formed(events);
    assert!(lints.is_empty(), "well-formedness lints: {lints:?}");
    for &root in &forest.roots {
        let path = critical_path(&forest, events, root);
        assert!(!path.is_empty(), "critical path must include the root");
        assert_eq!(path[0], root);
        let path_ms: f64 = path.iter().skip(1).map(|&i| events[i].dur_ms).sum();
        assert!(
            path_ms <= events[root].dur_ms + 1e-9,
            "critical-path descendant time {path_ms} exceeds root duration {}",
            events[root].dur_ms
        );
        // Every hop nests in its predecessor.
        for hop in path.windows(2) {
            let (p, c) = (&events[hop[0]], &events[hop[1]]);
            assert_eq!(c.parent_id, p.span_id);
            assert_eq!(c.trace_id, p.trace_id);
        }
    }
}

proptest! {
    // Each case runs a full seeded drill/storm; keep the case count
    // modest so the suite stays in tier-1 budget.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn drill_traces_form_well_nested_span_trees(seed in any::<u64>()) {
        assert_tree_invariants(&drill_trace(seed));
    }

    #[test]
    fn market_traces_form_well_nested_span_trees(
        seed in any::<u64>(),
        requests in 20usize..120,
    ) {
        assert_tree_invariants(&market_trace(seed, requests));
    }
}
