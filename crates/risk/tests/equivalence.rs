//! The deterministic-equivalence harness: every `(workers, dedup)`
//! combination of the risk sweep must produce availability curves that
//! are **bitwise identical** to the serial, non-deduplicated baseline —
//! on enumerated and Monte-Carlo scenario sets, across seeds, with and
//! without background traffic — and so must every way of sourcing the
//! paths: through a one-failure-set plan per scenario (plan-less), read
//! from a route plan built per call, read from a plan reused across
//! sweeps — and
//! the sweep over a background placed ahead of time must equal the one
//! that places it scenario by scenario.

use entitlement_core::Rate;
use entitlement_obs::Obs;
use entitlement_risk::{assess_risk_detailed, sweep_plan, AvailabilityCurve, RiskConfig};
use entitlement_topology::routing::Demand;
use entitlement_topology::{
    route_matrix, route_matrix_on_residual, BackboneSpec, RoutePlan, ScenarioSet, Topology,
};
use proptest::prelude::*;

/// Collapse curves to raw bits so equality is exact, not approximate.
fn curve_bits(curves: &[AvailabilityCurve]) -> Vec<Vec<(u64, u64)>> {
    curves
        .iter()
        .map(|c| {
            c.samples()
                .iter()
                .map(|&(rate, p)| (rate.as_bps().to_bits(), p.to_bits()))
                .collect()
        })
        .collect()
}

/// A demand batch that stresses the router: per-region pipes of mixed
/// sizes, including one oversubscribed demand so partial admission and
/// residual bookkeeping both matter.
fn demand_batch(topo: &Topology, seed: u64) -> Vec<Demand> {
    let ids = topo.region_ids();
    let mut demands = Vec::new();
    for (i, &src) in ids.iter().enumerate() {
        let dst = ids[(i + 1 + (seed as usize % (ids.len() - 1))) % ids.len()];
        if dst == src {
            continue;
        }
        let gbps = 20.0 + 35.0 * (i as f64);
        demands.push(Demand {
            src,
            dst,
            amount: Rate::gbps(gbps),
        });
    }
    // One demand over the min-cut: admitted < requested even healthy.
    demands.push(Demand {
        src: ids[0],
        dst: ids[ids.len() - 1],
        amount: Rate::tbps(40.0),
    });
    demands
}

/// The plan-less sweep: every scenario searches its own paths through
/// the public one-shot router, no dedup, no sharing.
fn plan_less_bits(
    topo: &Topology,
    demands: &[Demand],
    scenarios: &ScenarioSet,
    background: &[Demand],
    k_paths: usize,
) -> Vec<Vec<(u64, u64)>> {
    let mut samples = vec![Vec::new(); demands.len()];
    for scenario in &scenarios.scenarios {
        let dead = &scenario.dead_links;
        let bg = route_matrix(topo, background, dead, k_paths);
        let out = route_matrix_on_residual(topo, demands, dead, k_paths, &bg.residual);
        for (i, a) in out.admitted.iter().enumerate() {
            samples[i].push((*a, scenario.probability));
        }
    }
    let curves: Vec<AvailabilityCurve> = samples
        .into_iter()
        .map(AvailabilityCurve::from_samples)
        .collect();
    curve_bits(&curves)
}

fn assert_equivalent(topo: &Topology, demands: &[Demand], scenarios: &ScenarioSet, label: &str) {
    // One plan for every sweep of this call: filled by the first, read
    // by all the rest, across both backgrounds and all knob settings.
    let mut reused = RoutePlan::build(topo, scenarios, RiskConfig::default().k_paths);
    for background in [
        Vec::new(),
        vec![Demand {
            src: topo.region_ids()[0],
            dst: topo.region_ids()[2],
            amount: Rate::tbps(5.0),
        }],
    ] {
        let baseline_cfg = RiskConfig {
            workers: 1,
            dedup: false,
            background: background.clone(),
            ..Default::default()
        };
        let baseline = assess_risk_detailed(topo, demands, scenarios, &baseline_cfg);
        let baseline_bits = curve_bits(&baseline.curves);
        assert_eq!(baseline.routed_scenarios, scenarios.len());
        assert_eq!(
            plan_less_bits(topo, demands, scenarios, &background, baseline_cfg.k_paths),
            baseline_bits,
            "{label}: the plan-less sweep diverged from the planned one"
        );
        let placed = reused.place(topo, &background);
        reused.ensure(topo, demands.iter().map(Demand::pair));

        for workers in [1usize, 2, 8] {
            for dedup in [false, true] {
                let cfg = RiskConfig {
                    workers,
                    dedup,
                    background: background.clone(),
                    ..Default::default()
                };
                let out = assess_risk_detailed(topo, demands, scenarios, &cfg);
                assert_eq!(
                    curve_bits(&out.curves),
                    baseline_bits,
                    "{label}: curves diverged at workers={workers} dedup={dedup} \
                     background={}",
                    !background.is_empty()
                );
                if dedup {
                    assert!(out.routed_scenarios <= out.total_scenarios);
                } else {
                    assert_eq!(out.routed_scenarios, out.total_scenarios);
                }
                let again = sweep_plan(
                    &reused,
                    &placed,
                    demands,
                    scenarios,
                    workers,
                    dedup,
                    &Obs::disabled(),
                );
                let curves: Vec<AvailabilityCurve> = again
                    .samples
                    .into_iter()
                    .map(AvailabilityCurve::from_samples)
                    .collect();
                assert_eq!(
                    curve_bits(&curves),
                    baseline_bits,
                    "{label}: reused plan diverged at workers={workers} dedup={dedup}"
                );
                assert_eq!(again.routed_scenarios, out.routed_scenarios);
            }
        }
    }
}

#[test]
fn enumerated_scenarios_equivalent_across_knobs() {
    for seed in [3u64, 41, 0x22] {
        let topo = BackboneSpec::small(seed).build();
        let demands = demand_batch(&topo, seed);
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        assert!(!scenarios.is_empty());
        assert_equivalent(&topo, &demands, &scenarios, &format!("enumerate seed={seed}"));
    }
}

#[test]
fn monte_carlo_scenarios_equivalent_across_knobs() {
    for seed in [7u64, 0xDED0, 0xBEEF] {
        let topo = BackboneSpec::small(seed).build();
        let demands = demand_batch(&topo, seed);
        let scenarios = ScenarioSet::sample(&topo, 600, seed);
        assert_eq!(scenarios.len(), 600);
        assert_equivalent(
            &topo,
            &demands,
            &scenarios,
            &format!("monte-carlo seed={seed}"),
        );
    }
}

#[test]
fn monte_carlo_dedup_actually_collapses_scenarios() {
    // The win the bench banks on: Monte-Carlo draws repeat failure sets
    // (mostly the healthy network), so dedup must route far fewer.
    let topo = BackboneSpec::small(11).build();
    let demands = demand_batch(&topo, 11);
    let scenarios = ScenarioSet::sample(&topo, 2000, 0xD11);
    let out = assess_risk_detailed(
        &topo,
        &demands,
        &scenarios,
        &RiskConfig {
            workers: 2,
            dedup: true,
            ..Default::default()
        },
    );
    assert_eq!(out.total_scenarios, 2000);
    assert!(
        out.dedup_savings() > 0.5,
        "expected >50% of routings skipped, saved {:.1}%",
        out.dedup_savings() * 100.0
    );
}

/// The sweep as it ran before backgrounds were placed ahead of time:
/// under each scenario the background in a pass of its own, the batch
/// on the residual it left; an empty background skips the first pass.
fn self_placing_bits(
    topo: &Topology,
    plan: &RoutePlan,
    demands: &[Demand],
    scenarios: &ScenarioSet,
    background: &[Demand],
) -> Vec<Vec<(u64, u64)>> {
    let mut samples = vec![Vec::new(); demands.len()];
    for (s, scenario) in scenarios.scenarios.iter().enumerate() {
        let unique = plan.unique_of(s);
        let admitted = if background.is_empty() {
            plan.route(topo, unique, demands).admitted
        } else {
            let bg = plan.route(topo, unique, background);
            plan.route_on(unique, demands, bg.residual).admitted
        };
        for (i, a) in admitted.iter().enumerate() {
            samples[i].push((a.as_bps().to_bits(), scenario.probability.to_bits()));
        }
    }
    samples
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pre_placed_background_sweeps_to_the_self_placing_bits(
        seed in 0u64..10_000,
        sampled in any::<bool>(),
        // (src, dst, Gbps) by region index; self pairs are legal no-ops.
        batch in proptest::collection::vec((0usize..8, 0usize..8, 1.0f64..30_000.0), 1..5),
        background in proptest::collection::vec((0usize..8, 0usize..8, 1.0f64..30_000.0), 0..4),
    ) {
        let topo = BackboneSpec::small(seed).build();
        let ids = topo.region_ids();
        let demands_of = |spec: &[(usize, usize, f64)]| -> Vec<Demand> {
            spec.iter()
                .map(|&(s, d, gbps)| Demand {
                    src: ids[s % ids.len()],
                    dst: ids[d % ids.len()],
                    amount: Rate::gbps(gbps),
                })
                .collect()
        };
        let (demands, background) = (demands_of(&batch), demands_of(&background));
        let scenarios = if sampled {
            ScenarioSet::sample(&topo, 80, seed)
        } else {
            ScenarioSet::enumerate(&topo, 1)
        };
        let mut plan = RoutePlan::build(&topo, &scenarios, 4);
        plan.ensure(&topo, demands.iter().chain(&background).map(Demand::pair));
        let expected = self_placing_bits(&topo, &plan, &demands, &scenarios, &background);

        // One placement per failure set, cloned by every sweep below.
        let placed = plan.place(&topo, &background);
        for workers in [1usize, 2] {
            for dedup in [true, false] {
                let out = sweep_plan(
                    &plan,
                    &placed,
                    &demands,
                    &scenarios,
                    workers,
                    dedup,
                    &Obs::disabled(),
                );
                let bits: Vec<Vec<(u64, u64)>> = out
                    .samples
                    .iter()
                    .map(|d| d.iter().map(|&(r, p)| (r.as_bps().to_bits(), p.to_bits())).collect())
                    .collect();
                prop_assert_eq!(
                    &bits, &expected,
                    "workers={} dedup={} background={}", workers, dedup, background.len()
                );
            }
        }
    }
}
