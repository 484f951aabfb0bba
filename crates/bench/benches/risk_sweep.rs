//! Risk-sweep throughput: serial vs parallel vs dedup+parallel.
//!
//! Two angles on the same knobs:
//!
//! * `fig22_pipeline` — the end-to-end approval-SLO experiment behind
//!   `repro fig22`, swept with each `(workers, dedup)` combination. The
//!   pipeline enumerates distinct fiber cuts, so the gain here is the
//!   thread fan-out (plus the removal of the per-scenario topology
//!   clone, which every combination enjoys).
//! * `monte_carlo_sweep` — `assess_risk` on a Monte-Carlo scenario set,
//!   where most draws repeat the same few failure sets and dedup routes
//!   an order of magnitude fewer scenarios. `seed-style` reproduces the
//!   pre-overlay code path (clone the topology and rewrite capacities
//!   for every scenario) as the baseline the speedup is measured from;
//!   `reused-plan` sweeps over a route plan filled once outside the
//!   loop — what the market and an approval round pay per sweep after
//!   their first.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use entitlement_bench::experiments::approval_slo;
use entitlement_core::Rate;
use entitlement_obs::Obs;
use entitlement_risk::curve::AvailabilityCurve;
use entitlement_risk::{assess_risk, sweep_plan, RiskConfig};
use entitlement_topology::routing::Demand;
use entitlement_topology::{route_matrix, BackboneSpec, RoutePlan, ScenarioSet, Topology};

const FIG22_TARGETS: &[f64] = &[0.9, 0.99, 0.9995];

fn bench_fig22(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig22_pipeline");
    group.sample_size(10);
    for (label, workers, dedup) in [
        ("serial", 1usize, false),
        ("parallel-8", 8, false),
        ("dedup+parallel-8", 8, true),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(approval_slo::run_with_sweep(
                    FIG22_TARGETS,
                    0.45,
                    0x22,
                    workers,
                    dedup,
                ))
            })
        });
    }
    group.finish();
}

/// The pre-overlay sweep, kept verbatim as the speedup baseline: route
/// the background, clone the whole topology, rewrite its capacities,
/// and route the batch on the clone — once per scenario, no dedup.
fn seed_style_assess(
    topo: &Topology,
    demands: &[Demand],
    scenarios: &ScenarioSet,
    background: &[Demand],
    k_paths: usize,
) -> Vec<AvailabilityCurve> {
    let mut samples: Vec<Vec<(Rate, f64)>> =
        vec![Vec::with_capacity(scenarios.len()); demands.len()];
    for scenario in &scenarios.scenarios {
        let bg = route_matrix(topo, background, &scenario.dead_links, k_paths);
        let mut residual_topo = topo.clone();
        residual_topo.apply_residual(&bg.residual);
        let outcome = route_matrix(&residual_topo, demands, &scenario.dead_links, k_paths);
        for (i, &a) in outcome.admitted.iter().enumerate() {
            samples[i].push((a, scenario.probability));
        }
    }
    samples
        .into_iter()
        .map(AvailabilityCurve::from_samples)
        .collect()
}

fn bench_monte_carlo(c: &mut Criterion) {
    let topo = BackboneSpec::small(41).build();
    let ids = topo.region_ids();
    let background = vec![Demand {
        src: ids[0],
        dst: ids[2],
        amount: Rate::tbps(4.0),
    }];
    let demands: Vec<Demand> = ids
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, &dst)| Demand {
            src: ids[0],
            dst,
            amount: Rate::gbps(40.0 * i as f64),
        })
        .collect();
    let scenarios = ScenarioSet::sample(&topo, 2000, 0x515);

    let mut group = c.benchmark_group("monte_carlo_sweep");
    group.sample_size(10);
    group.bench_function("seed-style", |b| {
        b.iter(|| {
            black_box(seed_style_assess(
                &topo, &demands, &scenarios, &background, 4,
            ))
        })
    });
    for (label, workers, dedup) in [
        ("serial", 1usize, false),
        ("parallel-8", 8, false),
        ("dedup+parallel-8", 8, true),
    ] {
        let config = RiskConfig {
            k_paths: 4,
            background: background.clone(),
            workers,
            dedup,
        };
        group.bench_function(label, |b| {
            b.iter(|| black_box(assess_risk(&topo, &demands, &scenarios, &config)))
        });
    }
    let config = RiskConfig {
        k_paths: 4,
        background: background.clone(),
        workers: 1,
        dedup: true,
    };
    let mut plan = RoutePlan::build(&topo, &scenarios, config.k_paths);
    plan.ensure(&topo, demands.iter().chain(&background).map(Demand::pair));
    group.bench_function("dedup+reused-plan", |b| {
        b.iter(|| {
            black_box(sweep_plan(
                &topo,
                &plan,
                &demands,
                &scenarios,
                &config,
                &Obs::disabled(),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig22, bench_monte_carlo);
criterion_main!(benches);
