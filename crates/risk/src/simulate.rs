//! Scenario-sweep risk simulation.

use crate::curve::AvailabilityCurve;
use crate::sweep::sweep_ordered_obs;
use entitlement_core::Rate;
use entitlement_obs::{key, Obs};
use entitlement_topology::routing::Demand;
use entitlement_topology::{Placement, RoutePlan, ScenarioSet, Topology};
use serde::{Deserialize, Serialize};

/// Risk simulation knobs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RiskConfig {
    /// Paths per demand for the multipath router.
    pub k_paths: usize,
    /// Background demands already admitted by more premium classes; they
    /// are placed first in every scenario so lower classes only see
    /// leftover capacity (Algorithm 2's class-by-class sweep).
    pub background: Vec<Demand>,
    /// Worker threads for the scenario sweep: `1` sweeps on the calling
    /// thread, `0` uses one worker per available core. Any value yields
    /// bitwise-identical curves (see [`crate::sweep`]).
    pub workers: usize,
    /// Route each distinct `dead_links` set once instead of once per
    /// scenario. Output-invariant; a large win on Monte-Carlo scenario
    /// sets, which sample the same few failure sets repeatedly.
    pub dedup: bool,
}

impl Default for RiskConfig {
    fn default() -> Self {
        RiskConfig {
            k_paths: 4,
            background: Vec::new(),
            workers: 1,
            dedup: true,
        }
    }
}

/// Curves plus sweep statistics (what deduplication actually saved).
#[derive(Clone, Debug)]
pub struct RiskAssessment {
    /// One availability curve per demand, in demand order.
    pub curves: Vec<AvailabilityCurve>,
    /// Scenarios in the input set.
    pub total_scenarios: usize,
    /// Distinct failure sets actually routed.
    pub routed_scenarios: usize,
}

impl RiskAssessment {
    /// Fraction of scenario routings skipped by deduplication.
    pub fn dedup_savings(&self) -> f64 {
        if self.total_scenarios == 0 {
            0.0
        } else {
            1.0 - self.routed_scenarios as f64 / self.total_scenarios as f64
        }
    }
}

/// Assess one batch of pipe demands against a scenario set: one
/// [`AvailabilityCurve`] per demand (same order), plus sweep
/// statistics. In each scenario the background (higher-priority
/// approvals) is placed first, then the batch; a demand's admitted
/// volume under that scenario becomes a probability-weighted curve
/// sample.
///
/// The sweep routes each *distinct* failure set once (when
/// `config.dedup`), fanned out over `config.workers` scoped threads in
/// fixed contiguous chunks, then emits one sample per *original*
/// scenario — in scenario order, with that scenario's own probability.
/// Because routing is a pure function of the failure set and samples are
/// merged in input order, the curves are bitwise identical for every
/// `(workers, dedup)` combination. A plan per call, over the rows the
/// topology keeps; a caller that sweeps the same scenario set again, or
/// wants the sweep's telemetry, keeps one and calls [`sweep_plan`].
pub fn assess_risk_detailed(
    topo: &Topology,
    demands: &[Demand],
    scenarios: &ScenarioSet,
    config: &RiskConfig,
) -> RiskAssessment {
    let mut plan = RoutePlan::build(topo, scenarios, config.k_paths);
    let background = plan.place(topo, &config.background);
    plan.ensure(topo, demands.iter().map(Demand::pair));
    let s = sweep_plan(
        &plan,
        &background,
        demands,
        scenarios,
        config.workers,
        config.dedup,
        &Obs::disabled(),
    );
    RiskAssessment {
        curves: s
            .samples
            .into_iter()
            .map(AvailabilityCurve::from_samples)
            .collect(),
        total_scenarios: s.total_scenarios,
        routed_scenarios: s.routed_scenarios,
    }
}

/// The raw per-scenario material an assessment folds away: one
/// `(admitted, probability)` sample per *original* scenario per demand,
/// in scenario order — the decision-provenance layer reads these to
/// name which failure scenario was binding for a grant.
#[derive(Clone, Debug)]
pub struct RiskSamples {
    /// `samples[d][s]` = demand `d`'s admitted volume and probability
    /// under original scenario `s`.
    pub samples: Vec<Vec<(Rate, f64)>>,
    /// Scenarios in the input set.
    pub total_scenarios: usize,
    /// Distinct failure sets actually routed.
    pub routed_scenarios: usize,
}

impl RiskSamples {
    /// The scenario index binding demand `d` at `slo`: walking
    /// scenarios by admitted volume descending (the exact order
    /// [`AvailabilityCurve::bandwidth_at`] uses, ties kept in scenario
    /// order), the scenario at which cumulative probability first
    /// reaches the SLO. Its admitted volume *is* the SLO-feasible
    /// headroom; `None` when even zero volume cannot meet the target.
    #[must_use]
    pub fn binding_scenario(&self, d: usize, slo: f64) -> Option<usize> {
        let s = self.samples.get(d)?;
        let mut order: Vec<usize> = (0..s.len()).collect();
        order.sort_by(|&a, &b| s[b].0.as_bps().total_cmp(&s[a].0.as_bps()));
        let mut acc = 0.0;
        for &i in &order {
            acc += s[i].1;
            if acc >= slo - 1e-12 {
                return Some(i);
            }
        }
        None
    }
}

/// The sweep kernel: place `demands` on what the background left under
/// every failure set of `scenarios`, every path read from `plan` — which
/// must have been built from `scenarios` and cover the demands' pairs —
/// and every failure set's start read from `background`, placed by
/// [`RoutePlan::place`] on `plan` (or on a plan it was extended from).
/// This is [`assess_risk_detailed`] stopping one step short of curve
/// construction: [`AvailabilityCurve::from_samples`] over each demand's
/// samples yields exactly the assessment's curves. `workers` and
/// `dedup` are [`RiskConfig`]'s.
///
/// With `obs` enabled: a `risk`/`sweep` span around the scenario
/// fan-out (labelled with scenario, unique-set and demand counts), a
/// `risk`/`merge` span around the per-scenario sample merge, and
/// per-scenario child spans on the serial path (see
/// [`crate::sweep::sweep_ordered_obs`]). The samples are the same
/// whatever `obs` is.
pub fn sweep_plan(
    plan: &RoutePlan,
    background: &Placement,
    demands: &[Demand],
    scenarios: &ScenarioSet,
    workers: usize,
    dedup: bool,
    obs: &Obs,
) -> RiskSamples {
    debug_assert_eq!(plan.scenario_count(), scenarios.len());
    debug_assert_eq!(background.unique_len(), plan.unique_len());
    // With dedup every distinct failure set is routed once, at its
    // first scenario; without, every scenario is routed.
    let every: Vec<usize>;
    let routed: &[usize] = if dedup {
        plan.representatives()
    } else {
        every = (0..scenarios.len()).collect();
        &every
    };

    let sweep_span = obs
        .span("risk", "sweep")
        .label_fmt(key!("demands"), demands.len())
        .label_fmt(key!("scenarios"), scenarios.len())
        .label_fmt(key!("unique"), routed.len());
    let per_routed: Vec<Vec<Rate>> = sweep_ordered_obs(routed, workers, obs, |scenario_idx| {
        let unique = plan.unique_of(scenario_idx);
        plan.route_on(unique, demands, background.residual(unique).clone())
            .admitted
    });
    sweep_span.finish();

    // Merge per original scenario, in scenario order: each scenario
    // contributes its own (admitted, probability) sample even when its
    // routing was shared, keeping the curve construction independent of
    // the dedup decision.
    let merge_span = obs.span("risk", "merge");
    let mut samples: Vec<Vec<(Rate, f64)>> =
        vec![Vec::with_capacity(scenarios.len()); demands.len()];
    for (s_idx, scenario) in scenarios.scenarios.iter().enumerate() {
        let slot = if dedup { plan.unique_of(s_idx) } else { s_idx };
        for (i, &a) in per_routed[slot].iter().enumerate() {
            samples[i].push((a, scenario.probability));
        }
    }
    merge_span.finish();
    RiskSamples {
        samples,
        total_scenarios: scenarios.len(),
        routed_scenarios: routed.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_core::Rate;
    use entitlement_topology::{BackboneSpec, ScenarioSet};

    fn small() -> Topology {
        BackboneSpec::small(31).build()
    }

    #[test]
    fn healthy_network_admits_modest_demand() {
        let topo = small();
        let ids = topo.region_ids();
        let demands = vec![Demand {
            src: ids[0],
            dst: ids[2],
            amount: Rate::gbps(10.0),
        }];
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let curves =
            assess_risk_detailed(&topo, &demands, &scenarios, &RiskConfig::default()).curves;
        assert_eq!(curves.len(), 1);
        // A 10G demand on a multi-Tbps backbone should survive any dual
        // cut: availability at full volume ≈ 1 - P(blackout residual).
        let avail = curves[0].availability_of(Rate::gbps(10.0));
        assert!(avail > 0.99, "availability {avail}");
    }

    #[test]
    fn absurd_demand_gets_degraded_grant_at_high_slo() {
        let topo = small();
        let ids = topo.region_ids();
        // Demand over the min-cut: admitted < requested even healthy.
        let huge = Rate::tbps(50.0);
        let demands = vec![Demand {
            src: ids[0],
            dst: ids[3],
            amount: huge,
        }];
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let curves =
            assess_risk_detailed(&topo, &demands, &scenarios, &RiskConfig::default()).curves;
        let granted = curves[0].bandwidth_at(0.99);
        assert!(granted.as_bps() > 0.0);
        assert!(granted.as_bps() < huge.as_bps());
    }

    #[test]
    fn stricter_slo_grants_less() {
        let topo = small();
        let ids = topo.region_ids();
        let demands = vec![Demand {
            src: ids[1],
            dst: ids[4],
            amount: Rate::tbps(3.0),
        }];
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let curves =
            assess_risk_detailed(&topo, &demands, &scenarios, &RiskConfig::default()).curves;
        let loose = curves[0].bandwidth_at(0.95);
        let strict = curves[0].bandwidth_at(0.9999);
        assert!(strict.as_bps() <= loose.as_bps());
    }

    #[test]
    fn background_traffic_reduces_grants() {
        let topo = small();
        let ids = topo.region_ids();
        let demands = vec![Demand {
            src: ids[0],
            dst: ids[2],
            amount: Rate::tbps(2.0),
        }];
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let free = assess_risk_detailed(&topo, &demands, &scenarios, &RiskConfig::default()).curves;
        let congested = assess_risk_detailed(
            &topo,
            &demands,
            &scenarios,
            &RiskConfig {
                background: vec![Demand {
                    src: ids[0],
                    dst: ids[2],
                    amount: Rate::tbps(50.0),
                }],
                ..Default::default()
            },
        )
        .curves;
        assert!(
            congested[0].bandwidth_at(0.99).as_bps() < free[0].bandwidth_at(0.99).as_bps(),
            "premium background must squeeze the batch"
        );
    }

    #[test]
    fn binding_scenario_admits_exactly_the_curve_headroom() {
        let topo = small();
        let ids = topo.region_ids();
        let demands = vec![Demand {
            src: ids[0],
            dst: ids[3],
            amount: Rate::tbps(50.0),
        }];
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let config = RiskConfig::default();
        let mut plan = RoutePlan::build(&topo, &scenarios, config.k_paths);
        plan.ensure(&topo, demands.iter().map(Demand::pair));
        let healthy = plan.place(&topo, &[]);
        let s = sweep_plan(
            &plan,
            &healthy,
            &demands,
            &scenarios,
            1,
            true,
            &Obs::disabled(),
        );
        let curves =
            assess_risk_detailed(&topo, &demands, &scenarios, &RiskConfig::default()).curves;
        for slo in [0.9, 0.99, 0.9999] {
            let b = s.binding_scenario(0, slo).expect("feasible slo");
            assert_eq!(
                s.samples[0][b].0,
                curves[0].bandwidth_at(slo),
                "binding scenario's admitted volume is the headroom at slo {slo}"
            );
        }
        // An SLO above the total scenario mass binds nothing.
        assert_eq!(s.binding_scenario(0, 1.5), None);
    }

    #[test]
    fn curve_mass_matches_scenarios() {
        let topo = small();
        let ids = topo.region_ids();
        let demands = vec![Demand {
            src: ids[0],
            dst: ids[1],
            amount: Rate::gbps(1.0),
        }];
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let curves =
            assess_risk_detailed(&topo, &demands, &scenarios, &RiskConfig::default()).curves;
        assert!((curves[0].total_mass() - 1.0).abs() < 1e-9);
    }
}
