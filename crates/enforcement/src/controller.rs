//! The first-generation centralized architecture (paper §5.1), kept as
//! an ablation baseline.
//!
//! A central controller polls every agent's rate, computes per-host
//! rate limits from the contract, and pushes them; agents shape (drop at
//! the source) rather than mark. The paper retired this design because:
//! (a) computing per-host rates does not scale with fleet size;
//! (b) source rate-limiting makes "immature decisions" — the host
//! cannot know instantaneous network capacity, so shaped traffic is
//! lost even when the network had room (the co-flow completion issue);
//! (c) the controller is a single point of failure — while it is down,
//! limits go stale.

use entitlement_core::Rate;
use serde::{Deserialize, Serialize};

/// Per-host compute cost per decision round, microseconds (models the
/// scaling wall of §5.1).
const PER_HOST_COMPUTE_US: f64 = 50.0;

/// Controller configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// How many ticks pass between controller decision rounds (the
    /// centralized loop is slow: collect → compute → distribute).
    pub decision_interval_ticks: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            decision_interval_ticks: 6,
        }
    }
}

/// The centralized controller state.
pub struct Controller {
    config: ControllerConfig,
    /// Last pushed per-host limits.
    limits: Vec<Rate>,
    ticks_since_decision: usize,
    /// Whether the controller process is up.
    pub healthy: bool,
}

impl Controller {
    /// New controller for a fleet of `hosts`.
    pub fn new(hosts: usize, config: ControllerConfig) -> Self {
        Controller {
            config,
            limits: vec![Rate(f64::INFINITY); hosts],
            ticks_since_decision: 0,
            healthy: true,
        }
    }

    /// Simulated wall-clock cost of one decision round for a fleet.
    pub fn decision_cost_secs(&self, hosts: usize) -> f64 {
        hosts as f64 * PER_HOST_COMPUTE_US / 1e6
    }

    /// One tick: maybe recompute limits from the observed per-host
    /// rates; returns the limits each host currently enforces.
    ///
    /// Limits are proportional: each host gets
    /// `entitled × host_rate / total_rate` — over-entitlement hosts are
    /// clipped at the source.
    pub fn tick(&mut self, per_host_rates: &[Rate], entitled: Rate) -> &[Rate] {
        self.ticks_since_decision += 1;
        if self.healthy && self.ticks_since_decision >= self.config.decision_interval_ticks {
            self.ticks_since_decision = 0;
            let total: Rate = per_host_rates.iter().copied().sum();
            if total.as_bps() <= entitled.as_bps() {
                // Under entitlement: no limits.
                self.limits = vec![Rate(f64::INFINITY); per_host_rates.len()];
            } else {
                let scale = entitled / total;
                self.limits = per_host_rates.iter().map(|&r| r * scale).collect();
            }
        }
        &self.limits
    }

    /// Apply the current limits to offered per-host demand, returning
    /// (sent rates, traffic shaped away at the source).
    pub fn shape(&self, offered: &[Rate]) -> (Vec<Rate>, Rate) {
        let mut shaped = Rate::ZERO;
        let sent: Vec<Rate> = offered
            .iter()
            .zip(&self.limits)
            .map(|(&o, &l)| {
                let s = o.min(l);
                shaped += (o - s).clamp_zero();
                s
            })
            .collect();
        (sent, shaped)
    }
}

/// Outcome of a centralized-vs-distributed comparison run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CentralizedOutcome {
    /// Traffic shaped at the source that the network could have carried
    /// (wasted capacity — the "immature decision" cost).
    pub wasted_tbps: f64,
    /// Mean staleness of limits, in ticks.
    pub mean_staleness_ticks: f64,
}

/// Simulate the centralized gen-1 system on a shifting workload and
/// measure traffic shaped *beyond* what the contract required.
///
/// Scenario: total demand is 20% above the entitlement, and the hot
/// half of the fleet rotates every `shift_interval` ticks. A perfect
/// enforcer shapes exactly the 20% excess; the centralized loop also
/// clips the newly-hot hosts at their stale cold-phase limits, shaping
/// traffic the network could have carried ("immature decisions").
pub fn centralized_waste(
    hosts: usize,
    entitled: Rate,
    ticks: usize,
    shift_interval: usize,
    config: ControllerConfig,
) -> CentralizedOutcome {
    let mut controller = Controller::new(hosts, config);
    let mut wasted = Rate::ZERO;
    let mut staleness = 0usize;
    let mut since = 0usize;
    for t in 0..ticks {
        // Rotate which half of the fleet is hot; total = 1.2 × entitled.
        let phase = (t / shift_interval) % 2;
        let per_host: Vec<Rate> = (0..hosts)
            .map(|h| {
                let hot = (h % 2 == phase) as u32 as f64;
                // Hot hosts carry 1.8/1.2 shares, cold 0.6/1.2.
                entitled * 1.2 * ((0.5 + hot) / hosts as f64)
            })
            .collect();
        let total: Rate = per_host.iter().copied().sum();
        let necessary = (total - entitled).clamp_zero();
        let (_, shaped) = controller.shape(&per_host);
        wasted += (shaped - necessary).clamp_zero();
        controller.tick(&per_host, entitled);
        since += 1;
        if since >= controller.config.decision_interval_ticks {
            since = 0;
        }
        staleness += since;
    }
    CentralizedOutcome {
        wasted_tbps: wasted.as_tbps(),
        mean_staleness_ticks: staleness as f64 / ticks as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_entitlement_no_limits() {
        let mut c = Controller::new(4, ControllerConfig {
            decision_interval_ticks: 1,
        });
        let rates = vec![Rate::gbps(1.0); 4];
        let limits = c.tick(&rates, Rate::gbps(100.0));
        assert!(limits.iter().all(|l| l.as_bps().is_infinite()));
        let (sent, shaped) = c.shape(&rates);
        assert_eq!(shaped, Rate::ZERO);
        assert_eq!(sent, rates);
    }

    #[test]
    fn over_entitlement_proportional_clip() {
        let mut c = Controller::new(2, ControllerConfig {
            decision_interval_ticks: 1,
        });
        let rates = vec![Rate::gbps(30.0), Rate::gbps(10.0)];
        c.tick(&rates, Rate::gbps(20.0));
        let (sent, shaped) = c.shape(&rates);
        assert!((sent[0].as_gbps() - 15.0).abs() < 1e-9);
        assert!((sent[1].as_gbps() - 5.0).abs() < 1e-9);
        assert!((shaped.as_gbps() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn stale_limits_while_unhealthy() {
        let mut c = Controller::new(1, ControllerConfig {
            decision_interval_ticks: 1,
        });
        c.tick(&[Rate::gbps(100.0)], Rate::gbps(50.0));
        let old_limit = c.limits[0];
        c.healthy = false;
        // Demand drops but the controller is down: limit stays stale.
        c.tick(&[Rate::gbps(1.0)], Rate::gbps(50.0));
        assert_eq!(c.limits[0], old_limit);
    }

    #[test]
    fn shifting_workload_wastes_capacity() {
        // The gen-1 pathology: demand never exceeds the contract, yet
        // the slow central loop shapes traffic anyway.
        let out = centralized_waste(
            100,
            Rate::tbps(1.0),
            120,
            6,
            ControllerConfig {
                decision_interval_ticks: 6,
            },
        );
        assert!(
            out.wasted_tbps > 1.0,
            "rotating hot spots must waste traffic, got {}",
            out.wasted_tbps
        );
        // A fast controller wastes less.
        let fast = centralized_waste(
            100,
            Rate::tbps(1.0),
            120,
            6,
            ControllerConfig {
                decision_interval_ticks: 2,
            },
        );
        assert!(fast.wasted_tbps < out.wasted_tbps);
    }

    #[test]
    fn decision_cost_scales_linearly() {
        let c = Controller::new(10, ControllerConfig::default());
        let small = c.decision_cost_secs(10_000);
        let big = c.decision_cost_secs(100_000);
        assert!((big / small - 10.0).abs() < 1e-9);
        // O(100k) hosts at 50 µs each = 5 s per round: the scaling wall.
        assert!(big > 4.0);
    }
}
