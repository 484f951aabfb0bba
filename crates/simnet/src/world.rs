//! The simulated host fleet and its per-tick step function.
//!
//! A [`World`] holds one monitored service's hosts in one region (the
//! drill scope: Coldstorage egress of a selected region, §6) plus the
//! shared bottleneck. Each tick it:
//!
//! 1. computes per-host offered load: the base rate times the installed
//!    demand multiplier, split by a fixed per-host imbalance;
//! 2. splits offered load into conforming / non-conforming according to
//!    the current [`MarkingCommand`] (host-based or flow-based, §5.3);
//! 3. pushes both classes through the [`Bottleneck`];
//! 4. models TCP send-rate adaptation: hosts *send* roughly what the
//!    network delivers (plus retransmit overhead), which is exactly the
//!    feedback loop that makes stateless metering oscillate (§7.4);
//! 5. returns an [`Observation`] for the enforcement layer.

use crate::fabric::{Bottleneck, FabricOutcome};
use crate::tcp::{connect_stats, send_throttle, TcpTickStats};
use entitlement_core::{DetRng, Rate};
use serde::{Deserialize, Serialize};

/// What the enforcement layer tells the fleet to mark this tick.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum MarkingCommand {
    /// Nothing is remarked (enforcement off).
    None,
    /// Host-based remarking (§5.3, production default): the listed hosts
    /// remark *all* their matching traffic.
    HostBased {
        /// `marked[i]` — host `i` is in the non-conforming group.
        marked: Vec<bool>,
    },
    /// Flow-based remarking: every host remarks the flows whose group id
    /// falls in the marked set.
    FlowBased {
        /// `marked[g]` — flow group `g` (0..100) is non-conforming.
        marked_groups: Vec<bool>,
    },
}

impl MarkingCommand {
    /// The fraction of a uniform traffic spread this command remarks.
    pub fn marked_fraction(&self, hosts: usize) -> f64 {
        match self {
            MarkingCommand::None => 0.0,
            MarkingCommand::HostBased { marked } => {
                if hosts == 0 {
                    0.0
                } else {
                    marked.iter().filter(|&&m| m).count() as f64 / hosts as f64
                }
            }
            MarkingCommand::FlowBased { marked_groups } => {
                if marked_groups.is_empty() {
                    0.0
                } else {
                    marked_groups.iter().filter(|&&m| m).count() as f64
                        / marked_groups.len() as f64
                }
            }
        }
    }
}

/// Per-host lognormal sigma of load imbalance.
const HOST_IMBALANCE_SIGMA: f64 = 0.2;

/// New TCP connection attempts per host per second.
const CONN_RATE_PER_HOST: f64 = 2.0;

/// Fleet configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Number of hosts running the monitored service.
    pub hosts: usize,
    /// Aggregate offered load (the service's demand is flat; a
    /// [`World::set_demand_multiplier`] shapes it over time).
    pub base_rate: Rate,
    /// Tick length in seconds.
    pub dt_secs: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            hosts: 1000,
            base_rate: Rate::tbps(2.0),
            dt_secs: 10.0,
            seed: 0x5137,
        }
    }
}

/// What the enforcement agents observe after a tick (their inputs are
/// host-measured rates, not ground truth).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Observation {
    /// Tick time, seconds.
    pub t_secs: f64,
    /// Aggregate rate the hosts *sent* this tick (what agents meter).
    pub total_sent: Rate,
    /// Sent rate of traffic currently marked conforming.
    pub conf_sent: Rate,
    /// Sent rate of traffic currently marked non-conforming.
    pub nonconf_sent: Rate,
    /// Offered (demand) rate before network feedback.
    pub offered: Rate,
    /// What the fabric did.
    pub fabric: FabricOutcome,
    /// TCP stats of the conforming slice.
    pub tcp_conf: TcpTickStats,
    /// TCP stats of the non-conforming slice.
    pub tcp_nonconf: TcpTickStats,
    /// Per-host sent rates (for host-level metering/debugging).
    pub per_host_sent: Vec<Rate>,
}

/// The simulated fleet plus bottleneck.
pub struct World {
    config: WorldConfig,
    /// Per-host share of the aggregate load (sums to 1).
    host_weights: Vec<f64>,
    /// Per-host flow-group membership counts (how much of a host's
    /// traffic each of the 100 groups carries — uniform here).
    bottleneck: Bottleneck,
    /// Loss seen by each class last tick (TCP feedback state).
    last_conf_loss: f64,
    last_nonconf_loss: f64,
    rng: DetRng,
    /// Demand multiplier hook (incident injection).
    demand_multiplier: Box<dyn Fn(f64) -> f64 + Send>,
}

impl World {
    /// Build a world over a bottleneck.
    pub fn new(config: WorldConfig, bottleneck: Bottleneck) -> Self {
        let mut rng = DetRng::new(config.seed);
        let mut weights: Vec<f64> = (0..config.hosts)
            .map(|_| rng.lognormal(0.0, HOST_IMBALANCE_SIGMA))
            .collect();
        let sum: f64 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w /= sum);
        World {
            config,
            host_weights: weights,
            bottleneck,
            last_conf_loss: 0.0,
            last_nonconf_loss: 0.0,
            rng,
            demand_multiplier: Box::new(|_| 1.0),
        }
    }

    /// Install a demand multiplier (e.g. an incident) applied to the
    /// base rate.
    pub fn set_demand_multiplier(&mut self, f: impl Fn(f64) -> f64 + Send + 'static) {
        self.demand_multiplier = Box::new(f);
    }

    /// The configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Advance one tick under the given marking.
    pub fn step(&mut self, t_secs: f64, marking: &MarkingCommand) -> Observation {
        let cfg = &self.config;
        let offered = cfg.base_rate * (self.demand_multiplier)(t_secs);

        // Per-host offered with a little per-tick jitter.
        let per_host_offered: Vec<Rate> = self
            .host_weights
            .iter()
            .map(|&w| offered * w * self.rng.range(0.97, 1.03))
            .collect();

        // Split into conforming / non-conforming demand by marking.
        let (mut conf_demand, mut nonconf_demand) = (Rate::ZERO, Rate::ZERO);
        let mut per_host_marked_fraction = vec![0.0; cfg.hosts];
        match marking {
            MarkingCommand::None => {
                conf_demand = per_host_offered.iter().copied().sum();
            }
            MarkingCommand::HostBased { marked } => {
                for (i, &r) in per_host_offered.iter().enumerate() {
                    if marked.get(i).copied().unwrap_or(false) {
                        nonconf_demand += r;
                        per_host_marked_fraction[i] = 1.0;
                    } else {
                        conf_demand += r;
                    }
                }
            }
            MarkingCommand::FlowBased { marked_groups } => {
                let frac = marking.marked_fraction(cfg.hosts);
                for (i, &r) in per_host_offered.iter().enumerate() {
                    nonconf_demand += r * frac;
                    conf_demand += r * (1.0 - frac);
                    per_host_marked_fraction[i] = frac;
                }
                let _ = marked_groups;
            }
        }

        // TCP send-rate feedback: senders throttle toward what the network
        // delivered last tick, but never fully stop.
        let conf_throttle = send_throttle(self.last_conf_loss);
        let nonconf_throttle = send_throttle(self.last_nonconf_loss);
        let conf_sent = conf_demand * conf_throttle;
        let nonconf_sent = nonconf_demand * nonconf_throttle;

        let fabric = self.bottleneck.serve(t_secs, conf_sent, nonconf_sent);
        self.last_conf_loss = fabric.conf_loss;
        self.last_nonconf_loss = fabric.nonconf_loss;

        // TCP connection stats.
        let attempts = CONN_RATE_PER_HOST * cfg.hosts as f64 * cfg.dt_secs;
        let marked_frac = marking.marked_fraction(cfg.hosts);
        let tcp_conf = connect_stats(attempts * (1.0 - marked_frac), fabric.conf_loss);
        let tcp_nonconf = connect_stats(attempts * marked_frac, fabric.nonconf_loss);

        // Per-host *sent* rates (what agents meter locally). These must
        // apply the same previous-tick throttle the aggregate used, so
        // that they sum exactly to `total_sent`; `last_*_loss` has
        // already been overwritten with this tick's result by now.
        let per_host_sent: Vec<Rate> = per_host_offered
            .iter()
            .zip(&per_host_marked_fraction)
            .map(|(&r, &mf)| {
                let conf_part = r * (1.0 - mf) * conf_throttle;
                let nonconf_part = r * mf * nonconf_throttle;
                conf_part + nonconf_part
            })
            .collect();

        Observation {
            t_secs,
            total_sent: conf_sent + nonconf_sent,
            conf_sent,
            nonconf_sent,
            offered,
            fabric,
            tcp_conf,
            tcp_nonconf,
            per_host_sent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(cap_t: f64) -> World {
        world_behind(Bottleneck {
            capacity: Rate::tbps(cap_t),
            ..Default::default()
        })
    }

    fn world_behind(bottleneck: Bottleneck) -> World {
        World::new(
            WorldConfig {
                hosts: 100,
                base_rate: Rate::tbps(2.0),
                dt_secs: 10.0,
                ..Default::default()
            },
            bottleneck,
        )
    }

    #[test]
    fn unmarked_uncongested_sends_offered() {
        let mut w = world(10.0);
        let obs = w.step(0.0, &MarkingCommand::None);
        assert!((obs.total_sent.as_tbps() - 2.0).abs() < 0.05);
        assert_eq!(obs.fabric.conf_loss, 0.0);
        assert_eq!(obs.nonconf_sent, Rate::ZERO);
        assert_eq!(obs.per_host_sent.len(), 100);
    }

    #[test]
    fn host_marking_splits_traffic() {
        let mut w = world(10.0);
        // Mark half the hosts.
        let marked: Vec<bool> = (0..100).map(|i| i < 50).collect();
        let obs = w.step(0.0, &MarkingCommand::HostBased { marked });
        let frac = obs.nonconf_sent.as_bps() / obs.total_sent.as_bps();
        // Host weights are lognormal, so ~half ± imbalance.
        assert!((0.3..0.7).contains(&frac), "marked fraction {frac}");
    }

    #[test]
    fn flow_marking_is_exact_fraction() {
        let mut w = world(10.0);
        let marked_groups: Vec<bool> = (0..100).map(|g| g < 20).collect();
        let obs = w.step(0.0, &MarkingCommand::FlowBased { marked_groups });
        let frac = obs.nonconf_sent.as_bps() / obs.total_sent.as_bps();
        assert!((frac - 0.2).abs() < 1e-9, "flow marking is uniform: {frac}");
    }

    #[test]
    fn tcp_backoff_reduces_sent_rate_under_loss() {
        let mut w = world(1.0); // 1T capacity, 2T demand
        let obs1 = w.step(0.0, &MarkingCommand::None);
        // First tick: no feedback yet, conforming overflows.
        assert!(obs1.fabric.conf_loss > 0.0);
        let obs2 = w.step(10.0, &MarkingCommand::None);
        assert!(
            obs2.total_sent.as_bps() < obs1.total_sent.as_bps(),
            "senders back off after loss"
        );
    }

    #[test]
    fn demand_multiplier_injects_incident() {
        let mut w = world(10.0);
        w.set_demand_multiplier(|t| if t > 100.0 { 1.5 } else { 1.0 });
        let before = w.step(0.0, &MarkingCommand::None);
        let after = w.step(200.0, &MarkingCommand::None);
        let ratio = after.offered.as_bps() / before.offered.as_bps();
        assert!((ratio - 1.5).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn nonconforming_drops_do_not_touch_conforming() {
        let mut w = world_behind(Bottleneck {
            capacity: Rate::tbps(10.0),
            acls: vec![crate::fabric::AclRule {
                from_secs: 0.0,
                to_secs: 1e9,
                drop_fraction: 1.0,
            }],
            ..Default::default()
        });
        let marked: Vec<bool> = (0..100).map(|i| i < 30).collect();
        let mut obs = None;
        for k in 0..5 {
            obs = Some(w.step(k as f64 * 10.0, &MarkingCommand::HostBased {
                marked: marked.clone(),
            }));
        }
        let obs = obs.unwrap();
        assert_eq!(obs.fabric.conf_loss, 0.0);
        assert_eq!(obs.fabric.nonconf_loss, 1.0);
        // Non-conforming senders have collapsed to ~zero.
        assert!(obs.nonconf_sent.as_bps() < 0.01 * obs.total_sent.as_bps());
    }

    #[test]
    fn deterministic_with_seed() {
        let run = || {
            let mut w = world(10.0);
            (0..10)
                .map(|k| w.step(k as f64 * 10.0, &MarkingCommand::None).total_sent.as_bps())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
