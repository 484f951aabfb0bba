//! Topology-aware fluid network simulation.
//!
//! [`crate::world::World`] models one service behind one bottleneck —
//! enough for the §6 drill. Network-wide questions (the §2.2 incidents
//! induce loss "network-wide, instead of just on the bottleneck links")
//! need traffic routed over the real backbone with per-link priority
//! queues. [`NetWorld`] does that at fluid granularity:
//!
//! * each [`ServiceFlow`] is routed over its k shortest paths
//!   (precomputed, split evenly — ECMP-style);
//! * every tick, per-link conforming/non-conforming loads are
//!   accumulated and each link applies the same strict-priority
//!   discipline as [`crate::fabric::Bottleneck`];
//! * a flow's end-to-end loss composes its links' losses; TCP feedback
//!   throttles next tick's sending rate, with the same probe floor as
//!   the single-bottleneck world.

use crate::tcp::send_throttle;
use crate::world::MarkingCommand;
use entitlement_core::{NpgId, QosClass, Rate, RegionId};
use entitlement_topology::{k_shortest_paths, LinkId, Path, Topology};
use entitlement_workload::TrafficPattern;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// One service's traffic between a region pair.
#[derive(Clone, Debug)]
pub struct ServiceFlow {
    /// Owning service.
    pub npg: NpgId,
    /// Traffic class.
    pub qos: QosClass,
    /// Source region.
    pub src: RegionId,
    /// Destination region.
    pub dst: RegionId,
    /// Mean offered rate.
    pub base_rate: Rate,
    /// Time-of-day shape.
    pub pattern: TrafficPattern,
}

/// Paths per flow (even split).
const K_PATHS: usize = 2;

/// Per-flow outcome of one tick.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct FlowOutcome {
    /// Offered demand this tick.
    pub offered: Rate,
    /// Conforming traffic sent / delivered.
    pub conf_sent: Rate,
    /// Conforming delivered.
    pub conf_delivered: Rate,
    /// Non-conforming sent.
    pub nonconf_sent: Rate,
    /// Non-conforming delivered.
    pub nonconf_delivered: Rate,
    /// End-to-end conforming loss.
    pub conf_loss: f64,
    /// End-to-end non-conforming loss.
    pub nonconf_loss: f64,
}

/// One tick's network-wide outcome.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NetTick {
    /// Per-flow outcomes (input order).
    pub flows: Vec<FlowOutcome>,
    /// Per-link utilization after serving.
    pub link_utilization: BTreeMap<LinkId, f64>,
}

impl NetTick {
    /// Aggregate loss over all flows of one NPG (volume-weighted,
    /// conforming + non-conforming combined — the "network-wide total
    /// loss" of Fig 5).
    pub fn npg_loss(&self, flows: &[ServiceFlow], npg: NpgId) -> f64 {
        let mut sent = 0.0;
        let mut delivered = 0.0;
        for (f, o) in flows.iter().zip(&self.flows) {
            if f.npg == npg {
                sent += o.conf_sent.as_bps() + o.nonconf_sent.as_bps();
                delivered += o.conf_delivered.as_bps() + o.nonconf_delivered.as_bps();
            }
        }
        if sent <= 0.0 {
            0.0
        } else {
            1.0 - delivered / sent
        }
    }

    /// Aggregate loss over all conforming traffic of one class.
    pub fn class_conf_loss(&self, flows: &[ServiceFlow], qos: QosClass) -> f64 {
        let mut sent = 0.0;
        let mut delivered = 0.0;
        for (f, o) in flows.iter().zip(&self.flows) {
            if f.qos == qos {
                sent += o.conf_sent.as_bps();
                delivered += o.conf_delivered.as_bps();
            }
        }
        if sent <= 0.0 {
            0.0
        } else {
            1.0 - delivered / sent
        }
    }
}

/// The routed fluid network.
pub struct NetWorld {
    topo: Topology,
    flows: Vec<ServiceFlow>,
    /// Precomputed paths per flow.
    paths: Vec<Vec<Path>>,
    /// (conf, nonconf) loss per flow last tick (TCP feedback).
    last_loss: Vec<(f64, f64)>,
    /// Demand multipliers per NPG (incident hooks).
    multipliers: HashMap<NpgId, Box<dyn Fn(f64) -> f64 + Send>>,
    /// Marking per NPG: the fraction of its traffic remarked.
    marking: HashMap<NpgId, f64>,
}

impl NetWorld {
    /// Build the network, precomputing routes. Flows without any path
    /// are rejected.
    pub fn new(topo: Topology, flows: Vec<ServiceFlow>) -> entitlement_core::Result<Self> {
        let mut paths = Vec::with_capacity(flows.len());
        for f in &flows {
            let p = k_shortest_paths(&topo, f.src, f.dst, K_PATHS, &[])?;
            paths.push(p);
        }
        let n = flows.len();
        Ok(NetWorld {
            topo,
            flows,
            paths,
            last_loss: vec![(0.0, 0.0); n],
            multipliers: HashMap::new(),
            marking: HashMap::new(),
        })
    }

    /// The flows (for aggregation helpers).
    pub fn flows(&self) -> &[ServiceFlow] {
        &self.flows
    }

    /// Install an incident multiplier for one NPG.
    pub fn set_multiplier(&mut self, npg: NpgId, f: impl Fn(f64) -> f64 + Send + 'static) {
        self.multipliers.insert(npg, Box::new(f));
    }

    /// Set the remarked fraction of one NPG's traffic (0 = none). A
    /// [`MarkingCommand`] can be folded to this via `marked_fraction`.
    pub fn set_marking(&mut self, npg: NpgId, fraction: f64) {
        self.marking.insert(npg, fraction.clamp(0.0, 1.0));
    }

    /// Fold a fleet marking command into the per-NPG fraction.
    pub fn apply_command(&mut self, npg: NpgId, cmd: &MarkingCommand, hosts: usize) {
        self.set_marking(npg, cmd.marked_fraction(hosts));
    }

    /// Advance one tick.
    pub fn step(&mut self, t_secs: f64) -> NetTick {
        // --- Per-flow sending rates with TCP feedback. -----------------
        let mut conf_sent = vec![Rate::ZERO; self.flows.len()];
        let mut nonconf_sent = vec![Rate::ZERO; self.flows.len()];
        let mut offered_v = vec![Rate::ZERO; self.flows.len()];
        for (i, f) in self.flows.iter().enumerate() {
            let mult = self
                .multipliers
                .get(&f.npg)
                .map_or(1.0, |m| m(t_secs));
            let offered = f.base_rate * f.pattern.factor_at(t_secs) * mult;
            offered_v[i] = offered;
            let m = self.marking.get(&f.npg).copied().unwrap_or(0.0);
            conf_sent[i] = offered * (1.0 - m) * send_throttle(self.last_loss[i].0);
            nonconf_sent[i] = offered * m * send_throttle(self.last_loss[i].1);
        }

        // --- Per-link loads. --------------------------------------------
        let mut link_conf: BTreeMap<LinkId, f64> = BTreeMap::new();
        let mut link_nonconf: BTreeMap<LinkId, f64> = BTreeMap::new();
        for (i, paths) in self.paths.iter().enumerate() {
            let share = 1.0 / paths.len() as f64;
            for p in paths {
                for &lid in &p.links {
                    *link_conf.entry(lid).or_default() += conf_sent[i].as_bps() * share;
                    *link_nonconf.entry(lid).or_default() += nonconf_sent[i].as_bps() * share;
                }
            }
        }

        // --- Per-link strict-priority service → per-link loss. ----------
        let mut link_loss: BTreeMap<LinkId, (f64, f64)> = BTreeMap::new();
        let mut link_utilization: BTreeMap<LinkId, f64> = BTreeMap::new();
        for (&lid, &conf) in &link_conf {
            let cap = self.topo.link(lid).map_or(0.0, |l| l.capacity.as_bps());
            let nonconf = link_nonconf.get(&lid).copied().unwrap_or(0.0);
            let conf_deliv = conf.min(cap);
            let leftover = (cap - conf_deliv).max(0.0);
            let nonconf_deliv = nonconf.min(leftover);
            let conf_loss = if conf > 0.0 { 1.0 - conf_deliv / conf } else { 0.0 };
            let nonconf_loss = if nonconf > 0.0 {
                1.0 - nonconf_deliv / nonconf
            } else {
                0.0
            };
            link_loss.insert(lid, (conf_loss, nonconf_loss));
            link_utilization.insert(lid, ((conf_deliv + nonconf_deliv) / cap.max(1.0)).min(1.0));
        }

        // --- Per-flow end-to-end outcome. --------------------------------
        let mut out = NetTick {
            flows: Vec::with_capacity(self.flows.len()),
            link_utilization,
        };
        for (i, paths) in self.paths.iter().enumerate() {
            let share = 1.0 / paths.len() as f64;
            let mut conf_deliv = 0.0;
            let mut nonconf_deliv = 0.0;
            for p in paths {
                let mut conf_pass = 1.0;
                let mut nonconf_pass = 1.0;
                for lid in &p.links {
                    if let Some(&(cl, nl)) = link_loss.get(lid) {
                        conf_pass *= 1.0 - cl;
                        nonconf_pass *= 1.0 - nl;
                    }
                }
                conf_deliv += conf_sent[i].as_bps() * share * conf_pass;
                nonconf_deliv += nonconf_sent[i].as_bps() * share * nonconf_pass;
            }
            let conf_loss = if conf_sent[i].as_bps() > 0.0 {
                1.0 - conf_deliv / conf_sent[i].as_bps()
            } else {
                0.0
            };
            let nonconf_loss = if nonconf_sent[i].as_bps() > 0.0 {
                1.0 - nonconf_deliv / nonconf_sent[i].as_bps()
            } else {
                0.0
            };
            self.last_loss[i] = (conf_loss, nonconf_loss);
            out.flows.push(FlowOutcome {
                offered: offered_v[i],
                conf_sent: conf_sent[i],
                conf_delivered: Rate::bps(conf_deliv),
                nonconf_sent: nonconf_sent[i],
                nonconf_delivered: Rate::bps(nonconf_deliv),
                conf_loss,
                nonconf_loss,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_topology::BackboneSpec;

    fn build(scale: f64) -> NetWorld {
        // Small backbone; two services sharing the same region pair so
        // their traffic contends on the same links (offender NPG 0 in
        // C1, victim NPG 1 in C2).
        let topo = BackboneSpec::small(71).build();
        let dcs = topo.dc_ids();
        let mut flows = Vec::new();
        for i in 0..4 {
            flows.push(ServiceFlow {
                npg: NpgId((i % 2) as u32),
                qos: if i % 2 == 0 { QosClass::C1 } else { QosClass::C2 },
                src: dcs[0],
                dst: dcs[1],
                base_rate: Rate::gbps(100.0 * scale),
                pattern: TrafficPattern::Flat,
            });
        }
        NetWorld::new(topo, flows).unwrap()
    }

    /// Victim goodput: delivered / offered across NPG 1's flows.
    fn victim_goodput(net: &NetWorld, tick: &NetTick) -> f64 {
        let mut offered = 0.0;
        let mut delivered = 0.0;
        for (f, o) in net.flows().iter().zip(&tick.flows) {
            if f.npg == NpgId(1) {
                offered += o.offered.as_bps();
                delivered += o.conf_delivered.as_bps() + o.nonconf_delivered.as_bps();
            }
        }
        delivered / offered.max(1.0)
    }

    #[test]
    fn light_load_has_no_loss() {
        let mut net = build(1.0);
        let tick = net.step(0.0);
        for o in &tick.flows {
            assert_eq!(o.conf_loss, 0.0);
            assert!((o.conf_delivered.as_bps() - o.conf_sent.as_bps()).abs() < 1.0);
        }
        assert!(tick.link_utilization.values().all(|&u| u < 1.0));
    }

    #[test]
    fn marked_traffic_is_dropped_first_on_shared_links() {
        let mut net = build(8.0); // heavy load
        net.set_marking(NpgId(0), 0.5);
        let mut last = None;
        for k in 0..10 {
            last = Some(net.step(k as f64 * 30.0));
        }
        let tick = last.unwrap();
        // Aggregate non-conforming loss ≥ conforming loss for NPG 0.
        let flows = tick.flows.clone();
        let (mut cs, mut cd, mut ns, mut nd) = (0.0, 0.0, 0.0, 0.0);
        for (f, o) in net.flows().iter().zip(&flows) {
            if f.npg == NpgId(0) {
                cs += o.conf_sent.as_bps();
                cd += o.conf_delivered.as_bps();
                ns += o.nonconf_sent.as_bps();
                nd += o.nonconf_delivered.as_bps();
            }
        }
        let conf_loss = 1.0 - cd / cs.max(1.0);
        let nonconf_loss = 1.0 - nd / ns.max(1.0);
        assert!(
            nonconf_loss >= conf_loss - 1e-9,
            "nonconf {nonconf_loss} vs conf {conf_loss}"
        );
    }

    #[test]
    fn incident_multiplier_reduces_victim_goodput_without_enforcement() {
        // Sized so the shared path is comfortable at baseline and
        // congested once NPG 0 spikes +50%.
        let mut net = build(3.0);
        let mut base_goodput = 0.0;
        for k in 0..10 {
            let t = net.step(k as f64 * 30.0);
            base_goodput = victim_goodput(&net, &t);
        }
        net.set_multiplier(NpgId(0), |_| 1.5);
        let mut spike_goodput = 1.0;
        for k in 10..25 {
            let t = net.step(k as f64 * 30.0);
            spike_goodput = victim_goodput(&net, &t);
        }
        assert!(
            spike_goodput < base_goodput - 0.03,
            "victim goodput falls under the neighbor's spike: {base_goodput} -> {spike_goodput}"
        );
    }

    #[test]
    fn enforcement_protects_victims_network_wide() {
        // Same spike, but NPG 0's over-entitlement share is remarked.
        let run = |mark: f64| {
            let mut net = build(3.0);
            net.set_multiplier(NpgId(0), |t| if t >= 300.0 { 1.5 } else { 1.0 });
            net.set_marking(NpgId(0), mark);
            let mut victim = 1.0f64;
            for k in 0..30 {
                let t = net.step(k as f64 * 30.0);
                if k > 15 {
                    victim = victim.min(victim_goodput(&net, &t));
                }
            }
            victim
        };
        let unprotected = run(0.0);
        let protected = run(1.0 / 3.0);
        assert!(
            protected > unprotected + 0.02,
            "marking shields the victim: {protected} vs {unprotected}"
        );
    }

    #[test]
    fn disconnected_flow_is_rejected_at_build() {
        let mut topo = Topology::new();
        let a = topo.add_region("a", true, 1.0);
        let b = topo.add_region("b", true, 1.0);
        // No links at all.
        let res = NetWorld::new(
            topo,
            vec![ServiceFlow {
                npg: NpgId(0),
                qos: QosClass::C1,
                src: a,
                dst: b,
                base_rate: Rate::gbps(1.0),
                pattern: TrafficPattern::Flat,
            }],
        );
        assert!(res.is_err());
    }
}
