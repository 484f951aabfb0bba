//! The per-host enforcement agent (user-space side, Fig 9).
//!
//! Each cycle the agent: (1) refreshes the entitled rate from the
//! contract database (cached — the DB is off the decision path);
//! (2) publishes this host's measured egress rate into the KV store;
//! (3) reads back the service-wide TotalRate and ConformRate aggregates;
//! (4) runs the metering algorithm; and (5) programs the kernel marking
//! table. Every agent sees the same aggregates and computes the same
//! deterministic decision — that is what makes the architecture work
//! without a controller.
//!
//! **Fail-static (§5.3):** shared aggregates are also a shared failure
//! domain. When the KV store is unreachable the agent must *hold its
//! last decision* — treating an outage as "aggregate = 0.0" would read
//! as an idle service and unthrottle the entire fleet past its
//! entitlement. [`Agent::cycle_observed`] encodes that: `Ok` runs a
//! normal metering cycle, `Err` freezes the meter and the marking
//! table and counts a fail-static cycle; [`Agent::staleness_ms`] says
//! how old the data behind the standing decision has become.
//!
//! The agent's KV outcomes are counted by the `ObservedKv` decorator it
//! publishes through; the drill reads the two numbers it reports,
//! [`Agent::fail_static_cycles`] and [`Agent::staleness_ms`], off the
//! agent.

use crate::bpf::MarkingTable;
use crate::db::ContractDb;
use crate::marking::{Marker, MarkingStrategy};
use crate::metering::{Meter, StatefulMeter};
use entitlement_core::{Direction, HostId, NpgId, QosClass, Rate, RegionId};
use entitlement_kvstore::{KvAccess, KvError};

/// Static agent configuration.
#[derive(Clone, Debug)]
pub struct AgentConfig {
    /// This host.
    pub host: HostId,
    /// Service the agent enforces for.
    pub npg: NpgId,
    /// QoS class (one agent instance per enforced class).
    pub qos: QosClass,
    /// The host's region.
    pub region: RegionId,
    /// Marking granularity.
    pub strategy: MarkingStrategy,
}

/// One host's agent: meter + marker + kernel table + cached contract.
pub struct Agent {
    /// Configuration.
    pub config: AgentConfig,
    meter: StatefulMeter,
    marker: Marker,
    /// The simulated BPF map the agent programs.
    pub table: MarkingTable,
    cached_entitled: Option<Rate>,
    /// Logical timestamp of the last successful aggregate read; the
    /// basis of [`Agent::staleness_ms`] while fail-static.
    last_aggregates_ms: Option<u64>,
    /// Cycles that held the last decision on unavailable aggregates.
    fail_static_cycles: u64,
}

impl Agent {
    /// New agent with the production-default stateful meter.
    pub fn new(config: AgentConfig) -> Self {
        let marker = Marker::new(config.strategy);
        Agent {
            config,
            meter: StatefulMeter::new(),
            marker,
            table: MarkingTable::new(),
            cached_entitled: None,
            last_aggregates_ms: None,
            fail_static_cycles: 0,
        }
    }

    /// Refresh the cached entitled rate from the contract database.
    /// Returns the (possibly stale) rate in effect afterwards: a failed
    /// lookup keeps the cached value (fail-static on the contract
    /// path), and with no cache the agent enforces nothing.
    pub fn refresh_contract(&mut self, db: &ContractDb, day: u32) -> Option<Rate> {
        if let Some(r) = db.entitled_rate(
            self.config.npg,
            self.config.qos,
            self.config.region,
            Direction::Egress,
            day,
        ) {
            self.cached_entitled = Some(r);
        }
        self.cached_entitled
    }

    /// The entitled rate the agent currently enforces (None = no
    /// contract known yet, nothing is remarked).
    pub fn entitled(&self) -> Option<Rate> {
        self.cached_entitled
    }

    /// The meter's current conform ratio — the standing decision the
    /// agent holds while fail-static.
    pub fn meter_conform_ratio(&self) -> f64 {
        self.meter.conform_ratio()
    }

    /// The key prefix this agent's service publishes rates under.
    pub fn key_base(&self) -> String {
        format!("rates/{}/{}", self.config.npg.0, self.config.qos)
    }

    /// Publish this host's measured rates into the KV store (step 2).
    /// Works against any [`KvAccess`] layer — the real store or a
    /// fault-injecting wrapper. A failed publish is not fatal: the TTL
    /// ages this host out of the aggregates, exactly as a dead host
    /// would.
    pub fn publish<K: KvAccess + ?Sized>(
        &self,
        kv: &K,
        sent: Rate,
        conforming: Rate,
        now_ms: u64,
    ) -> Result<(), KvError> {
        let h = self.config.host.0;
        let base = self.key_base();
        kv.try_put(&format!("{base}/total/h{h}"), sent.as_bps(), now_ms)
            .and_then(|()| {
                kv.try_put(&format!("{base}/conform/h{h}"), conforming.as_bps(), now_ms)
            })
    }

    /// Read the service-wide aggregates back (step 3). `Err` means the
    /// store was unreachable — callers must go fail-static
    /// ([`Agent::cycle_observed`]), never substitute zero.
    pub fn read_aggregates<K: KvAccess + ?Sized>(
        &self,
        kv: &K,
        now_ms: u64,
    ) -> Result<(Rate, Rate), KvError> {
        let base = self.key_base();
        kv.try_aggregate(&format!("{base}/total/"), now_ms).and_then(|total| {
            kv.try_aggregate(&format!("{base}/conform/"), now_ms)
                .map(|conform| (Rate::bps(total), Rate::bps(conform)))
        })
    }

    /// Run one metering cycle (steps 4–5): update the meter, program the
    /// kernel table, and return the new conform ratio.
    pub fn cycle(&mut self, total: Rate, conform: Rate) -> f64 {
        let Some(entitled) = self.cached_entitled else {
            return 1.0; // no contract — nothing to enforce
        };
        let cr = self.meter.update(total, conform, entitled);
        let cut = Marker::marked_group_count(cr) as u8;
        match self.config.strategy {
            MarkingStrategy::FlowBased => {
                self.table.set_flow_cut(self.config.npg, self.config.qos, cut);
            }
            MarkingStrategy::HostBased => {
                self.table.set_host_cut(self.config.npg, self.config.qos, cut);
            }
        }
        cr
    }

    /// Run one cycle on a possibly-failed aggregate observation
    /// (steps 3–5 with the failure path).
    ///
    /// * `Ok((total, conform))` — a normal metering cycle; the
    ///   staleness clock resets.
    /// * `Err(_)` — **fail-static**: the meter and marking table are
    ///   left exactly as they are (the last decision keeps being
    ///   enforced, however long the outage: with no data, unthrottling
    ///   is the one move that is never safe) and
    ///   [`Agent::fail_static_cycles`] counts the cycle. The staleness
    ///   clock keeps running; the watchdog's W0105 pages on it.
    ///
    /// Returns the conform ratio in force afterwards.
    pub fn cycle_observed(
        &mut self,
        obs: Result<(Rate, Rate), KvError>,
        now_ms: u64,
    ) -> f64 {
        match obs {
            Ok((total, conform)) => {
                self.last_aggregates_ms = Some(now_ms);
                self.cycle(total, conform)
            }
            Err(_) => {
                self.fail_static_cycles += 1;
                self.meter.conform_ratio()
            }
        }
    }

    /// Milliseconds since the last successful aggregate read (`now_ms`
    /// itself if none ever succeeded).
    pub fn staleness_ms(&self, now_ms: u64) -> u64 {
        match self.last_aggregates_ms {
            Some(t) => now_ms.saturating_sub(t),
            None => now_ms,
        }
    }

    /// Cycles that held the last decision because the aggregates were
    /// unavailable (fail-static).
    pub fn fail_static_cycles(&self) -> u64 {
        self.fail_static_cycles
    }

    /// The fleet-wide marking command this agent's decision implies
    /// (identical on every host — used by the simulation harness).
    pub fn marking_command(&self, hosts: usize) -> entitlement_simnet::MarkingCommand {
        self.marker.command(self.meter.conform_ratio(), hosts)
    }

    /// Whether this agent's own host is remarked under its current
    /// decision (host-based strategy).
    pub fn self_marked(&self) -> bool {
        let cut = Marker::marked_group_count(self.meter.conform_ratio());
        self.config.host.group(crate::marking::GROUPS) < cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_core::{Entitlement, Period, SloTarget};
    use entitlement_kvstore::{ShardedStore, StoreConfig};

    fn db_with_contract(rate_g: f64) -> ContractDb {
        let db = ContractDb::new();
        db.insert(
            NpgId(1),
            SloTarget::new(0.999).unwrap(),
            vec![Entitlement {
                npg: NpgId(1),
                qos: QosClass::C2,
                region: RegionId(0),
                direction: Direction::Egress,
                entitled_rate: Rate::gbps(rate_g),
                period: Period::new(0, 90),
            }],
        )
        .unwrap();
        db
    }

    fn agent(host: u32) -> Agent {
        Agent::new(AgentConfig {
            host: HostId(host),
            npg: NpgId(1),
            qos: QosClass::C2,
            region: RegionId(0),
            strategy: MarkingStrategy::HostBased,
        })
    }

    #[test]
    fn contract_refresh_and_cache() {
        let db = db_with_contract(100.0);
        let mut a = agent(0);
        assert_eq!(a.entitled(), None);
        let r = a.refresh_contract(&db, 5).unwrap();
        assert!((r.as_gbps() - 100.0).abs() < 1e-9);
        // Out-of-period query keeps the cached value (DB unreachable /
        // contract expired mid-cycle: keep enforcing the last known one).
        let r2 = a.refresh_contract(&db, 200).unwrap();
        assert!((r2.as_gbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn no_contract_means_no_enforcement() {
        let mut a = agent(0);
        let cr = a.cycle(Rate::gbps(500.0), Rate::gbps(500.0));
        assert_eq!(cr, 1.0);
        assert_eq!(a.marking_command(100), entitlement_simnet::MarkingCommand::None);
    }

    #[test]
    fn publish_and_aggregate_roundtrip() {
        let store = ShardedStore::new(StoreConfig::default());
        let db = db_with_contract(100.0);
        let mut agents: Vec<Agent> = (0..50).map(agent).collect();
        for a in &mut agents {
            a.refresh_contract(&db, 0);
            a.publish(&store, Rate::gbps(2.0), Rate::gbps(2.0), 0).unwrap();
        }
        let (total, conform) = agents[0].read_aggregates(&store, 10).unwrap();
        assert!((total.as_gbps() - 100.0).abs() < 1e-6);
        assert!((conform.as_gbps() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn all_agents_reach_the_same_decision() {
        let db = db_with_contract(50.0);
        let mut a1 = agent(1);
        let mut a2 = agent(999);
        a1.refresh_contract(&db, 0);
        a2.refresh_contract(&db, 0);
        let cr1 = a1.cycle(Rate::gbps(100.0), Rate::gbps(100.0));
        let cr2 = a2.cycle(Rate::gbps(100.0), Rate::gbps(100.0));
        assert_eq!(cr1, cr2, "identical inputs, identical decisions");
        assert_eq!(a1.marking_command(1000), a2.marking_command(1000));
    }

    #[test]
    fn cycle_programs_kernel_table() {
        let db = db_with_contract(50.0);
        let mut a = agent(0);
        a.refresh_contract(&db, 0);
        a.cycle(Rate::gbps(100.0), Rate::gbps(100.0)); // CR 0.5
        // The table now remarks host groups below 50.
        let (action, _) = a.table.classify(crate::bpf::ClassifyInput {
            npg: NpgId(1),
            qos: QosClass::C2,
            flow_group: 99,
            host_group: 10,
        });
        assert_eq!(action, crate::bpf::MarkAction::Remark);
    }

    #[test]
    fn unavailable_aggregates_hold_the_standing_decision() {
        let db = db_with_contract(50.0);
        let mut a = agent(0);
        a.refresh_contract(&db, 0);
        // Healthy cycle throttles to CR 0.5.
        let cr = a.cycle_observed(Ok((Rate::gbps(100.0), Rate::gbps(100.0))), 1_000);
        assert!((cr - 0.5).abs() < 1e-9);
        let probe = crate::bpf::ClassifyInput {
            npg: NpgId(1),
            qos: QosClass::C2,
            flow_group: 99,
            host_group: 10,
        };
        assert_eq!(a.table.classify(probe).0, crate::bpf::MarkAction::Remark);
        // KV outage: the decision and the kernel table are frozen — a
        // missing aggregate must never read as "no traffic".
        let held = a.cycle_observed(Err(KvError::ShardUnavailable), 31_000);
        assert!((held - 0.5).abs() < 1e-9, "held, not recomputed");
        assert_eq!(
            a.table.classify(probe).0,
            crate::bpf::MarkAction::Remark,
            "table still throttles during the outage"
        );
        assert_eq!(a.fail_static_cycles(), 1);
        assert_eq!(a.staleness_ms(31_000), 30_000);
        // Recovery: a fresh aggregate resumes normal metering.
        let cr = a.cycle_observed(Ok((Rate::gbps(100.0), Rate::gbps(50.0))), 61_000);
        assert!((cr - 0.5).abs() < 1e-9);
        assert_eq!(a.staleness_ms(61_000), 0);
    }

    #[test]
    fn a_nan_aggregate_holds_the_decision_instead_of_recovering() {
        let db = db_with_contract(50.0);
        let mut a = agent(0);
        a.refresh_contract(&db, 0);
        let cr = a.cycle_observed(Ok((Rate::gbps(200.0), Rate::gbps(200.0))), 1_000);
        assert!((cr - 0.25).abs() < 1e-9);
        // One host published NaN: the store's sums are NaN, the read
        // itself succeeds. Still over-entitled, so nothing may relax.
        for cycle in 2..6 {
            let held =
                a.cycle_observed(Ok((Rate::gbps(200.0), Rate::bps(f64::NAN))), cycle * 1_000);
            assert_eq!(held, cr, "cycle {cycle} held, not doubled");
        }
        let probe = crate::bpf::ClassifyInput {
            npg: NpgId(1),
            qos: QosClass::C2,
            flow_group: 99,
            host_group: 10,
        };
        assert_eq!(a.table.classify(probe).0, crate::bpf::MarkAction::Remark);
    }

    #[test]
    fn failed_lookup_with_no_cache_enforces_nothing() {
        let empty = ContractDb::new();
        let mut a = agent(0);
        assert_eq!(a.refresh_contract(&empty, 0), None);
        assert_eq!(a.cycle(Rate::gbps(500.0), Rate::gbps(500.0)), 1.0);
    }

    #[test]
    fn self_marked_follows_host_group() {
        let db = db_with_contract(50.0);
        // Find one marked and one unmarked host for CR = 0.5 (cut 50).
        let marked_host = (0..1000u32)
            .find(|&h| HostId(h).group(100) < 50)
            .unwrap();
        let unmarked_host = (0..1000u32)
            .find(|&h| HostId(h).group(100) >= 50)
            .unwrap();
        for (h, expect) in [(marked_host, true), (unmarked_host, false)] {
            let mut a = agent(h);
            a.refresh_contract(&db, 0);
            a.cycle(Rate::gbps(100.0), Rate::gbps(100.0));
            assert_eq!(a.self_marked(), expect, "host {h}");
        }
    }
}
