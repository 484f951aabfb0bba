//! Cross-crate isolation scenarios: the guarantees the entitlement
//! program exists to provide.

use network_entitlement::enforcement::ingress::simulate_ingress_enforcement;
use network_entitlement::kvstore::{ShardedStore, StoreConfig};
use network_entitlement::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// Two services share one bottleneck; one spikes +50%. With enforcement
/// only the offender's over-entitlement traffic suffers; the victim is
/// untouched — the §3.2 accountability demarcation, end to end.
#[test]
fn victim_service_is_isolated_from_a_misbehaving_neighbor() {
    let dt = 30.0;
    let capacity = Rate::tbps(10.0);
    let incident = Incident::video_bug(600.0, 3000.0);

    let mk = |base_t: f64, seed: u64| {
        World::new(
            WorldConfig {
                hosts: 200,
                base_rate: Rate::tbps(base_t),
                dt_secs: dt,
                seed,
            },
            Bottleneck {
                capacity,
                ..Default::default()
            },
        )
    };
    let mut victim = mk(6.4, 1);
    let mut offender = mk(3.0, 2);
    offender.set_demand_multiplier(move |t| incident.factor_at(t));
    let shared = Bottleneck {
        capacity,
        ..Default::default()
    };

    let mut meter = StatefulMeter::new();
    let marker = Marker::new(MarkingStrategy::HostBased);
    let entitled = Rate::tbps(3.0);
    let mut marking = MarkingCommand::None;
    let mut last: Option<network_entitlement::simnet::Observation> = None;
    let mut victim_loss_max = 0.0f64;
    let mut offender_conf_max = 0.0f64;

    for k in 0..150 {
        let t = k as f64 * dt;
        if let Some(obs) = &last {
            let cr = meter.update(obs.total_sent, obs.conf_sent, entitled);
            marking = marker.command(cr, 200);
        }
        let v = victim.step(t, &MarkingCommand::None);
        let o = offender.step(t, &marking);
        let outcome = shared.serve(t, v.total_sent + o.conf_sent, o.nonconf_sent);
        if t > 900.0 && t < 3600.0 {
            victim_loss_max = victim_loss_max.max(outcome.conf_loss);
            offender_conf_max = offender_conf_max.max(o.conf_sent.as_tbps());
        }
        last = Some(o);
    }
    assert!(
        victim_loss_max < 0.005,
        "victim loss {victim_loss_max} during the neighbor's spike"
    );
    assert!(
        offender_conf_max < 3.5,
        "offender's conforming rate {offender_conf_max} held near its 3T entitlement"
    );
}

/// Dead agents fall out of the KV aggregates via TTL, so the surviving
/// fleet's metering decision relaxes instead of over-throttling against
/// phantom rates.
#[test]
fn dead_agent_rates_expire_and_marking_relaxes() {
    let store = ShardedStore::new(StoreConfig {
        shards: 8,
        ttl: Duration::from_secs(30),
    });
    let entitled = Rate::gbps(500.0);
    let mut meter = StatefulMeter::new();

    // 100 agents publish 10G each at t=0: 1000G total vs 500G entitled.
    for h in 0..100 {
        store.put(&format!("rates/s/total/h{h}"), 10e9, 0);
        store.put(&format!("rates/s/conform/h{h}"), 10e9, 0);
    }
    let total = Rate::bps(store.aggregate_sum("rates/s/total/", 1_000));
    let conform = Rate::bps(store.aggregate_sum("rates/s/conform/", 1_000));
    let cr1 = meter.update(total, conform, entitled);
    assert!((cr1 - 0.5).abs() < 1e-9, "throttle to half: {cr1}");

    // Half the fleet dies; survivors keep publishing their conforming
    // share (5G conforming of 10G sent each under cr=0.5).
    for h in 0..50 {
        store.put(&format!("rates/s/total/h{h}"), 10e9, 40_000);
        store.put(&format!("rates/s/conform/h{h}"), 5e9, 40_000);
    }
    // At t=60s the dead agents' entries (written at t=0) are long
    // expired; only survivors count.
    let total2 = Rate::bps(store.aggregate_sum("rates/s/total/", 60_000));
    assert!(
        (total2.as_gbps() - 500.0).abs() < 1.0,
        "phantom rates expired: {total2}"
    );
    let conform2 = Rate::bps(store.aggregate_sum("rates/s/conform/", 60_000));
    let cr2 = meter.update(total2, conform2, entitled);
    assert!(
        cr2 > cr1,
        "with half the fleet gone the survivors can conform more: {cr2} vs {cr1}"
    );
}

/// Ingress enforcement (§8): distributed source meters under a
/// coordinator hold a destination's ingress at its hose, and a demand
/// shift between sources is re-accommodated without touching the total.
#[test]
fn ingress_enforcement_tracks_demand_shift() {
    let entitled = Rate::gbps(100.0);
    let d1: BTreeMap<RegionId, Rate> = [
        (RegionId(1), Rate::gbps(150.0)),
        (RegionId(2), Rate::gbps(30.0)),
    ]
    .into_iter()
    .collect();
    let series = simulate_ingress_enforcement(entitled, &d1, 24, 4);
    let steady = &series[12..];
    for s in steady {
        assert!(
            (s.as_gbps() - 100.0).abs() < 10.0,
            "ingress holds at the hose: {s}"
        );
    }
}

/// QoS classes are enforced independently (§5.3 fn 2): throttling a
/// service's C2 traffic leaves its C1 traffic untouched in the kernel
/// table.
#[test]
fn per_class_independence_in_the_datapath() {
    use network_entitlement::enforcement::bpf::{ClassifyInput, MarkAction};

    let db = ContractDb::new();
    db.insert(
        NpgId(9),
        SloTarget::new(0.999).unwrap(),
        vec![
            Entitlement {
                npg: NpgId(9),
                qos: QosClass::C2,
                region: RegionId(0),
                direction: Direction::Egress,
                entitled_rate: Rate::gbps(100.0),
                period: Period::new(0, 90),
            },
            Entitlement {
                npg: NpgId(9),
                qos: QosClass::C1,
                region: RegionId(0),
                direction: Direction::Egress,
                entitled_rate: Rate::gbps(50.0),
                period: Period::new(0, 90),
            },
        ],
    )
    .unwrap();

    // The C2 agent throttles; the C1 agent sees in-contract traffic.
    let mut c2_agent = Agent::new(AgentConfig {
        host: HostId(0),
        npg: NpgId(9),
        qos: QosClass::C2,
        region: RegionId(0),
        strategy: MarkingStrategy::HostBased,
    });
    c2_agent.refresh_contract(&db, 1);
    c2_agent.cycle(Rate::gbps(400.0), Rate::gbps(400.0));

    let (c2_action, _) = c2_agent.table.classify(ClassifyInput {
        npg: NpgId(9),
        qos: QosClass::C2,
        flow_group: 0,
        host_group: 0,
    });
    let (c1_action, _) = c2_agent.table.classify(ClassifyInput {
        npg: NpgId(9),
        qos: QosClass::C1,
        flow_group: 0,
        host_group: 0,
    });
    assert_eq!(c2_action, MarkAction::Remark, "C2 over entitlement");
    assert_eq!(c1_action, MarkAction::Pass, "C1 untouched");
}
