//! Property tests for the fail-static invariants: the stateful meter's
//! output is always a usable conform ratio, its recovery is eq. 7's
//! outside the band just under the entitlement and continuous at the
//! band's top, and a cycle observing an unavailable store never
//! perturbs the standing decision.

use entitlement_core::{
    Direction, Entitlement, HostId, NpgId, Period, QosClass, Rate, RegionId, SloTarget,
};
use entitlement_enforcement::metering::RECOVERY_BAND;
use entitlement_enforcement::{
    Agent, AgentConfig, ContractDb, MarkingStrategy, Meter, StatefulMeter,
};
use entitlement_kvstore::KvError;
use proptest::prelude::*;

fn agent_with_contract(entitled_g: f64) -> Agent {
    let db = ContractDb::new();
    db.insert(
        NpgId(1),
        SloTarget::new(0.999).unwrap(),
        vec![Entitlement {
            npg: NpgId(1),
            qos: QosClass::C2,
            region: RegionId(0),
            direction: Direction::Egress,
            entitled_rate: Rate::gbps(entitled_g),
            period: Period::new(0, u32::MAX),
        }],
    )
    .unwrap();
    let mut a = Agent::new(AgentConfig {
        host: HostId(0),
        npg: NpgId(1),
        qos: QosClass::C2,
        region: RegionId(0),
        strategy: MarkingStrategy::HostBased,
    });
    a.refresh_contract(&db, 0);
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Equations (6)–(7): whatever rates the meter observes — including
    /// zero conforming traffic, totals far past the entitlement, and
    /// conform > total glitches — its output stays inside the clamp
    /// window `[1e-4, 1.0]`, so the marking layer always receives a
    /// usable ratio.
    #[test]
    fn stateful_meter_output_stays_in_bounds(
        cycles in proptest::collection::vec(
            (0.0f64..5e12, 0.0f64..5e12, 1e6f64..4e12),
            1..40,
        ),
    ) {
        let mut meter = StatefulMeter::new();
        for (total, conform, entitled) in cycles {
            let cr = meter.update(
                Rate::bps(total),
                Rate::bps(conform),
                Rate::bps(entitled),
            );
            prop_assert!((1e-4..=1.0).contains(&cr), "cr out of bounds: {cr}");
            prop_assert!(cr == meter.conform_ratio());
        }
    }

    /// Below `RECOVERY_BAND × entitled` the update is eq. 7's
    /// `min(prev × recovery, 1)` bit for bit; inside the band the ratio
    /// grows by at most entitled/total, which tends to 1 as the total
    /// reaches the entitlement, where eq. 7 holds the ratio (conform =
    /// entitled): no step at the band's top.
    #[test]
    fn recovery_is_eq7_outside_the_band_and_continuous_at_its_top(
        prev in 1e-4f64..1.0,
        entitled in 1e6f64..4e12,
        share in 0.0f64..1.0,
        recovery in 1.0f64..4.0,
    ) {
        let up = |total: f64| StatefulMeter::update_value(prev, total, total, entitled, recovery);
        let eq7 = (prev * recovery).clamp(1e-4, 1.0);
        let below = share * RECOVERY_BAND * entitled;
        if below < RECOVERY_BAND * entitled {
            prop_assert_eq!(up(below).to_bits(), eq7.to_bits(), "total {}", below);
        }

        let total = entitled * (RECOVERY_BAND + share * (1.0 - RECOVERY_BAND));
        if total < entitled {
            let factor = up(total) / prev;
            prop_assert!(up(total) <= eq7, "band step {} past eq. 7's {}", up(total), eq7);
            prop_assert!(factor >= 1.0 - 1e-12, "the band never throttles: {}", factor);
            prop_assert!(factor <= entitled / total * (1.0 + 1e-12), "factor {}", factor);
            let at_top = StatefulMeter::update_value(prev, entitled, entitled, entitled, recovery);
            prop_assert_eq!(at_top.to_bits(), prev.to_bits());
            let gap = (up(total) - at_top).abs();
            prop_assert!(gap <= prev * (entitled / total - 1.0) * (1.0 + 1e-9), "gap {}", gap);
        }
    }

    /// Fail-static: after any healthy history, a cycle observing an
    /// unavailable store leaves the conform ratio, the marking command,
    /// and the kernel table decision untouched — no matter how many
    /// unavailable cycles pile up.
    #[test]
    fn unavailable_aggregates_never_move_the_decision(
        history in proptest::collection::vec((0.0f64..3e12, 0.0f64..3e12), 1..20),
        outage_cycles in 1usize..30,
        entitled_g in 1.0f64..2000.0,
    ) {
        let mut a = agent_with_contract(entitled_g);
        let mut now = 0u64;
        for (total, conform) in history {
            now += 30_000;
            a.cycle_observed(Ok((Rate::bps(total), Rate::bps(conform))), now);
        }
        let held_cr = a.meter_conform_ratio();
        let held_cmd = a.marking_command(1000);
        let probe = entitlement_enforcement::ClassifyInput {
            npg: NpgId(1),
            qos: QosClass::C2,
            flow_group: 17,
            host_group: 3,
        };
        let held_action = a.table.classify(probe).0;
        for _ in 0..outage_cycles {
            now += 30_000;
            let cr = a.cycle_observed(Err(KvError::ShardUnavailable), now);
            prop_assert_eq!(cr, held_cr, "decision held through the outage");
            prop_assert_eq!(a.marking_command(1000), held_cmd);
            prop_assert_eq!(a.table.classify(probe).0, held_action);
        }
        prop_assert_eq!(a.fail_static_cycles(), outage_cycles as u64);
        prop_assert_eq!(a.staleness_ms(now), 30_000 * outage_cycles as u64);
    }
}
