//! The traced approval round `entitlectl drill --trace` (and the
//! telemetry example) run first, so one trace file covers every span
//! family. The `--trace`/`--metrics` contract itself is
//! [`entitlement_obs::TelemetrySpec`].

use entitlement_obs::Obs;

/// A small traced approval round: one hose on the seed backbone through
/// the full `Hose_Approval` pipeline. `entitlectl drill --trace` runs
/// this before the drill so one trace file covers every traced
/// span family — approval phases, the risk sweep, KV operations, and
/// agent cycles — without paying for a full planning run.
pub fn traced_approval_preamble(seed: u64, obs: &Obs) {
    use entitlement_approval::{hose_approval_obs, ApprovalConfig};
    use entitlement_core::{Direction, NpgId, QosClass, Rate, SloTarget};
    use entitlement_hose::HoseRequest;
    use entitlement_topology::BackboneSpec;

    let topo = BackboneSpec::small(seed).build();
    let dcs = topo.dc_ids();
    if dcs.len() < 2 {
        return;
    }
    let hose = HoseRequest::general(
        NpgId(1),
        QosClass::C2,
        dcs[0],
        Direction::Egress,
        Rate::gbps(200.0),
        dcs[1..].iter().copied(),
    );
    let Ok(slo) = SloTarget::new(0.99) else { return };
    let _ = hose_approval_obs(
        &topo,
        &[hose],
        &[slo],
        &ApprovalConfig {
            tms_per_hose: 2,
            max_cuts: 1,
            ..Default::default()
        },
        obs,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_obs::Clock;

    #[test]
    fn preamble_covers_approval_and_risk_spans() {
        let obs = Obs::new(Clock::counting(1));
        traced_approval_preamble(7, &obs);
        let phases: std::collections::BTreeSet<String> =
            obs.trace.events().iter().map(|e| e.phase.clone()).collect();
        for p in ["preflight", "gen_demand", "hose_approval", "pipe_approval", "sweep"] {
            assert!(phases.contains(p), "missing {p}: {phases:?}");
        }
    }

    #[test]
    fn preamble_is_deterministic() {
        let run = || {
            let obs = Obs::new(Clock::counting(1));
            traced_approval_preamble(7, &obs);
            obs.trace.to_jsonl()
        };
        assert_eq!(run(), run());
    }
}
