//! What to remark (paper §5.3).
//!
//! Remarking must be per-flow (never split one flow across DSCPs — that
//! reorders packets). Two strategies over 100 stable groups (Fig 10):
//!
//! * **flow-based** — every host remarks the flows whose group id falls
//!   below the cut; fine-grained, but failures manifest as random
//!   individual flow failures that applications don't handle well;
//! * **host-based** (production default) — whole hosts are remarked;
//!   applications treat a remarked host like a failed host and
//!   rebalance, and service teams can see exactly which hosts are
//!   affected.

use entitlement_core::HostId;
use entitlement_simnet::MarkingCommand;
use serde::{Deserialize, Serialize};

/// Which granularity to remark at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MarkingStrategy {
    /// Remark a fraction of flow groups on every host.
    FlowBased,
    /// Remark all traffic of a fraction of hosts.
    HostBased,
}

/// Number of marking groups (paper: identifiers 0..99).
pub const GROUPS: u32 = 100;

/// Turns a conform ratio into a marking command for a fleet.
#[derive(Clone, Debug)]
pub struct Marker {
    /// Strategy in use.
    pub strategy: MarkingStrategy,
}

impl Marker {
    /// New marker.
    pub fn new(strategy: MarkingStrategy) -> Self {
        Marker { strategy }
    }

    /// Number of groups to remark for a conform ratio: group ids
    /// `0..k` become non-conforming, where `k = round((1-CR)×100)`
    /// (Fig 10's example: NonConformRatio 0.02 remarks groups 0–1).
    pub fn marked_group_count(conform_ratio: f64) -> u32 {
        let ncr = (1.0 - conform_ratio).clamp(0.0, 1.0);
        (ncr * GROUPS as f64).round() as u32
    }

    /// Build the fleet-wide command for `hosts` hosts.
    pub fn command(&self, conform_ratio: f64, hosts: usize) -> MarkingCommand {
        let k = Self::marked_group_count(conform_ratio);
        if k == 0 {
            return MarkingCommand::None;
        }
        match self.strategy {
            MarkingStrategy::FlowBased => MarkingCommand::FlowBased {
                marked_groups: (0..GROUPS).map(|g| g < k).collect(),
            },
            MarkingStrategy::HostBased => MarkingCommand::HostBased {
                marked: (0..hosts as u32)
                    .map(|h| HostId(h).group(GROUPS) < k)
                    .collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metering::{Meter, StatelessMeter};
    use entitlement_core::Rate;

    #[test]
    fn group_count_matches_fig10() {
        // NonConformRatio 0.02 → 2 groups marked.
        assert_eq!(Marker::marked_group_count(0.98), 2);
        assert_eq!(Marker::marked_group_count(1.0), 0);
        assert_eq!(Marker::marked_group_count(0.0), 100);
        assert_eq!(Marker::marked_group_count(0.5), 50);
    }

    #[test]
    fn flow_based_marks_exact_fraction() {
        let m = Marker::new(MarkingStrategy::FlowBased);
        let cmd = m.command(0.9, 1000);
        match &cmd {
            MarkingCommand::FlowBased { marked_groups } => {
                assert_eq!(marked_groups.iter().filter(|&&x| x).count(), 10);
            }
            _ => panic!("wrong variant"),
        }
        assert!((cmd.marked_fraction(1000) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn host_based_marks_about_the_fraction() {
        let m = Marker::new(MarkingStrategy::HostBased);
        let cmd = m.command(0.7, 10_000);
        match &cmd {
            MarkingCommand::HostBased { marked } => {
                let frac = marked.iter().filter(|&&x| x).count() as f64 / 10_000.0;
                // Hash-group assignment: close to 30%, not exact.
                assert!((frac - 0.3).abs() < 0.03, "marked {frac}");
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn marking_is_stable_across_cycles() {
        // The same conform ratio must mark the same hosts — flapping
        // host membership would defeat application failover.
        let m = Marker::new(MarkingStrategy::HostBased);
        assert_eq!(m.command(0.8, 500), m.command(0.8, 500));
    }

    #[test]
    fn marking_grows_monotonically_with_throttle() {
        // Lowering the conform ratio only adds hosts, never swaps them.
        let m = Marker::new(MarkingStrategy::HostBased);
        let c1 = m.command(0.9, 1000);
        let c2 = m.command(0.7, 1000);
        if let (MarkingCommand::HostBased { marked: m1 }, MarkingCommand::HostBased { marked: m2 }) =
            (&c1, &c2)
        {
            for i in 0..1000 {
                if m1[i] {
                    assert!(m2[i], "host {i} unmarked by a deeper throttle");
                }
            }
        } else {
            panic!("wrong variants");
        }
    }

    #[test]
    fn fully_conforming_marks_nothing() {
        let m = Marker::new(MarkingStrategy::HostBased);
        assert_eq!(m.command(1.0, 100), MarkingCommand::None);
    }

    #[test]
    fn flow_based_command_follows_the_meter() {
        let m = Marker::new(MarkingStrategy::FlowBased);
        let mut meter = StatelessMeter::new();
        let cr = meter.update(Rate::tbps(6.0), Rate::tbps(6.0), Rate::tbps(5.0));
        let cmd = m.command(cr, 100);
        // NonConformRatio 1/6 ≈ 0.1667 → 17 groups.
        assert!((cmd.marked_fraction(100) - 0.17).abs() < 1e-9);
    }
}
