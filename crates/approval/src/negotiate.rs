//! Automated bandwidth negotiation (paper §8, "Bandwidth Negotiation").
//!
//! "When the contract approval engine rejects a service's request, it is
//! currently handled manually... One straightforward way is to return
//! back to service and reduce the requested demand to try again.
//! Alternatively, the approval engine could come up with a
//! counter-proposal of admittable traffic... As a part of our ongoing
//! work, we are developing an automated negotiation platform."
//!
//! This module implements that platform's core loop:
//!
//! 1. the engine computes a **counter-proposal**: the SLO-feasible
//!    volume for the request as-is, plus *alternative demand patterns* —
//!    shifting the shortfall toward destination segments with headroom
//!    ("we work with services to explore alternative demand patterns
//!    (e.g. using different regions)");
//! 2. a [`ServicePolicy`] (the service team's automated stand-in)
//!    decides per round: accept the counter, retry an alternative, or
//!    accept the risk of going over the approval;
//! 3. rounds repeat until agreement or the round budget runs out.

use crate::engine::{approve_requests_in, band_low_requests, ApprovalConfig, RoundRoutes};
use crate::types::HoseApproval;
use entitlement_core::{Rate, SloTarget};
use entitlement_hose::HoseRequest;
use entitlement_obs::Obs;
use entitlement_topology::{ScenarioSet, Topology};
use serde::{Deserialize, Serialize};

/// The outcome of a negotiation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Agreement {
    /// The service accepted a (possibly reshaped) request that the
    /// network fully approved.
    Accepted {
        /// The final request.
        request: HoseRequest,
        /// The granted volume (== the request total).
        granted: Rate,
        /// Rounds it took.
        rounds: usize,
    },
    /// The service chose to keep its demand and accept that only
    /// `guaranteed` is covered by the SLO ("service owners accept the
    /// risk of going over their approvals").
    RiskAccepted {
        /// The original request.
        request: HoseRequest,
        /// The guaranteed portion.
        guaranteed: Rate,
        /// Rounds elapsed before the service settled.
        rounds: usize,
    },
    /// No agreement within the round budget.
    Exhausted {
        /// Best counter-proposal seen.
        best_counter: Rate,
    },
}

/// What the service decides each round, given the counter-proposal.
pub trait ServicePolicy {
    /// Decide on a counter-proposal of `granted` for `request`.
    fn decide(&mut self, request: &HoseRequest, granted: Rate, round: usize) -> ServiceDecision;
}

/// A service's response in one negotiation round.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceDecision {
    /// Take the counter-proposal: shrink the request to the grant.
    AcceptCounter,
    /// Keep the demand, accept the risk above the guarantee.
    AcceptRisk,
    /// Try an alternative pattern proposed by the engine.
    TryAlternative,
}

/// A simple threshold policy: accept the counter when it covers at least
/// `accept_fraction` of the demand; otherwise explore alternatives for a
/// few rounds, then accept the risk.
#[derive(Clone, Debug)]
pub struct ThresholdPolicy {
    /// Accept when granted/requested ≥ this.
    pub accept_fraction: f64,
    /// Rounds of exploration before giving up and accepting risk.
    pub patience: usize,
}

impl ServicePolicy for ThresholdPolicy {
    fn decide(&mut self, request: &HoseRequest, granted: Rate, round: usize) -> ServiceDecision {
        if granted.as_bps() >= request.total.as_bps() * self.accept_fraction {
            ServiceDecision::AcceptCounter
        } else if round < self.patience {
            ServiceDecision::TryAlternative
        } else {
            ServiceDecision::AcceptRisk
        }
    }
}

/// Reshape a request toward segments likelier to place: the engine's
/// "alternative demand pattern" proposal. Heuristic: the *largest*
/// segment is the hardest to place (it needs the most capacity toward
/// its regions), so `shift_fraction · (1 − approval_fraction)` of its
/// cap moves onto the smallest segment. When every cap is equal the
/// first segment is treated as hardest and the last as easiest, so a
/// genuine alternative is still proposed rather than echoing the
/// request back unchanged. Total demand is preserved.
pub fn propose_alternative(request: &HoseRequest, approval: &HoseApproval, shift_fraction: f64) -> HoseRequest {
    if request.segments.len() < 2 {
        return request.clone();
    }
    let mut alt = request.clone();
    let frac = approval.approval_fraction();
    let (mut hardest, mut easiest) = (0usize, 0usize);
    for (i, seg) in alt.segments.iter().enumerate() {
        if seg.cap.as_bps() > alt.segments[hardest].cap.as_bps() {
            hardest = i;
        }
        if seg.cap.as_bps() < alt.segments[easiest].cap.as_bps() {
            easiest = i;
        }
    }
    if hardest == easiest {
        // Strict comparisons left both at 0: every cap is equal. Shift
        // between the endpoints instead of bailing out.
        easiest = alt.segments.len() - 1;
    }
    let shift = alt.segments[hardest].cap * shift_fraction * (1.0 - frac);
    let h = &mut alt.segments[hardest];
    h.cap = (h.cap - shift).clamp_zero();
    alt.segments[easiest].cap += shift;
    alt
}

/// Shrink (or generally re-target) a request to `new_total`, scaling the
/// segment caps proportionally; the last segment absorbs the remainder
/// so the caps sum to the new total exactly. Shared by `negotiate`'s
/// counter-acceptance and [`shrink_to_fit`].
pub fn rescale_segments(request: &mut HoseRequest, new_total: Rate) {
    let scale = new_total / request.total;
    request.total = new_total;
    let seg_count = request.segments.len();
    let mut acc = Rate::ZERO;
    for (i, seg) in request.segments.iter_mut().enumerate() {
        if i + 1 == seg_count {
            seg.cap = (request.total - acc).clamp_zero();
        } else {
            seg.cap = seg.cap * scale;
            acc += seg.cap;
        }
    }
}

/// Run the negotiation loop for one request.
pub fn negotiate(
    topo: &Topology,
    request: &HoseRequest,
    slo: SloTarget,
    policy: &mut dyn ServicePolicy,
    config: &ApprovalConfig,
    max_rounds: usize,
) -> Agreement {
    // One scenario enumeration for the whole negotiation: every round
    // approves against the same warm set (bit-identical to enumerating
    // per round, since enumeration is deterministic).
    let scenarios = ScenarioSet::enumerate(topo, config.max_cuts);
    negotiate_scenarios(topo, request, slo, policy, config, max_rounds, &scenarios)
}

/// [`negotiate`] against a caller-supplied scenario set. Serving-side
/// callers (the entitlement market) enumerate once at startup and reuse
/// the warm set across many negotiations; because enumeration is
/// deterministic, the warm path returns a bit-identical [`Agreement`].
pub fn negotiate_scenarios(
    topo: &Topology,
    request: &HoseRequest,
    slo: SloTarget,
    policy: &mut dyn ServicePolicy,
    config: &ApprovalConfig,
    max_rounds: usize,
    scenarios: &ScenarioSet,
) -> Agreement {
    // One route plan for the whole negotiation: every round re-asks
    // the same region pairs under the same failure sets.
    let mut routes = RoundRoutes::new(topo, scenarios, config);
    let mut current = request.clone();
    let mut best_counter = Rate::ZERO;
    for round in 0..max_rounds {
        let approvals = approve_round(&mut routes, &current, slo, config);
        let approval = &approvals[0];
        let granted = approval.approved_total;
        best_counter = best_counter.max(granted);

        if approval.fully_approved() {
            return Agreement::Accepted {
                request: current,
                granted,
                rounds: round + 1,
            };
        }
        match policy.decide(&current, granted, round) {
            ServiceDecision::AcceptCounter => {
                // Shrink the request to the counter-proposal, scaling
                // segment caps proportionally.
                let mut shrunk = current.clone();
                rescale_segments(&mut shrunk, granted);
                return Agreement::Accepted {
                    request: shrunk,
                    granted,
                    rounds: round + 1,
                };
            }
            ServiceDecision::AcceptRisk => {
                return Agreement::RiskAccepted {
                    request: current,
                    guaranteed: granted,
                    rounds: round + 1,
                };
            }
            ServiceDecision::TryAlternative => {
                current = propose_alternative(&current, approval, 0.5);
            }
        }
    }
    Agreement::Exhausted { best_counter }
}

/// One negotiation round: `hose_approval_scenarios` for the current
/// ask, over the negotiation's shared routes.
fn approve_round(
    routes: &mut RoundRoutes<'_>,
    current: &HoseRequest,
    slo: SloTarget,
    config: &ApprovalConfig,
) -> Vec<HoseApproval> {
    let requests = band_low_requests(std::slice::from_ref(current), &[slo]);
    approve_requests_in(routes, &requests, config, &Obs::disabled())
}

/// Convenience: the paper's "straightforward way" — shrink-and-retry
/// until fully approved, halving the gap each round.
pub fn shrink_to_fit(
    topo: &Topology,
    request: &HoseRequest,
    slo: SloTarget,
    config: &ApprovalConfig,
    max_rounds: usize,
) -> Option<(HoseRequest, usize)> {
    let scenarios = ScenarioSet::enumerate(topo, config.max_cuts);
    let mut routes = RoundRoutes::new(topo, &scenarios, config);
    let mut current = request.clone();
    for round in 0..max_rounds {
        let approvals = approve_round(&mut routes, &current, slo, config);
        if approvals[0].fully_approved() {
            return Some((current, round + 1));
        }
        let granted = approvals[0].approved_total;
        // Retry at exactly the counter-proposal; if that still falls a
        // little short (grants are not monotone in the ask), the next
        // round shrinks geometrically to the new counter.
        let target = granted;
        if target.is_zero() {
            break;
        }
        rescale_segments(&mut current, target);
        // Give up once the ask is negligible.
        if current.total.as_bps() < request.total.as_bps() * 0.01 {
            break;
        }
    }
    None
}

/// Re-validate helper for tests: the segments of a negotiated request
/// still sum to its total.
pub fn segments_consistent(request: &HoseRequest) -> bool {
    let sum: Rate = request.segments.iter().map(|s| s.cap).sum();
    (sum.as_bps() - request.total.as_bps()).abs() <= 1e-6 * request.total.as_bps().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{hose_approval, ApprovalMode};
    use entitlement_core::{Direction, NpgId, QosClass, RegionId};
    use entitlement_hose::HoseSegment;
    use entitlement_topology::BackboneSpec;

    fn setup() -> (Topology, HoseRequest) {
        let topo = BackboneSpec::small(0x1360).build();
        let dcs = topo.dc_ids();
        let hose = HoseRequest::general(
            NpgId(1),
            QosClass::C2,
            dcs[0],
            Direction::Egress,
            Rate::tbps(30.0), // far beyond capacity: forces negotiation
            dcs[1..].iter().copied(),
        );
        (topo, hose)
    }

    fn config() -> ApprovalConfig {
        ApprovalConfig {
            tms_per_hose: 4,
            max_cuts: 1,
            mode: ApprovalMode::Partial,
            ..Default::default()
        }
    }

    #[test]
    fn modest_request_accepted_in_one_round() {
        let (topo, mut hose) = setup();
        hose.total = Rate::gbps(20.0);
        hose.segments[0].cap = hose.total;
        let mut policy = ThresholdPolicy {
            accept_fraction: 0.9,
            patience: 3,
        };
        let slo = SloTarget::new(0.99).unwrap();
        match negotiate(&topo, &hose, slo, &mut policy, &config(), 5) {
            Agreement::Accepted { rounds, granted, .. } => {
                assert_eq!(rounds, 1);
                assert!((granted.as_bps() - hose.total.as_bps()).abs() < 1.0);
            }
            other => panic!("expected acceptance, got {other:?}"),
        }
    }

    #[test]
    fn oversized_request_gets_risk_or_counter() {
        let (topo, hose) = setup();
        let mut policy = ThresholdPolicy {
            accept_fraction: 0.95, // will not be met for a 30T ask
            patience: 2,
        };
        let slo = SloTarget::new(0.99).unwrap();
        match negotiate(&topo, &hose, slo, &mut policy, &config(), 6) {
            Agreement::RiskAccepted {
                guaranteed, rounds, ..
            } => {
                assert!(guaranteed.as_bps() > 0.0, "some volume is guaranteed");
                assert!(guaranteed.as_bps() < hose.total.as_bps());
                assert!(rounds >= 3, "explored alternatives first");
            }
            other => panic!("expected risk acceptance, got {other:?}"),
        }
    }

    #[test]
    fn accommodating_service_accepts_counter() {
        let (topo, hose) = setup();
        let mut policy = ThresholdPolicy {
            accept_fraction: 0.0, // accepts any counter immediately
            patience: 0,
        };
        let slo = SloTarget::new(0.99).unwrap();
        match negotiate(&topo, &hose, slo, &mut policy, &config(), 3) {
            Agreement::Accepted { request, granted, .. } => {
                assert!((request.total.as_bps() - granted.as_bps()).abs() < 1.0);
                assert!(segments_consistent(&request));
            }
            other => panic!("expected counter acceptance, got {other:?}"),
        }
    }

    #[test]
    fn shrink_to_fit_converges() {
        let (topo, hose) = setup();
        let slo = SloTarget::new(0.99).unwrap();
        let (fitted, rounds) =
            shrink_to_fit(&topo, &hose, slo, &config(), 20).expect("should converge");
        assert!(rounds > 1, "a 30T ask needs shrinking");
        assert!(fitted.total.as_bps() < hose.total.as_bps());
        assert!(fitted.total.as_bps() > 0.0);
        assert!(segments_consistent(&fitted));
        // The fitted request really is fully approvable.
        let approvals = hose_approval(&topo, &[fitted], &[slo], &config());
        assert!(approvals[0].fully_approved());
    }

    #[test]
    fn alternative_preserves_total_demand() {
        let (topo, _) = setup();
        let dcs = topo.dc_ids();
        let hose = HoseRequest {
            npg: NpgId(1),
            qos: QosClass::C2,
            region: dcs[0],
            direction: Direction::Egress,
            total: Rate::gbps(500.0),
            segments: vec![
                HoseSegment {
                    regions: [dcs[1], dcs[2]].into_iter().collect(),
                    cap: Rate::gbps(400.0),
                },
                HoseSegment {
                    regions: [dcs[3]].into_iter().collect::<std::collections::BTreeSet<RegionId>>(),
                    cap: Rate::gbps(100.0),
                },
            ],
        };
        let slo = SloTarget::new(0.99).unwrap();
        let approvals = hose_approval(&topo, std::slice::from_ref(&hose), &[slo], &config());
        let alt = propose_alternative(&hose, &approvals[0], 0.5);
        assert!(segments_consistent(&alt));
        assert!((alt.total.as_bps() - hose.total.as_bps()).abs() < 1.0);
        // Unless fully approved, some cap moved from the big segment.
        if !approvals[0].fully_approved() {
            assert!(alt.segments[0].cap.as_bps() < hose.segments[0].cap.as_bps());
        }
    }
}
