//! Stable diagnostic codes, the one vocabulary the static analyzer
//! (`E0xxx`) and the runtime watchdog (`W01xx`) report in. Codes never
//! change meaning once shipped: a retired rule retires its code rather
//! than recycling it. The catalog is [`Code::CATALOG`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a finding is.
///
/// `Error` findings make an input unusable: the approval pre-flight gate
/// rejects the contract before the risk sweep runs, and `entitlectl
/// lint` exits non-zero. `Warning` findings are suspicious but legal —
/// an oversized ask is answered with a counter-proposal, not rejected
/// (paper §8). `Info` is advisory only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory note.
    Info,
    /// Suspicious but not invalid; does not fail a lint run.
    Warning,
    /// Invariant violation; the input must be rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A stable diagnostic code.
///
/// Numbering scheme: `E01xx` contracts, `E02xx` hoses/pipes, `E03xx`
/// QoS ordering, `E04xx` topology, `E05xx` availability curves,
/// `E06xx` SLO evaluation policies, `E07xx` approval-engine
/// configuration, `W01xx` runtime watchdog (streaming invariant
/// monitors and anomaly detectors over live SLI streams, reported by
/// `slo::watch`). `R01xx` (runtime concurrency findings of a
/// since-deleted schedule explorer) is retired, never to be reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Code {
    /// Entitled rate must be positive and finite.
    E0101,
    /// SLO availability must lie in (0, 1].
    E0102,
    /// Duplicate entitlement rows for one flow aggregate.
    E0103,
    /// Entitlement row NPG differs from the contract NPG.
    E0104,
    /// NPG reference does not resolve against the registry.
    E0105,
    /// Contract carries no entitlements.
    E0106,
    /// Hose has no segments, or a segment has no regions.
    E0201,
    /// A region appears in more than one segment.
    E0202,
    /// Segment caps do not sum to the hose total.
    E0203,
    /// A segment cap lies outside (0, total] — its α is outside (0, 1).
    E0204,
    /// First segment's α⁻ does not exceed the 0.5 boundary (Algorithm 1).
    E0205,
    /// A segment cap is below the α⁺ share its flows actually reached.
    E0206,
    /// Flow-series destinations are not covered by the hose segments.
    E0207,
    /// Pipes aggregate to more than their owning hose total.
    E0208,
    /// A pipe exceeds the cap of the segment covering its destination.
    E0209,
    /// Approval order is not the strict c1_low → c4_high sweep.
    E0301,
    /// Contract SLO is stricter than its most premium class supports.
    E0302,
    /// Region reference does not resolve in the topology.
    E0401,
    /// Entitled egress/ingress exceeds the region's attached capacity.
    E0402,
    /// A pipe asks for more than the max-flow between its endpoints.
    E0403,
    /// Link attributes invalid: capacity ≤ 0 or availability outside (0, 1].
    E0404,
    /// Availability curve is not monotone non-increasing in volume.
    E0501,
    /// SLO target lies outside the availability-curve domain.
    E0502,
    /// Curve point invalid: non-finite volume or availability outside [0, 1].
    E0503,
    /// SLO policy window or hysteresis is zero, or a tolerance/band is
    /// outside its range.
    E0601,
    /// SLO policy fast window is not strictly shorter than the slow window.
    E0602,
    /// SLO policy burn threshold does not exceed 1, or the clear
    /// fraction is outside (0, 1).
    E0603,
    /// Approval config grants without simulation: `tms_per_hose` is zero
    /// (or not a positive integer), so every hose would be approved with
    /// zero TM realizations behind it.
    E0701,
    /// Approval config sweep parameters out of range: `max_cuts` above
    /// the enumerable bound or `k_paths` not a positive integer.
    E0702,
    /// Delivery conservation: conforming delivery exceeded
    /// `min(demand, approved) × (1 + ε)` on a settled, measurable cycle.
    W0101,
    /// Shard reconciliation: the flat aggregate total does not
    /// bit-reconcile with its per-shard partials re-summed in shard
    /// order.
    W0102,
    /// Residual monotonicity: a residual-index decrement went negative,
    /// grew the residual, or missed `max(before − granted, 0)` exactly.
    W0103,
    /// Fraction sanity: a marked or conforming fraction left [0, 1].
    W0104,
    /// Staleness changepoint: the CUSUM over aggregate staleness
    /// crossed its decision threshold (aggregates stopped refreshing).
    W0105,
    /// Attainment drift: the fast/slow EWMA divergence over SLO
    /// attainment crossed its threshold (delivery is sliding).
    W0106,
    /// Admit-latency changepoint: the CUSUM over market admission
    /// latency crossed its threshold (the warm index stopped serving).
    W0107,
}

/// One row of the rule catalog: what the code means and where in the
/// paper the invariant comes from.
#[derive(Clone, Copy, Debug)]
pub struct CatalogEntry {
    /// The stable code.
    pub code: Code,
    /// Default severity a violation is reported at.
    pub severity: Severity,
    /// The invariant, stated positively.
    pub invariant: &'static str,
    /// Paper section that motivates the invariant.
    pub paper: &'static str,
}

impl Code {
    /// The full rule catalog, in code order.
    pub const CATALOG: [CatalogEntry; 36] = [
        CatalogEntry {
            code: Code::E0101,
            severity: Severity::Error,
            invariant: "entitled rates are positive and finite",
            paper: "§3.2 (contract rows are `bits/s`)",
        },
        CatalogEntry {
            code: Code::E0102,
            severity: Severity::Error,
            invariant: "SLO availability lies in (0, 1]",
            paper: "§3.2 (availability SLO)",
        },
        CatalogEntry {
            code: Code::E0103,
            severity: Severity::Warning,
            invariant: "one entitlement row per flow aggregate and period",
            paper: "§3.2 (rows delineate disjoint flow sets)",
        },
        CatalogEntry {
            code: Code::E0104,
            severity: Severity::Error,
            invariant: "every entitlement row belongs to the contract's NPG",
            paper: "§3.2 (a contract binds one NPG)",
        },
        CatalogEntry {
            code: Code::E0105,
            severity: Severity::Error,
            invariant: "NPG references resolve against the service registry",
            paper: "§3.2 (NPGs are the contract principals)",
        },
        CatalogEntry {
            code: Code::E0106,
            severity: Severity::Warning,
            invariant: "a contract carries at least one entitlement",
            paper: "§3.2",
        },
        CatalogEntry {
            code: Code::E0201,
            severity: Severity::Error,
            invariant: "a hose has segments and every segment has regions",
            paper: "§4.2 (hose model)",
        },
        CatalogEntry {
            code: Code::E0202,
            severity: Severity::Error,
            invariant: "hose segments are pairwise disjoint",
            paper: "§4.2 Algorithm 1 (segments partition N)",
        },
        CatalogEntry {
            code: Code::E0203,
            severity: Severity::Error,
            invariant: "segment caps sum to the hose total",
            paper: "§4.2 (coefficients summing over 1 are sub-optimal)",
        },
        CatalogEntry {
            code: Code::E0204,
            severity: Severity::Error,
            invariant: "each segment cap lies in (0, total], i.e. α ∈ (0, 1)",
            paper: "§4.2 (segmentation coefficient α)",
        },
        CatalogEntry {
            code: Code::E0205,
            severity: Severity::Error,
            invariant: "the first segment's α⁻ exceeds 0.5",
            paper: "§4.2 Algorithm 1 (smallest set with α⁻ > 0.5)",
        },
        CatalogEntry {
            code: Code::E0206,
            severity: Severity::Error,
            invariant: "segment caps cover the α⁺ share the flows reached",
            paper: "§4.2 (caps sized by α⁺(SEG))",
        },
        CatalogEntry {
            code: Code::E0207,
            severity: Severity::Warning,
            invariant: "flow-series destinations are covered by the segments",
            paper: "§4.2 (segments partition the destination set)",
        },
        CatalogEntry {
            code: Code::E0208,
            severity: Severity::Error,
            invariant: "pipes never aggregate past their owning hose total",
            paper: "§4.2/§4.3 (hose caps the aggregate)",
        },
        CatalogEntry {
            code: Code::E0209,
            severity: Severity::Error,
            invariant: "each pipe fits the cap of the segment covering its dst",
            paper: "§4.2 (intra-segment agility is bounded by the cap)",
        },
        CatalogEntry {
            code: Code::E0301,
            severity: Severity::Error,
            invariant: "approval sweeps buckets strictly c1_low → c4_high",
            paper: "§4.3 Algorithm 2 (one class at a time)",
        },
        CatalogEntry {
            code: Code::E0302,
            severity: Severity::Warning,
            invariant: "contract SLO is no stricter than its best class default",
            paper: "§4.3 (per-class availability targets)",
        },
        CatalogEntry {
            code: Code::E0401,
            severity: Severity::Error,
            invariant: "region references resolve in the topology",
            paper: "§3.1 (the backbone graph)",
        },
        CatalogEntry {
            code: Code::E0402,
            severity: Severity::Warning,
            invariant: "entitled volume fits the region's attached capacity",
            paper: "§4.3 (approval against physical capacity)",
        },
        CatalogEntry {
            code: Code::E0403,
            severity: Severity::Error,
            invariant: "a pipe never asks past the max-flow of its endpoints",
            paper: "§4.3 (risk simulation routes on the real graph)",
        },
        CatalogEntry {
            code: Code::E0404,
            severity: Severity::Error,
            invariant: "links have positive capacity and availability in (0, 1]",
            paper: "§3.1 (fiber plant model)",
        },
        CatalogEntry {
            code: Code::E0501,
            severity: Severity::Error,
            invariant: "availability curves are monotone non-increasing",
            paper: "§4.3 (bandwidth availability curves)",
        },
        CatalogEntry {
            code: Code::E0502,
            severity: Severity::Error,
            invariant: "the SLO target lies inside the curve's domain",
            paper: "§4.3 (grant = volume at the SLO)",
        },
        CatalogEntry {
            code: Code::E0503,
            severity: Severity::Error,
            invariant: "curve points are finite with availability in [0, 1]",
            paper: "§4.3",
        },
        CatalogEntry {
            code: Code::E0601,
            severity: Severity::Error,
            invariant: "SLO policy windows, hysteresis, and tolerances are in range",
            paper: "§3.2 / §7 (SLO attainment is windowed)",
        },
        CatalogEntry {
            code: Code::E0602,
            severity: Severity::Error,
            invariant: "the fast burn window is strictly shorter than the slow one",
            paper: "§7 (multi-window burn-rate alerting)",
        },
        CatalogEntry {
            code: Code::E0603,
            severity: Severity::Error,
            invariant: "burn thresholds exceed 1× and the clear fraction is in (0, 1)",
            paper: "§7 (alerts page on budget-exhausting burns)",
        },
        CatalogEntry {
            code: Code::E0701,
            severity: Severity::Error,
            invariant: "every approved hose is backed by at least one TM realization",
            paper: "§4.3 Algorithm 2 (GEN_DEMAND precedes approval)",
        },
        CatalogEntry {
            code: Code::E0702,
            severity: Severity::Error,
            invariant: "risk-sweep parameters (max_cuts, k_paths) are in range",
            paper: "§4.3 (RSS enumerates up to two simultaneous cuts)",
        },
        CatalogEntry {
            code: Code::W0101,
            severity: Severity::Error,
            invariant: "delivered never exceeds min(demand, approved) × (1 + ε)",
            paper: "§5/§7.1 (enforcement throttles flows to the approved rate)",
        },
        CatalogEntry {
            code: Code::W0102,
            severity: Severity::Error,
            invariant: "the flat aggregate total bit-reconciles with the per-shard re-sum",
            paper: "§6 (metering aggregates must be reproducible)",
        },
        CatalogEntry {
            code: Code::W0103,
            severity: Severity::Error,
            invariant: "residual-index decrements are exact and never go negative",
            paper: "§4.3 (admissions draw down a finite headroom)",
        },
        CatalogEntry {
            code: Code::W0104,
            severity: Severity::Error,
            invariant: "marked and conforming fractions are valid shares in [0, 1]",
            paper: "§5 (marking partitions the sent traffic)",
        },
        CatalogEntry {
            code: Code::W0105,
            severity: Severity::Warning,
            invariant: "aggregate staleness stays at its healthy refresh cadence",
            paper: "§6 (agents act on recently published aggregates)",
        },
        CatalogEntry {
            code: Code::W0106,
            severity: Severity::Warning,
            invariant: "SLO attainment holds its baseline level",
            paper: "§7.1 (contract attainment is the delivered share of entitled)",
        },
        CatalogEntry {
            code: Code::W0107,
            severity: Severity::Warning,
            invariant: "admission latency stays on the warm-index baseline",
            paper: "§4.3 (approval must answer at interactive latency)",
        },
    ];

    /// The stable textual form, e.g. `"E0203"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::E0101 => "E0101",
            Code::E0102 => "E0102",
            Code::E0103 => "E0103",
            Code::E0104 => "E0104",
            Code::E0105 => "E0105",
            Code::E0106 => "E0106",
            Code::E0201 => "E0201",
            Code::E0202 => "E0202",
            Code::E0203 => "E0203",
            Code::E0204 => "E0204",
            Code::E0205 => "E0205",
            Code::E0206 => "E0206",
            Code::E0207 => "E0207",
            Code::E0208 => "E0208",
            Code::E0209 => "E0209",
            Code::E0301 => "E0301",
            Code::E0302 => "E0302",
            Code::E0401 => "E0401",
            Code::E0402 => "E0402",
            Code::E0403 => "E0403",
            Code::E0404 => "E0404",
            Code::E0501 => "E0501",
            Code::E0502 => "E0502",
            Code::E0503 => "E0503",
            Code::E0601 => "E0601",
            Code::E0602 => "E0602",
            Code::E0603 => "E0603",
            Code::E0701 => "E0701",
            Code::E0702 => "E0702",
            Code::W0101 => "W0101",
            Code::W0102 => "W0102",
            Code::W0103 => "W0103",
            Code::W0104 => "W0104",
            Code::W0105 => "W0105",
            Code::W0106 => "W0106",
            Code::W0107 => "W0107",
        }
    }

    /// Catalog row for this code.
    pub fn entry(self) -> CatalogEntry {
        // The catalog is in code order and covers every variant.
        Code::CATALOG[Code::CATALOG
            .iter()
            .position(|e| e.code == self)
            .unwrap_or(0)]
    }

    /// Default severity for the code.
    pub fn severity(self) -> Severity {
        self.entry().severity
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_code_once() {
        let mut seen = std::collections::BTreeSet::new();
        for e in Code::CATALOG {
            assert!(seen.insert(e.code), "duplicate catalog row {}", e.code);
            assert_eq!(e.code.entry().code, e.code);
            assert_eq!(e.code.severity(), e.severity);
            assert!(!e.invariant.is_empty());
            assert!(e.paper.starts_with('§'), "{} paper ref", e.code);
        }
        assert_eq!(seen.len(), Code::CATALOG.len());
    }

    #[test]
    fn severity_ordering_puts_error_on_top() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
