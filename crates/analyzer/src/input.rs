//! The analyzer's input: a *lint bundle* tying together the artifacts a
//! planning run consumes — contracts, hose/pipe requests, the observed
//! flow series behind a segmentation, the backbone topology, planned
//! approval order, and availability curves.
//!
//! Every section is optional; rules fire only on what is present. Two
//! on-disk JSON shapes are accepted:
//!
//! * a bare array — a contract snapshot exactly as written by
//!   `entitlectl plan` / `ContractDb::save`;
//! * an object with any of the sections below — the full bundle.

use entitlement_core::EntitlementContract;
use entitlement_hose::segment::FlowSeries;
use entitlement_hose::{HoseRequest, PipeRequest};
use entitlement_topology::Topology;
use serde::{Deserialize, Serialize};

/// One destination's observed flow samples (the `F(dst, t)` row).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegionSeries {
    /// Destination region id.
    pub region: u16,
    /// Samples over the shared time grid.
    pub samples: Vec<f64>,
}

/// The flow series justifying one hose's segmentation, keyed by the
/// hose's index in [`LintBundle::hoses`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HoseFlows {
    /// Index into `hoses`.
    pub hose: usize,
    /// Per-destination series.
    pub series: Vec<RegionSeries>,
}

impl HoseFlows {
    /// Convert into the hose crate's [`FlowSeries`] map form.
    pub fn to_flow_series(&self) -> FlowSeries {
        self.series
            .iter()
            .map(|r| (entitlement_core::RegionId(r.region), r.samples.clone()))
            .collect()
    }
}

/// One point of a bandwidth availability curve, as plotted: the
/// probability that at least `gbps` is admitted.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Admitted volume in Gbps.
    pub gbps: f64,
    /// Availability of at least that volume.
    pub availability: f64,
}

/// An availability curve plus the SLO it is meant to serve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CurveCheck {
    /// Label for diagnostics, e.g. the pipe or hose it belongs to.
    pub name: String,
    /// The SLO target the curve will be queried at.
    pub slo: f64,
    /// Plot points, expected sorted by increasing volume with
    /// non-increasing availability.
    pub points: Vec<CurvePoint>,
}

/// An approval-engine configuration to sanity-check (the
/// `ApprovalConfig` knobs as they would appear in an approval-service
/// deployment config). Counts are `f64` so fractional or negative JSON
/// values are caught by the rule rather than by the parser.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ApprovalConfigCheck {
    /// Label for diagnostics, e.g. the approval service the config
    /// deploys to.
    pub name: String,
    /// Representative TM realizations per hose; zero means hoses would
    /// be decided with no risk simulation behind them.
    pub tms_per_hose: f64,
    /// Maximum simultaneous fiber cuts the sweep enumerates.
    pub max_cuts: f64,
    /// Multipath fan-out for routing.
    pub k_paths: f64,
}

/// An SLO evaluation policy to sanity-check (the nine knobs
/// `entitlectl slo` accepts, as they would appear in monitoring
/// config). Window and hysteresis counts are `f64` so a fractional
/// value in the JSON is caught by the rule rather than by the parser.
/// The last three knobs may be absent (or `null`); an absent one takes
/// `SloPolicy::default()`'s value.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SloPolicyCheck {
    /// Label for diagnostics, e.g. the service the policy watches.
    pub name: String,
    /// Fast burn window, cycles.
    pub fast_window: f64,
    /// Slow burn window, cycles.
    pub slow_window: f64,
    /// Fast-window burn threshold (× the error budget).
    pub fast_burn: f64,
    /// Slow-window burn threshold.
    pub slow_burn: f64,
    /// Consecutive calm cycles before a firing alert clears.
    pub hysteresis: f64,
    /// Fractional delivery slack, in [0, 1).
    pub delivery_tolerance: f64,
    /// Fraction of the fast threshold that counts as calm, in (0, 1).
    pub clear_fraction: Option<f64>,
    /// Utilization below which an entity is over-entitled.
    pub under_utilization: Option<f64>,
    /// Utilization above which an entity is under-entitled; must
    /// exceed `under_utilization`.
    pub over_utilization: Option<f64>,
}

/// Everything the analyzer can look at. All sections optional.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LintBundle {
    /// Entitlement contracts (a `ContractDb` snapshot).
    pub contracts: Option<Vec<EntitlementContract>>,
    /// Hose requests awaiting approval.
    pub hoses: Option<Vec<HoseRequest>>,
    /// Pipe realizations; consistency-checked against `hoses`.
    pub pipes: Option<Vec<PipeRequest>>,
    /// Observed flow series backing segmented hoses.
    pub flows: Option<Vec<HoseFlows>>,
    /// The backbone the contracts/hoses reference.
    pub topology: Option<Topology>,
    /// Planned approval sweep order as bucket names
    /// (`"c1_low"` … `"c4_high"`).
    pub approval_order: Option<Vec<String>>,
    /// Known NPG registry; when present, dangling NPGs are errors.
    pub npgs: Option<Vec<u32>>,
    /// Availability curves paired with their SLO targets.
    pub curves: Option<Vec<CurveCheck>>,
    /// SLO evaluation policies (burn-rate alerting configs).
    pub slo_policies: Option<Vec<SloPolicyCheck>>,
    /// Approval-engine configurations (the `ApprovalConfig` knobs).
    pub approval_configs: Option<Vec<ApprovalConfigCheck>>,
}

impl LintBundle {
    /// Parse bundle JSON: either a bare contract-snapshot array or a
    /// full bundle object.
    pub fn from_json(text: &str) -> Result<LintBundle, String> {
        let trimmed = text.trim_start();
        if trimmed.starts_with('[') {
            let contracts: Vec<EntitlementContract> =
                serde_json::from_str(text).map_err(|e| format!("contract snapshot: {e}"))?;
            Ok(LintBundle {
                contracts: Some(contracts),
                ..LintBundle::default()
            })
        } else {
            serde_json::from_str(text).map_err(|e| format!("lint bundle: {e}"))
        }
    }

    /// Bundle with only hoses — the approval pre-flight path.
    pub fn for_hoses(hoses: &[HoseRequest]) -> LintBundle {
        LintBundle {
            hoses: Some(hoses.to_vec()),
            ..LintBundle::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_array_is_a_contract_snapshot() {
        let b = LintBundle::from_json("[]").unwrap();
        assert_eq!(b.contracts.as_deref(), Some(&[][..]));
        assert!(b.hoses.is_none());
    }

    #[test]
    fn object_is_a_bundle() {
        let b = LintBundle::from_json(r#"{"approval_order": ["c1_low", "c2_low"]}"#).unwrap();
        assert_eq!(
            b.approval_order,
            Some(vec!["c1_low".to_string(), "c2_low".to_string()])
        );
        assert!(b.contracts.is_none());
    }

    #[test]
    fn garbage_is_an_error() {
        assert!(LintBundle::from_json("not json").is_err());
        assert!(LintBundle::from_json(r#"{"curves": 3}"#).is_err());
    }

    #[test]
    fn flows_convert_to_series() {
        let hf = HoseFlows {
            hose: 0,
            series: vec![RegionSeries {
                region: 7,
                samples: vec![1.0, 2.0],
            }],
        };
        let fs = hf.to_flow_series();
        assert_eq!(fs[&entitlement_core::RegionId(7)], vec![1.0, 2.0]);
    }
}
