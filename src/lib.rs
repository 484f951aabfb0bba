//! # network-entitlement
//!
//! A from-scratch Rust reproduction of *Network Entitlement:
//! Contract-based Network Sharing with Agility and SLO Guarantees*
//! (Ahuja et al., SIGCOMM 2022) — Meta's production WAN bandwidth
//! reservation framework.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`core`] — contracts, QoS classes, rates, deterministic RNG;
//! * [`topology`] — the backbone WAN substrate (graph, generator,
//!   routing, max-flow, failure scenarios);
//! * [`workload`] — synthetic Meta-like services, patterns, matrices,
//!   incidents, demand histories;
//! * [`forecast`] — the §4.1 demand-forecast pipeline (decomposable
//!   time-series model + quantile GBDT);
//! * [`hose`] — pipe/hose/segmented-hose models, Algorithm 1,
//!   representative traffic matrices, hose coverage;
//! * [`obs`] — the telemetry core (counters/gauges/histograms, span
//!   traces as JSONL, Prometheus text export, and the
//!   `--trace`/`--metrics` contract of the CLIs);
//! * [`risk`] — the Risk Simulation System (availability curves);
//! * [`approval`] — Algorithm 2 (`Hose_Approval` / `Pipe_Approval`);
//! * [`market`] — approval as a serving system: time-sliced entitlement
//!   store with a warm residual-availability index, fail-closed index
//!   invalidation, and seeded admission storms (`entitlectl market`);
//! * [`simnet`] — the enforcement-side network simulator;
//! * [`kvstore`] — the distributed rate-aggregation store;
//! * [`chaos`] — deterministic fault injection for the runtime
//!   (fault plans, degraded stores, fail-static drills);
//! * [`enforcement`] — metering, marking, BPF-style classification,
//!   agents, the §6 drill, and the §7.4 convergence simulation. Each
//!   runtime loop (drill, sharded fleet engine — and the [`market`]
//!   storm) is one function fed an [`obs::Obs`] and the
//!   caller's own `&mut` [`slo::SloEvaluator`] /
//!   [`watch::WatchEvaluator`], plus a shorthand without either;
//! * [`analyzer`] — static diagnostics over contracts, hoses, pipes,
//!   topologies, and availability curves (`entitlectl lint`);
//! * [`slo`] — the health folds over the obs outputs: windowed SLO
//!   attainment, multi-window burn-rate alerts and utilization audit
//!   (`entitlectl slo report|audit`), and in [`slo::watch`] the
//!   runtime watchdog: streaming invariant monitors (`W01xx`) and
//!   EWMA/CUSUM anomaly detectors over live SLI streams, with offline
//!   trace refold (`entitlectl watch`). A metered tick is one
//!   `slo/cycle` event that both fold;
//! * [`watch`] — [`slo::watch`] under its own name.
//!
//! ## Quickstart
//!
//! ```
//! use network_entitlement::prelude::*;
//!
//! // A backbone, a hose request, and an SLO-checked approval:
//! let topo = BackboneSpec::small(7).build();
//! let dcs = topo.dc_ids();
//! let hose = HoseRequest::general(
//!     NpgId(0), QosClass::C1, dcs[0], Direction::Egress,
//!     Rate::gbps(200.0), dcs[1..].iter().copied(),
//! );
//! let approvals = hose_approval(
//!     &topo, &[hose], &[SloTarget::new(0.99).unwrap()],
//!     &ApprovalConfig::default(),
//! );
//! assert!(approvals[0].approved_total.as_bps() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod cli;
pub mod telemetry;

pub use entitlement_analyzer as analyzer;
pub use entitlement_chaos as chaos;
pub use entitlement_approval as approval;
pub use entitlement_core as core;
pub use entitlement_enforcement as enforcement;
pub use entitlement_forecast as forecast;
pub use entitlement_hose as hose;
pub use entitlement_kvstore as kvstore;
pub use entitlement_market as market;
pub use entitlement_obs as obs;
pub use entitlement_risk as risk;
pub use entitlement_simnet as simnet;
pub use entitlement_slo as slo;
pub use entitlement_slo::watch;
pub use entitlement_topology as topology;
pub use entitlement_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use entitlement_approval::{hose_approval, ApprovalConfig, ApprovalSummary, HoseApproval};
    pub use entitlement_core::{
        Direction, Entitlement, EntitlementContract, HostId, NpgId, Period, QosClass, Quarter,
        Rate, RegionId, SloTarget,
    };
    pub use entitlement_chaos::{Fault, FaultKind, FaultPlan, TimeWindow};
    pub use entitlement_enforcement::{
        run_drill, run_drill_with, Agent, AgentConfig, ContractDb, DrillConfig, Marker,
        MarkingStrategy, Meter, StatefulMeter, StatelessMeter,
    };
    pub use entitlement_forecast::{ForecastPipeline, PipelineConfig, QuarterForecast};
    pub use entitlement_hose::{
        generate_tms, segment_flow_series, HoseRequest, HoseSegment, TmGenConfig,
    };
    pub use entitlement_market::{
        AdmitDecision, AdmitOutcome, AdmitPath, AdmitRequest, EntitlementBook, EntitlementKind,
        EntitlementMarket, MarketEntitlement, MarketKey, ResidualIndex, SliceGrid, SliceId,
        StormConfig, StormReport,
    };
    pub use entitlement_obs::{Clock, Obs};
    pub use entitlement_risk::{
        assess_risk_detailed, AvailabilityCurve, RiskAssessment, RiskConfig,
    };
    pub use entitlement_simnet::{Bottleneck, MarkingCommand, World, WorldConfig};
    pub use entitlement_slo::watch::{WatchEvaluator, WatchPolicy, WatchReport};
    pub use entitlement_slo::{BurnAlert, SloEvaluator, SloPolicy, SloReport};
    pub use entitlement_topology::{BackboneSpec, ScenarioSet, Topology};
    pub use entitlement_workload::{
        HistorySpec, Incident, MatrixSpec, ServiceCatalog, TrafficMatrix, TrafficPattern,
    };
}
