//! # entitlement-forecast
//!
//! Service demand forecasting (paper §4.1). The SLI — quarterly bandwidth
//! demand per `(NPG, QoS, src_region, dst_region)` — is produced by two
//! cooperating models:
//!
//! * **Organic changes** are periodic/systematic and captured by a
//!   decomposable time-series model in the style of Meta's Prophet:
//!   `y(t) = trend(t) + seasonality(t) + holidays(t) + ε_t`
//!   ([`decompose::DecomposableModel`], fitted by ridge least squares over
//!   a piecewise-linear-trend + Fourier + holiday design matrix).
//! * **Inorganic changes** (region moves, QoS changes, architecture
//!   changes) cannot be predicted from patterns; they are modeled by a
//!   tree-based regressor with quantile loss (α = 0.5) over lagged traffic
//!   and infrastructure regressors ([`tree::QuantileGbdt`]), following the
//!   paper's `f(X_{t-1..t-3}, Y_{t-1..t-3})` formulation.
//!
//! [`pipeline::ForecastPipeline`] glues the two together and emits the
//! three monthly forecasts whose maximum becomes the quarterly SLI.
//! Forecast accuracy is scored with sMAPE
//! ([`entitlement_core::stats::smape`]), reproducing Fig 18–19.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod baselines;
pub mod decompose;
pub mod linalg;
pub mod pipeline;
pub mod tree;

pub use aggregate::DailyAggregation;
pub use baselines::Baseline;
pub use decompose::DecomposableModel;
pub use pipeline::{ForecastPipeline, PipelineConfig, QuarterForecast};
pub use tree::{GbdtConfig, QuantileGbdt};
