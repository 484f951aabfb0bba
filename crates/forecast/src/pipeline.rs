//! The end-to-end demand forecast pipeline (paper §4.1).
//!
//! 1. Fit the organic decomposable model on daily history and project the
//!    next three months.
//! 2. Fit the inorganic tree model. The paper feeds lagged monthly traffic
//!    and infrastructure regressors (`X_{t-1..t-3}, Y_{t-1..t-3}`) to a
//!    tree with quantile loss. Regression trees cannot extrapolate levels
//!    beyond the training range, so our formulation is scale-free: the
//!    tree learns month-over-month traffic *growth* `X_t / X_{t-1}` from
//!    month-over-month regressor ratios of the current and two preceding
//!    months. A fleet doubling seen once in history then transfers to a
//!    *planned* doubling of any absolute size.
//! 3. At forecast time the tree's prediction is normalized by its output
//!    on a "no change" feature row, isolating the inorganic multiplier;
//!    the organic projection carries trend/seasonality and the multiplier
//!    compounds the planned inorganic steps on top.
//! 4. The three monthly forecasts form the quarterly SLI; following
//!    common capacity practice the SLI is their maximum.

use crate::decompose::DecomposableModel;
use crate::tree::{GbdtConfig, QuantileGbdt};
use entitlement_core::period::DAYS_PER_MONTH;
use entitlement_core::Result;
use serde::{Deserialize, Serialize};

/// Pipeline hyper-parameters. The inorganic tree is fitted with
/// [`GbdtConfig::default`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Disable the tree stage (organic-only ablation).
    pub organic_only: bool,
}

/// The pipeline's output for one quarter.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QuarterForecast {
    /// Forecast mean demand (bps) for months t, t+1, t+2.
    pub monthly: [f64; 3],
    /// The quarterly SLI: max of the monthly forecasts.
    pub sli_bps: f64,
}

/// A fitted forecast pipeline for one service-region series.
#[derive(Clone, Debug)]
pub struct ForecastPipeline {
    organic: DecomposableModel,
    tree: Option<QuantileGbdt>,
    /// Actual monthly means of the training window.
    train_monthly: Vec<f64>,
    /// Monthly regressor rows covering train months (and later queried
    /// for planned future months).
    config: PipelineConfig,
}

/// Minimum training months before the tree stage activates.
const MIN_TREE_MONTHS: usize = 8;

fn monthly_means(daily: &[f64]) -> Vec<f64> {
    let m = daily.len() / DAYS_PER_MONTH as usize;
    (0..m)
        .map(|i| {
            let s = &daily[i * DAYS_PER_MONTH as usize..(i + 1) * DAYS_PER_MONTH as usize];
            entitlement_core::stats::mean(s)
        })
        .collect()
}

/// Month-over-month ratio of each regressor; month 0 gets all-ones.
fn regressor_ratios(regressors: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(regressors.len());
    for (m, row) in regressors.iter().enumerate() {
        if m == 0 {
            out.push(vec![1.0; row.len()]);
        } else {
            out.push(
                row.iter()
                    .zip(&regressors[m - 1])
                    .map(|(&cur, &prev)| if prev.abs() > 1e-12 { cur / prev } else { 1.0 })
                    .collect(),
            );
        }
    }
    out
}

/// Feature row for predicting the growth of month `t`: regressor ratios
/// at t, t-1, t-2 (clamped at the series start).
fn growth_features(reg_ratios: &[Vec<f64>], t: usize) -> Vec<f64> {
    let mut row = Vec::new();
    for h in 0..3 {
        let idx = t.saturating_sub(h);
        row.extend_from_slice(&reg_ratios[idx.min(reg_ratios.len() - 1)]);
    }
    row
}

impl ForecastPipeline {
    /// Fit on daily training data.
    ///
    /// `regressors` holds one feature row per training month (e.g. from
    /// `entitlement_workload::history::RegressorRow::features`, passed
    /// as plain vectors to keep this crate decoupled).
    pub fn fit(
        daily: &[f64],
        holidays: &[u32],
        regressors: &[Vec<f64>],
        config: PipelineConfig,
    ) -> Result<Self> {
        let organic = DecomposableModel::fit(daily, holidays)?;
        let train_monthly = monthly_means(daily);
        let months = train_monthly.len();

        let tree = if config.organic_only || months < MIN_TREE_MONTHS || regressors.len() < months
        {
            None
        } else {
            // Target: month-over-month traffic growth. Features: the
            // month-over-month regressor ratios of months t, t-1, t-2
            // (delayed effects of a change are common — sessions migrate
            // over weeks).
            let reg_ratios = regressor_ratios(regressors);
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for t in 1..months {
                if train_monthly[t - 1] <= 0.0 {
                    continue;
                }
                xs.push(growth_features(&reg_ratios, t));
                ys.push(train_monthly[t] / train_monthly[t - 1]);
            }
            if xs.is_empty() {
                None
            } else {
                Some(QuantileGbdt::fit(&xs, &ys, GbdtConfig::default()))
            }
        };

        Ok(ForecastPipeline {
            organic,
            tree,
            train_monthly,
            config,
        })
    }

    /// Whether the inorganic tree stage is active.
    pub fn has_tree(&self) -> bool {
        self.tree.is_some()
    }

    /// Forecast the next quarter. `future_regressors` supplies the
    /// *planned* regressor rows for months t, t+1, t+2 (planned changes
    /// are known in advance, §4.1); `train_regressors` are the same rows
    /// used at fit time.
    pub fn forecast_quarter(
        &self,
        train_regressors: &[Vec<f64>],
        future_regressors: &[Vec<f64>; 3],
    ) -> QuarterForecast {
        let months = self.train_monthly.len();
        let train_days = months * DAYS_PER_MONTH as usize;
        let mut monthly = [0.0; 3];

        // Organic projections for the three future months.
        let mut organic_future = [0.0; 3];
        for (k, of) in organic_future.iter_mut().enumerate() {
            let start = train_days + k * DAYS_PER_MONTH as usize;
            let days = self.organic.predict_range(start, DAYS_PER_MONTH as usize);
            *of = entitlement_core::stats::mean(&days);
        }

        match &self.tree {
            None => monthly.copy_from_slice(&organic_future),
            Some(tree) => {
                // All regressor rows: history then planned future.
                let mut regs: Vec<Vec<f64>> = train_regressors.to_vec();
                regs.extend(future_regressors.iter().cloned());
                let reg_ratios = regressor_ratios(&regs);
                // The tree's output on a "nothing changed" row isolates
                // its organic baseline; dividing by it leaves the pure
                // inorganic multiplier.
                let width = regs.first().map_or(0, Vec::len);
                let neutral = vec![1.0; width * 3];
                let baseline = tree.predict(&neutral).max(1e-9);

                let mut cumulative = 1.0;
                for (k, m) in monthly.iter_mut().enumerate() {
                    let t = months + k;
                    let growth = tree.predict(&growth_features(&reg_ratios, t)).max(0.0);
                    let inorganic_mult = growth / baseline;
                    cumulative *= inorganic_mult;
                    *m = organic_future[k] * cumulative;
                }
            }
        }
        let sli_bps = monthly.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        QuarterForecast { monthly, sli_bps }
    }

    /// sMAPE of a quarter forecast against actual monthly means.
    pub fn score(forecast: &QuarterForecast, actual_monthly: &[f64; 3]) -> f64 {
        entitlement_core::stats::smape(actual_monthly, &forecast.monthly)
    }

    /// Access the organic component (for decomposition plots).
    pub fn organic(&self) -> &DecomposableModel {
        &self.organic
    }

    /// The pipeline configuration used.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Daily series with growth + weekly cycle; regressors flat.
    fn organic_world(months: usize, growth: f64) -> (Vec<f64>, Vec<Vec<f64>>) {
        let days = months * DAYS_PER_MONTH as usize;
        let daily: Vec<f64> = (0..days)
            .map(|d| {
                let trend = 1e9 * (1.0 + growth).powf(d as f64 / DAYS_PER_MONTH as f64);
                let weekly = 1.0 + 0.15 * (2.0 * std::f64::consts::PI * d as f64 / 7.0).sin();
                trend * weekly
            })
            .collect();
        let regs = vec![vec![1000.0, 500.0]; months];
        (daily, regs)
    }

    #[test]
    fn organic_only_quarter_forecast_tracks_growth() {
        let (daily, regs) = organic_world(15, 0.03);
        let (train, test) = daily.split_at(12 * DAYS_PER_MONTH as usize);
        let pipe = ForecastPipeline::fit(
            train,
            &[],
            &regs[..12],
            PipelineConfig { organic_only: true },
        )
        .unwrap();
        assert!(!pipe.has_tree());
        let fc = pipe.forecast_quarter(
            &regs[..12],
            &[regs[12].clone(), regs[13].clone(), regs[14].clone()],
        );
        let actual = monthly_means(test);
        let err = ForecastPipeline::score(&fc, &[actual[0], actual[1], actual[2]]);
        assert!(err < 0.05, "organic-only sMAPE {err}");
        assert!(fc.sli_bps >= fc.monthly[0]);
    }

    #[test]
    fn tree_stage_activates_with_enough_months() {
        let (daily, regs) = organic_world(12, 0.02);
        let pipe =
            ForecastPipeline::fit(&daily, &[], &regs, PipelineConfig::default()).unwrap();
        assert!(pipe.has_tree());
    }

    #[test]
    fn tree_captures_planned_fleet_doubling() {
        // World where traffic is proportional to fleet size, and the fleet
        // doubles at month 6 (history) and again at month 12 (planned).
        let months = 15usize;
        let days = months * DAYS_PER_MONTH as usize;
        let mut fleet = vec![1000.0; months];
        for f in fleet.iter_mut().skip(6) {
            *f = 2000.0;
        }
        for f in fleet.iter_mut().skip(12) {
            *f = 4000.0;
        }
        let daily: Vec<f64> = (0..days)
            .map(|d| {
                let m = d / DAYS_PER_MONTH as usize;
                let weekly = 1.0 + 0.1 * (2.0 * std::f64::consts::PI * d as f64 / 7.0).sin();
                1e6 * fleet[m] * weekly
            })
            .collect();
        let regs: Vec<Vec<f64>> = fleet.iter().map(|&f| vec![f, f * 0.5]).collect();
        let (train, test) = daily.split_at(12 * DAYS_PER_MONTH as usize);

        let with_tree =
            ForecastPipeline::fit(train, &[], &regs[..12], PipelineConfig::default()).unwrap();
        let organic_only = ForecastPipeline::fit(
            train,
            &[],
            &regs[..12],
            PipelineConfig { organic_only: true },
        )
        .unwrap();

        let future: [Vec<f64>; 3] = [regs[12].clone(), regs[13].clone(), regs[14].clone()];
        let fc_tree = with_tree.forecast_quarter(&regs[..12], &future);
        let fc_org = organic_only.forecast_quarter(&regs[..12], &future);

        let actual_m = monthly_means(test);
        let actual = [actual_m[0], actual_m[1], actual_m[2]];
        let err_tree = ForecastPipeline::score(&fc_tree, &actual);
        let err_org = ForecastPipeline::score(&fc_org, &actual);
        // The tree saw the month-6 doubling (fleet 2x -> traffic 2x) so it
        // should track the planned month-12 doubling far better than the
        // organic-only model.
        assert!(
            err_tree < err_org,
            "tree sMAPE {err_tree} should beat organic-only {err_org}"
        );
    }

    #[test]
    fn short_history_errors() {
        let res = ForecastPipeline::fit(&[1.0; 5], &[], &[], PipelineConfig::default());
        assert!(res.is_err());
    }
}
