//! The Prophet-style decomposable time-series model for organic changes.
//!
//! Paper §4.1: "We use Prophet, Meta's open sourced time-series
//! forecasting algorithm. It takes historical data as the input and
//! decomposes the time series into 3 components: trend, seasonality and
//! holidays, e.g. y(t) = trend(t) + seasonality(t) + holidays(t) + ε_t."
//!
//! Our from-scratch implementation follows the same additive structure,
//! fitted in one ridge regression:
//!
//! * **trend** — piecewise-linear with evenly spaced changepoints; slope
//!   deltas are ridge-shrunk, which is the L2 analogue of Prophet's
//!   Laplace changepoint prior;
//! * **seasonality** — Fourier series for the weekly (period 7) and
//!   yearly (period 360, synthetic calendar) cycles;
//! * **holidays** — one indicator coefficient shared by all holiday days.
//!
//! The model works in log space when all observations are positive (like
//! Prophet's multiplicative mode) so bandwidth growth compounds rather
//! than accumulates.

use crate::linalg::predict_row;
use entitlement_core::{EntitlementError, Result};
use serde::{Deserialize, Serialize};

/// Number of trend changepoints.
const CHANGEPOINTS: usize = 8;
/// Fourier order of the weekly cycle.
const WEEKLY_ORDER: usize = 3;
/// Fourier order of the yearly cycle.
const YEARLY_ORDER: usize = 4;
/// Days per synthetic year.
const YEAR_DAYS: f64 = 360.0;
/// Ridge strength on seasonal/holiday/changepoint coefficients.
const LAMBDA: f64 = 0.05;
/// Design columns: intercept + slope + changepoints + 2·weekly +
/// 2·yearly + holiday.
const COLUMNS: usize = 2 + CHANGEPOINTS + 2 * WEEKLY_ORDER + 2 * YEARLY_ORDER + 1;

/// A fitted decomposable model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DecomposableModel {
    weights: Vec<f64>,
    /// Changepoint day positions (fractional).
    changepoint_days: Vec<f64>,
    /// Days of training data (defines the in-sample range).
    pub train_days: usize,
    /// Sorted holiday day indices used at fit time; future holidays are
    /// assumed to repeat with the yearly period.
    holidays: Vec<u32>,
    /// Whether the fit ran in log space.
    fitted_log: bool,
    /// Target scale (mean of |y| or |log y|) used to normalize the ridge.
    scale: f64,
}

impl DecomposableModel {
    /// Fit the model on `daily` observations with the given holiday days.
    /// The fit runs in log space (a multiplicative model) when every
    /// observation is positive.
    pub fn fit(daily: &[f64], holidays: &[u32]) -> Result<Self> {
        let min_len = 28;
        if daily.len() < min_len {
            return Err(EntitlementError::SeriesTooShort {
                needed: min_len,
                got: daily.len(),
            });
        }
        let use_log = daily.iter().all(|&v| v > 0.0);
        let y_raw: Vec<f64> = if use_log {
            daily.iter().map(|v| v.ln()).collect()
        } else {
            daily.to_vec()
        };
        let scale =
            entitlement_core::stats::mean(&y_raw.iter().map(|v| v.abs()).collect::<Vec<_>>())
                .max(1e-9);
        let y: Vec<f64> = y_raw.iter().map(|v| v / scale).collect();

        let n = daily.len();
        let changepoint_days: Vec<f64> = (1..=CHANGEPOINTS)
            .map(|i| n as f64 * i as f64 / (CHANGEPOINTS + 1) as f64)
            .collect();

        let mut sorted_holidays = holidays.to_vec();
        sorted_holidays.sort_unstable();

        let cols = COLUMNS;
        let mut design = Vec::with_capacity(n * cols);
        for t in 0..n {
            Self::push_row(
                &mut design,
                t as f64,
                &changepoint_days,
                &sorted_holidays,
                n,
            );
        }
        // The intercept and base slope carry the level and trend and must
        // not be shrunk; only changepoint deltas, seasonality, and the
        // holiday effect get the ridge penalty (Prophet's prior structure).
        let mut penalty = vec![1.0; cols];
        penalty[0] = 0.0;
        penalty[1] = 0.0;
        let weights = crate::linalg::ridge_solve_weighted(&design, n, cols, &y, LAMBDA, &penalty)?;
        Ok(DecomposableModel {
            weights,
            changepoint_days,
            train_days: n,
            holidays: sorted_holidays,
            fitted_log: use_log,
            scale,
        })
    }

    fn push_row(
        design: &mut Vec<f64>,
        t: f64,
        changepoint_days: &[f64],
        holidays: &[u32],
        train_days: usize,
    ) {
        // Normalize time so ridge treats slopes sanely.
        let tn = t / train_days as f64;
        design.push(1.0); // intercept
        design.push(tn); // base slope
        for &cp in changepoint_days {
            let cpn = cp / train_days as f64;
            design.push(if tn > cpn { tn - cpn } else { 0.0 });
        }
        for k in 1..=WEEKLY_ORDER {
            let arg = 2.0 * std::f64::consts::PI * k as f64 * t / 7.0;
            design.push(arg.sin());
            design.push(arg.cos());
        }
        for k in 1..=YEARLY_ORDER {
            let arg = 2.0 * std::f64::consts::PI * k as f64 * t / YEAR_DAYS;
            design.push(arg.sin());
            design.push(arg.cos());
        }
        // Holiday indicator: exact day match in-sample; future days match
        // the yearly image of a training holiday.
        let day = t as i64;
        let year = YEAR_DAYS as i64;
        let is_holiday = holidays.iter().any(|&h| {
            let h = h as i64;
            day == h || (day > h && (day - h) % year == 0)
        });
        design.push(if is_holiday { 1.0 } else { 0.0 });
    }

    /// Predict the value at day `t` (may exceed the training range).
    pub fn predict(&self, t: f64) -> f64 {
        let mut row = Vec::with_capacity(COLUMNS);
        Self::push_row(
            &mut row,
            t,
            &self.changepoint_days,
            &self.holidays,
            self.train_days,
        );
        let v = predict_row(&row, &self.weights) * self.scale;
        if self.fitted_log {
            v.exp()
        } else {
            v
        }
    }

    /// Predict a range of days.
    pub fn predict_range(&self, from_day: usize, days: usize) -> Vec<f64> {
        (from_day..from_day + days)
            .map(|d| self.predict(d as f64))
            .collect()
    }

    /// In-sample fitted values.
    pub fn fitted(&self) -> Vec<f64> {
        self.predict_range(0, self.train_days)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_core::stats::smape;

    /// Synthetic series: exponential trend * weekly cycle, no noise.
    fn synth(days: usize) -> Vec<f64> {
        (0..days)
            .map(|d| {
                let trend = 100.0 * 1.001_f64.powi(d as i32);
                let weekly = 1.0 + 0.2 * (2.0 * std::f64::consts::PI * d as f64 / 7.0).sin();
                trend * weekly
            })
            .collect()
    }

    #[test]
    fn fits_trend_and_seasonality() {
        let data = synth(360);
        let model = DecomposableModel::fit(&data, &[]).unwrap();
        let fitted = model.fitted();
        let err = smape(&data, &fitted);
        assert!(err < 0.02, "in-sample sMAPE {err}");
    }

    #[test]
    fn extrapolates_90_days() {
        let data = synth(450);
        let (train, test) = data.split_at(360);
        let model = DecomposableModel::fit(train, &[]).unwrap();
        let pred = model.predict_range(360, 90);
        let err = smape(test, &pred);
        assert!(err < 0.05, "out-of-sample sMAPE {err}");
    }

    #[test]
    fn holiday_component_learned_and_projected() {
        // Holiday on day 100 and its yearly images.
        let mut data = synth(400);
        let holidays: Vec<u32> = vec![100];
        data[100] *= 1.5;
        let model = DecomposableModel::fit(&data, &holidays).unwrap();
        // Day 460 = 100 + 360 should also be boosted in the prediction.
        let boosted = model.predict(460.0);
        let neighbor = model.predict(453.0); // same weekday one week earlier
        assert!(
            boosted > neighbor * 1.2,
            "future holiday boost {boosted} vs {neighbor}"
        );
    }

    #[test]
    fn short_series_is_an_error() {
        let err = DecomposableModel::fit(&[1.0; 10], &[]);
        assert!(matches!(err, Err(EntitlementError::SeriesTooShort { .. })));
    }

    #[test]
    fn negative_data_falls_back_to_linear_space() {
        let data: Vec<f64> = (0..60).map(|d| d as f64 - 10.0).collect();
        let model = DecomposableModel::fit(&data, &[]).unwrap();
        // Should track the linear ramp decently.
        let p = model.predict(30.0);
        assert!((p - 20.0).abs() < 6.0, "got {p}");
    }
}
