//! Fig 18 & 19: demand-forecast accuracy — the CDF of sMAPE across all
//! services of a QoS class, evaluated at the p50/p75/p90 traffic
//! percentiles.
//!
//! Paper shape: the majority of sMAPE values sit below 0.4; the three
//! percentiles differ only slightly (p90 slightly worse); a few
//! anomalies exceed 1.0, "caused by new region development, service
//! rollout plan change, and old region decommissions" — i.e. inorganic
//! changes the model was *not told about*. We reproduce that by giving a
//! fraction of services surprise fleet events that are present in the
//! ground truth but hidden from the model's regressors.

use std::fmt::Write as _;
use entitlement_core::period::DAYS_PER_MONTH;
use entitlement_core::stats::{percentile, smape};
use entitlement_core::{DetRng, Rate};
use entitlement_forecast::{ForecastPipeline, PipelineConfig};
use entitlement_workload::history::{HistorySpec, InorganicEvent};
use serde::{Deserialize, Serialize};

/// Result for one QoS class.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ForecastAccuracy {
    /// sMAPE per service at the traffic p50.
    pub smape_p50: Vec<f64>,
    /// sMAPE per service at p75.
    pub smape_p75: Vec<f64>,
    /// sMAPE per service at p90.
    pub smape_p90: Vec<f64>,
}

/// Configuration of the accuracy sweep.
#[derive(Clone, Debug)]
pub struct AccuracyConfig {
    /// Number of synthetic services.
    pub services: usize,
    /// Fraction with surprise (unmodeled) inorganic events.
    pub surprise_fraction: f64,
    /// Base seed (vary per QoS class for Fig 18 vs 19).
    pub seed: u64,
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        AccuracyConfig {
            services: 60,
            surprise_fraction: 0.08,
            seed: 0xF18,
        }
    }
}

/// Forecast a percentile series: fit on daily data, predict the next
/// quarter's daily values, aggregate both sides at monthly percentile P.
fn monthly_percentiles(daily: &[f64], p: f64) -> Vec<f64> {
    let m = daily.len() / DAYS_PER_MONTH as usize;
    (0..m)
        .map(|i| {
            percentile(
                &daily[i * DAYS_PER_MONTH as usize..(i + 1) * DAYS_PER_MONTH as usize],
                p,
            )
        })
        .collect()
}

/// Run the sweep for one class.
pub fn run(config: &AccuracyConfig) -> ForecastAccuracy {
    let mut rng = DetRng::new(config.seed);
    let mut out = ForecastAccuracy {
        smape_p50: Vec::new(),
        smape_p75: Vec::new(),
        smape_p90: Vec::new(),
    };

    for svc in 0..config.services {
        let surprise = rng.f64() < config.surprise_fraction;
        // Diverse service shapes.
        let mut events = Vec::new();
        if rng.chance(0.3) {
            events.push(InorganicEvent {
                month: 4 + rng.usize(6),
                fleet_factor: rng.range(1.2, 2.0),
            });
        }
        let mut surprise_events = events.clone();
        if surprise {
            // A big change landing at the start of the forecast quarter,
            // unmodeled (the model's regressors never see it).
            surprise_events.push(InorganicEvent {
                month: 12,
                fleet_factor: if rng.chance(0.5) {
                    rng.range(3.0, 5.0) // new region development
                } else {
                    rng.range(0.1, 0.25) // decommission
                },
            });
        }
        let spec = HistorySpec {
            months: 15,
            base_rate: Rate::gbps(rng.range(20.0, 500.0)),
            monthly_growth: rng.range(-0.01, 0.06),
            weekly_amplitude: rng.range(0.05, 0.25),
            yearly_amplitude: rng.range(0.02, 0.15),
            holiday_boost: rng.range(1.1, 1.5),
            noise_sigma: rng.range(0.03, 0.12),
            events: surprise_events,
            seed: config.seed ^ (svc as u64) << 8,
        };
        let history = spec.generate();
        let (train, test) = history.split(12);

        // The model sees the regressors of the *planned* events only.
        let planned_spec = HistorySpec {
            events,
            ..spec.clone()
        };
        let planned = planned_spec.generate();
        let regs: Vec<Vec<f64>> = planned
            .regressors
            .iter()
            .map(|r| r.features().to_vec())
            .collect();

        let Ok(pipe) = ForecastPipeline::fit(
            train,
            &history.holidays,
            &regs[..12],
            PipelineConfig::default(),
        ) else {
            continue;
        };
        let future: [Vec<f64>; 3] = [regs[12].clone(), regs[13].clone(), regs[14].clone()];
        let fc = pipe.forecast_quarter(&regs[..12], &future);

        // Scale the organic daily projection to the pipeline's monthly
        // forecast so percentile aggregation reflects the full model.
        let organic_daily = pipe
            .organic()
            .predict_range(train.len(), 3 * DAYS_PER_MONTH as usize);
        let organic_monthly: Vec<f64> = monthly_percentiles(&organic_daily, 50.0);
        for p_idx in 0..3 {
            let p = [50.0, 75.0, 90.0][p_idx];
            let actual = monthly_percentiles(test, p);
            let forecast: Vec<f64> = (0..3)
                .map(|k| {
                    let day_slice =
                        &organic_daily[k * DAYS_PER_MONTH as usize..(k + 1) * DAYS_PER_MONTH as usize];
                    let pctl = percentile(day_slice, p);
                    // Multiply in the inorganic adjustment (ratio of the
                    // pipeline's monthly forecast to the organic mean).
                    let organic_mean = entitlement_core::stats::mean(day_slice);
                    let adj = if organic_mean > 0.0 {
                        fc.monthly[k] / organic_mean
                    } else {
                        1.0
                    };
                    let _ = organic_monthly; // aggregate kept for debugging
                    pctl * adj
                })
                .collect();
            let e = smape(&actual, &forecast);
            match p_idx {
                0 => out.smape_p50.push(e),
                1 => out.smape_p75.push(e),
                _ => out.smape_p90.push(e),
            }
        }
    }
    out
}

impl ForecastAccuracy {
    /// Median sMAPE at p50.
    pub fn median_smape(&self) -> f64 {
        percentile(&self.smape_p50, 50.0)
    }

    /// Fraction of services with sMAPE below a threshold (p50 series).
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        entitlement_core::stats::cdf_at(&self.smape_p50, threshold)
    }

    /// Count of anomalies (sMAPE > 1.0) in the p50 series.
    pub fn anomalies(&self) -> usize {
        self.smape_p50.iter().filter(|&&e| e > 1.0).count()
    }

    /// Render the CDF at decile points.
    #[must_use]
    pub fn render(&self, label: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n## Fig 18/19: forecast sMAPE CDF ({label})");
        let _ = writeln!(out, "{:>10}  {:>8}  {:>8}  {:>8}", "fraction", "p50", "p75", "p90");
        for decile in 1..=10 {
            let f = decile as f64 * 10.0;
            let _ = writeln!(out, 
                "{:>9.0}%  {:>8.3}  {:>8.3}  {:>8.3}",
                f,
                percentile(&self.smape_p50, f),
                percentile(&self.smape_p75, f),
                percentile(&self.smape_p90, f),
            );
        }
        let _ = writeln!(out, 
            "below 0.4: {:.0}%  anomalies (>1.0): {}",
            self.fraction_below(0.4) * 100.0,
            self.anomalies()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_below_point_four_with_anomalies() {
        let acc = run(&AccuracyConfig {
            services: 30,
            ..Default::default()
        });
        assert!(acc.smape_p50.len() >= 25);
        assert!(
            acc.fraction_below(0.4) > 0.6,
            "majority below 0.4, got {:.2}",
            acc.fraction_below(0.4)
        );
        // All sMAPE values in the legal range.
        for &e in acc
            .smape_p50
            .iter()
            .chain(&acc.smape_p75)
            .chain(&acc.smape_p90)
        {
            assert!((0.0..=2.0).contains(&e));
        }
    }

    #[test]
    fn surprise_events_create_anomalies() {
        let none = run(&AccuracyConfig {
            services: 30,
            surprise_fraction: 0.0,
            seed: 0xF19,
        });
        let some = run(&AccuracyConfig {
            services: 30,
            surprise_fraction: 0.4,
            seed: 0xF19,
        });
        assert!(
            some.anomalies() > none.anomalies(),
            "surprises {} vs baseline {}",
            some.anomalies(),
            none.anomalies()
        );
    }

    #[test]
    fn percentiles_are_close_to_each_other() {
        // The paper: "the difference of different traffic percentile is
        // slim". Median sMAPE across percentiles within a small band.
        let acc = run(&AccuracyConfig {
            services: 30,
            ..Default::default()
        });
        let m50 = percentile(&acc.smape_p50, 50.0);
        let m90 = percentile(&acc.smape_p90, 50.0);
        assert!((m50 - m90).abs() < 0.2, "p50 {m50} vs p90 {m90}");
    }
}
