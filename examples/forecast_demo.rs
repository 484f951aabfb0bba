//! The §4.1 demand-forecast pipeline on a service with a planned region
//! scale-up: the organic model captures trend/seasonality/holidays; the
//! inorganic tree model learns the fleet-to-traffic relationship and
//! applies it to the *planned* change in the forecast quarter.
//!
//! ```sh
//! cargo run --example forecast_demo
//! ```

use network_entitlement::core::period::DAYS_PER_MONTH;
use network_entitlement::core::stats;
use network_entitlement::forecast::{ForecastPipeline, PipelineConfig};
use network_entitlement::prelude::*;
use network_entitlement::workload::history::InorganicEvent;

fn main() {
    // Ground truth: 15 months of demand; the fleet grew 60% at month 7
    // (observed in history) and is *planned* to grow 80% at month 12.
    let spec = HistorySpec {
        months: 15,
        base_rate: Rate::gbps(250.0),
        monthly_growth: 0.02,
        events: vec![
            InorganicEvent {
                month: 7,
                fleet_factor: 1.6,
            },
            InorganicEvent {
                month: 12,
                fleet_factor: 1.8,
            },
        ],
        seed: 0xD3, // deterministic demo
        ..Default::default()
    };
    let history = spec.generate();
    let (train, holdout) = history.split(12);
    let regs: Vec<Vec<f64>> = history
        .regressors
        .iter()
        .map(|r| r.features().to_vec())
        .collect();

    println!("training on 12 months ({} days); planned fleet growth at month 12: +80%", train.len());

    // Fit both pipeline variants.
    let full = ForecastPipeline::fit(train, &history.holidays, &regs[..12], PipelineConfig::default())
        .expect("fits");
    let organic_only = ForecastPipeline::fit(
        train,
        &history.holidays,
        &regs[..12],
        PipelineConfig { organic_only: true },
    )
    .expect("fits");
    println!("tree stage active: {}", full.has_tree());

    let future: [Vec<f64>; 3] = [regs[12].clone(), regs[13].clone(), regs[14].clone()];
    let fc_full = full.forecast_quarter(&regs[..12], &future);
    let fc_org = organic_only.forecast_quarter(&regs[..12], &future);

    // Actual monthly means of the holdout quarter.
    let actual: Vec<f64> = (0..3)
        .map(|m| {
            stats::mean(&holdout[m * DAYS_PER_MONTH as usize..(m + 1) * DAYS_PER_MONTH as usize])
        })
        .collect();
    let actual_arr = [actual[0], actual[1], actual[2]];

    println!("\n{:>8} {:>12} {:>14} {:>14}", "month", "actual", "full model", "organic-only");
    for (m, &a) in actual.iter().enumerate().take(3) {
        println!(
            "{:>8} {:>12} {:>14} {:>14}",
            13 + m,
            Rate::bps(a).to_string(),
            Rate::bps(fc_full.monthly[m]).to_string(),
            Rate::bps(fc_org.monthly[m]).to_string()
        );
    }
    println!(
        "\nquarterly SLI (max of months): {}",
        Rate::bps(fc_full.sli_bps)
    );
    println!(
        "sMAPE: full model {:.3}, organic-only {:.3}",
        ForecastPipeline::score(&fc_full, &actual_arr),
        ForecastPipeline::score(&fc_org, &actual_arr)
    );
    println!("\nthe organic-only model misses the planned scale-up; the tree");
    println!("model transfers the month-7 fleet/traffic relationship to it.");
}
