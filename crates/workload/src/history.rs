//! Synthetic demand histories for forecast evaluation.
//!
//! The forecast pipeline (paper §4.1) is evaluated by sMAPE against actual
//! usage (Fig 18–19). Since production history is unavailable, this module
//! generates ground truth with exactly the structure the paper's model
//! assumes: an *organic* component (trend + weekly/yearly seasonality +
//! holidays + idiosyncratic noise) and *inorganic* step changes tied to
//! infrastructure regressors (server count, power, flash/disk) — region
//! launches, decommissions, and architecture changes.

use entitlement_core::period::DAYS_PER_MONTH;
use entitlement_core::{DetRng, Rate};
use serde::{Deserialize, Serialize};

/// Infrastructure regressors for one month — the paper's inorganic-factor
/// inputs ("power and regional fluidity usages, e.g., flash, disk, RCU,
/// and server count of different server types").
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegressorRow {
    /// Allocated servers of the service in the region.
    pub server_count: f64,
    /// Allocated power (kW).
    pub power_kw: f64,
    /// Flash storage (TB).
    pub flash_tb: f64,
    /// Disk storage (TB).
    pub disk_tb: f64,
}

impl RegressorRow {
    /// A feature vector for model input.
    pub fn features(&self) -> [f64; 4] {
        [self.server_count, self.power_kw, self.flash_tb, self.disk_tb]
    }
}

/// An inorganic change event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct InorganicEvent {
    /// Month (0-based) at which the change lands.
    pub month: usize,
    /// Multiplier on the fleet size from this month on (1.5 = region
    /// scale-up, 0.6 = partial decommission).
    pub fleet_factor: f64,
}

/// Parameters of one synthetic service-region demand history.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HistorySpec {
    /// Total months to generate (train + holdout).
    pub months: usize,
    /// Mean demand at month 0.
    pub base_rate: Rate,
    /// Compounded monthly organic growth (0.03 = 3%/month).
    pub monthly_growth: f64,
    /// Weekly seasonality amplitude (weekday/weekend swing).
    pub weekly_amplitude: f64,
    /// Yearly seasonality amplitude.
    pub yearly_amplitude: f64,
    /// Extra demand multiplier on holiday days.
    pub holiday_boost: f64,
    /// Lognormal sigma of daily idiosyncratic noise.
    pub noise_sigma: f64,
    /// Inorganic change events.
    pub events: Vec<InorganicEvent>,
    /// Seed.
    pub seed: u64,
}

impl Default for HistorySpec {
    fn default() -> Self {
        HistorySpec {
            months: 15,
            base_rate: Rate::gbps(200.0),
            monthly_growth: 0.03,
            weekly_amplitude: 0.15,
            yearly_amplitude: 0.10,
            holiday_boost: 1.3,
            noise_sigma: 0.05,
            events: vec![],
            seed: DEFAULT_SEED,
        }
    }
}

/// Traffic per server unit, Mbps: ties regressors to demand so a tree
/// model can learn the relationship.
const RATE_PER_SERVER_MBPS: f64 = 100.0;

/// Initial fleet size.
const BASE_SERVERS: f64 = 1000.0;

/// Default seed for history generation.
const DEFAULT_SEED: u64 = 0xF0_7E;

/// A generated demand history: daily actuals plus monthly regressors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DemandHistory {
    /// Daily mean demand in bps; index = day since epoch.
    pub daily_bps: Vec<f64>,
    /// Monthly regressor rows; index = month.
    pub regressors: Vec<RegressorRow>,
    /// Day indices that are holidays.
    pub holidays: Vec<u32>,
}

impl HistorySpec {
    /// Generate the history.
    pub fn generate(&self) -> DemandHistory {
        let seed = if self.seed == 0 { DEFAULT_SEED } else { self.seed };
        let mut rng = DetRng::new(seed);
        let days = self.months * DAYS_PER_MONTH as usize;

        // Holidays: two fixed seasonal clusters per 360-day year plus a
        // couple of movable one-day events.
        let mut holidays: Vec<u32> = Vec::new();
        for d in 0..days as u32 {
            let doy = d % 360;
            if (350..356).contains(&doy) || (180..182).contains(&doy) {
                holidays.push(d);
            }
        }

        // Fleet trajectory with inorganic events.
        let mut fleet = vec![BASE_SERVERS; self.months];
        for m in 1..self.months {
            fleet[m] = fleet[m - 1];
            for e in &self.events {
                if e.month == m {
                    fleet[m] *= e.fleet_factor;
                }
            }
        }

        let regressors: Vec<RegressorRow> = fleet
            .iter()
            .map(|&s| RegressorRow {
                server_count: s,
                power_kw: s * 0.5 * rng.range(0.95, 1.05),
                flash_tb: s * 4.0 * rng.range(0.9, 1.1),
                disk_tb: s * 30.0 * rng.range(0.9, 1.1),
            })
            .collect();

        let mut daily_bps = Vec::with_capacity(days);
        for d in 0..days {
            let month = d / DAYS_PER_MONTH as usize;
            let t_months = d as f64 / DAYS_PER_MONTH as f64;
            // Organic: compounded trend.
            let trend = (1.0 + self.monthly_growth).powf(t_months);
            // Weekly: weekday high, weekend low (7-day sine).
            let weekly =
                1.0 + self.weekly_amplitude * (2.0 * std::f64::consts::PI * d as f64 / 7.0).sin();
            // Yearly (360-day synthetic year).
            let yearly = 1.0
                + self.yearly_amplitude * (2.0 * std::f64::consts::PI * d as f64 / 360.0).sin();
            let holiday = if holidays.contains(&(d as u32)) {
                self.holiday_boost
            } else {
                1.0
            };
            // Inorganic: demand scales with fleet relative to base.
            let inorganic = self.base_rate.as_bps()
                + Rate::mbps(RATE_PER_SERVER_MBPS).as_bps()
                    * (regressors[month].server_count - BASE_SERVERS);
            let noise = rng.lognormal(-self.noise_sigma * self.noise_sigma / 2.0, self.noise_sigma);
            daily_bps.push((inorganic * trend * weekly * yearly * holiday * noise).max(0.0));
        }

        DemandHistory {
            daily_bps,
            regressors,
            holidays,
        }
    }
}

impl DemandHistory {
    /// Number of complete months in the history.
    pub fn months(&self) -> usize {
        self.daily_bps.len() / DAYS_PER_MONTH as usize
    }

    /// Split daily data into train (first `train_months`) and holdout.
    pub fn split(&self, train_months: usize) -> (&[f64], &[f64]) {
        let cut = train_months * DAYS_PER_MONTH as usize;
        self.daily_bps.split_at(cut.min(self.daily_bps.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monthly_means(h: &DemandHistory) -> Vec<f64> {
        h.daily_bps
            .chunks(DAYS_PER_MONTH as usize)
            .map(entitlement_core::stats::mean)
            .collect()
    }

    #[test]
    fn generates_expected_length() {
        let h = HistorySpec::default().generate();
        assert_eq!(h.daily_bps.len(), 15 * 30);
        assert_eq!(h.months(), 15);
        assert_eq!(h.regressors.len(), 15);
        assert!(h.daily_bps.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn growth_shows_in_monthly_means() {
        let spec = HistorySpec {
            monthly_growth: 0.05,
            noise_sigma: 0.01,
            ..Default::default()
        };
        let h = spec.generate();
        let mm = monthly_means(&h);
        assert!(
            mm[14] > mm[0] * 1.5,
            "5%/mo growth over 14 months: {} -> {}",
            mm[0],
            mm[14]
        );
    }

    #[test]
    fn inorganic_event_steps_demand_and_regressors() {
        let spec = HistorySpec {
            events: vec![InorganicEvent {
                month: 8,
                fleet_factor: 2.0,
            }],
            monthly_growth: 0.0,
            noise_sigma: 0.01,
            ..Default::default()
        };
        let h = spec.generate();
        assert!(
            (h.regressors[8].server_count / h.regressors[7].server_count - 2.0).abs() < 1e-9
        );
        let mm = monthly_means(&h);
        // Doubling the fleet with 100 Mbps/server over 1000 base servers on
        // a 200G base adds 100G.
        assert!(
            mm[9] > mm[7] * 1.3,
            "step visible in demand: {} -> {}",
            mm[7],
            mm[9]
        );
    }

    #[test]
    fn holidays_boost_demand() {
        let spec = HistorySpec {
            noise_sigma: 0.0,
            holiday_boost: 2.0,
            ..Default::default()
        };
        let h = spec.generate();
        let hol = h.holidays[0] as usize;
        // Compare with the same weekday one week earlier (same weekly phase).
        let baseline = h.daily_bps[hol - 7];
        assert!(
            h.daily_bps[hol] > baseline * 1.5,
            "holiday {} vs baseline {}",
            h.daily_bps[hol],
            baseline
        );
    }

    #[test]
    fn split_respects_boundary() {
        let h = HistorySpec::default().generate();
        let (train, test) = h.split(12);
        assert_eq!(train.len(), 360);
        assert_eq!(test.len(), 90);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = HistorySpec::default().generate();
        let b = HistorySpec::default().generate();
        assert_eq!(a.daily_bps, b.daily_bps);
        let c = HistorySpec {
            seed: 99,
            ..Default::default()
        }
        .generate();
        assert_ne!(a.daily_bps, c.daily_bps);
    }
}
