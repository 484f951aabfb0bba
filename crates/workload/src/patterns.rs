//! Per-service traffic shapes.
//!
//! Paper Fig 3 contrasts two storage services: Coldstorage shows regular
//! spikes because it "periodically turn\[s\] on a rack of storage servers to
//! perform data operations and rotat\[es\] across all racks"; Warmstorage
//! fluctuates smoothly with time of day. A [`TrafficPattern`] maps a
//! simulation time to a multiplicative factor around a service's base
//! rate; all patterns average ≈ 1.0 so base rates stay meaningful.

use entitlement_core::DetRng;
use serde::{Deserialize, Serialize};

/// Seconds per simulated day.
pub const DAY_SECS: f64 = 86_400.0;

/// A time-varying multiplier applied to a service's base rate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Constant traffic (control planes, replication heartbeats).
    Flat,
    /// Smooth time-of-day fluctuation (Warmstorage in Fig 3):
    /// `1 + amplitude * sin(2π (t/day + phase))`.
    Diurnal {
        /// Peak-to-mean amplitude in `[0, 1)`.
        amplitude: f64,
        /// Phase offset in fractional days.
        phase: f64,
    },
    /// Rack-rotation spikes (Coldstorage in Fig 3): a baseline of
    /// `1 - duty*height/(1-duty)` with periodic rectangular bursts to
    /// `1 + height` for `duty` fraction of every `period_secs`.
    SpikyRotation {
        /// Spacing between spikes, seconds.
        period_secs: f64,
        /// Fraction of the period spent in the spike, in (0, 1).
        duty: f64,
        /// Spike height above baseline (e.g. 1.5 doubles-and-a-half).
        height: f64,
    },
    /// Diurnal base plus lognormal per-interval jitter (web/feed tail
    /// services).
    Bursty {
        /// Underlying diurnal amplitude.
        amplitude: f64,
        /// Sigma of the multiplicative lognormal jitter.
        jitter_sigma: f64,
        /// Seed so the jitter is reproducible per service.
        seed: u64,
    },
}

impl TrafficPattern {
    /// Warmstorage-like smooth diurnal pattern.
    pub fn warmstorage() -> Self {
        TrafficPattern::Diurnal {
            amplitude: 0.25,
            phase: 0.0,
        }
    }

    /// Coldstorage-like spiky rotation: a spike every 4 hours, 20% duty,
    /// 1.5x above baseline.
    pub fn coldstorage() -> Self {
        TrafficPattern::SpikyRotation {
            period_secs: 4.0 * 3600.0,
            duty: 0.2,
            height: 1.5,
        }
    }

    /// The multiplier at simulation time `t_secs`. Always non-negative,
    /// and long-run mean ≈ 1 for every variant.
    pub fn factor_at(&self, t_secs: f64) -> f64 {
        match self {
            TrafficPattern::Flat => 1.0,
            TrafficPattern::Diurnal { amplitude, phase } => {
                1.0 + amplitude * (2.0 * std::f64::consts::PI * (t_secs / DAY_SECS + phase)).sin()
            }
            TrafficPattern::SpikyRotation {
                period_secs,
                duty,
                height,
            } => {
                // Mean-preserving: duty*peak + (1-duty)*base = 1.
                let peak = 1.0 + height;
                let base = (1.0 - duty * peak) / (1.0 - duty);
                let pos = (t_secs / period_secs).fract();
                if pos < *duty {
                    peak
                } else {
                    base.max(0.0)
                }
            }
            TrafficPattern::Bursty {
                amplitude,
                jitter_sigma,
                seed,
            } => {
                let diurnal = 1.0
                    + amplitude * (2.0 * std::f64::consts::PI * (t_secs / DAY_SECS)).sin();
                // Jitter keyed by the 5-minute bucket so it is reproducible
                // without storing RNG state.
                let bucket = (t_secs / 300.0) as u64;
                let mut rng = DetRng::new(seed ^ bucket.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                // E[lognormal(-s^2/2, s)] = 1: mean preserving.
                let jitter = rng.lognormal(-jitter_sigma * jitter_sigma / 2.0, *jitter_sigma);
                (diurnal * jitter).max(0.0)
            }
        }
    }

    /// Coefficient of variation of the factor over `days`, sampled every
    /// `step_secs`: spiky patterns have much higher CV than diurnal ones, which is the
    /// distinction Fig 3 draws.
    pub fn cv(&self, days: f64, step_secs: f64) -> f64 {
        let steps = (days * DAY_SECS / step_secs) as usize;
        let xs: Vec<f64> = (0..steps)
            .map(|i| self.factor_at(i as f64 * step_secs))
            .collect();
        let m = entitlement_core::stats::mean(&xs);
        entitlement_core::stats::std_dev(&xs) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_one() {
        assert_eq!(TrafficPattern::Flat.factor_at(12345.0), 1.0);
    }

    #[test]
    fn all_patterns_are_mean_preserving() {
        for p in [
            TrafficPattern::Flat,
            TrafficPattern::warmstorage(),
            TrafficPattern::coldstorage(),
            TrafficPattern::Bursty {
                amplitude: 0.2,
                jitter_sigma: 0.3,
                seed: 1,
            },
        ] {
            let steps = (7.0 * DAY_SECS / 300.0) as usize;
            let m = (0..steps)
                .map(|i| p.factor_at(i as f64 * 300.0))
                .sum::<f64>()
                / steps as f64;
            assert!((m - 1.0).abs() < 0.05, "{p:?} mean {m}");
        }
    }

    #[test]
    fn coldstorage_is_spikier_than_warmstorage() {
        let cold = TrafficPattern::coldstorage().cv(3.0, 60.0);
        let warm = TrafficPattern::warmstorage().cv(3.0, 60.0);
        assert!(
            cold > 2.0 * warm,
            "cold CV {cold} should dwarf warm CV {warm}"
        );
    }

    #[test]
    fn diurnal_peaks_once_per_day() {
        let p = TrafficPattern::warmstorage();
        // Max at t/day = 0.25 (sin peak).
        let peak = p.factor_at(0.25 * DAY_SECS);
        let trough = p.factor_at(0.75 * DAY_SECS);
        assert!((peak - 1.25).abs() < 1e-9);
        assert!((trough - 0.75).abs() < 1e-9);
        // Periodicity.
        assert!((p.factor_at(1000.0) - p.factor_at(1000.0 + DAY_SECS)).abs() < 1e-9);
    }

    #[test]
    fn spiky_hits_peak_during_duty_window() {
        let p = TrafficPattern::coldstorage();
        assert!((p.factor_at(0.0) - 2.5).abs() < 1e-9, "peak = 1 + height");
        let off = p.factor_at(0.5 * 4.0 * 3600.0);
        assert!(off < 1.0, "baseline below mean, got {off}");
        assert!(off >= 0.0);
    }

    #[test]
    fn bursty_is_deterministic_per_bucket() {
        let p = TrafficPattern::Bursty {
            amplitude: 0.2,
            jitter_sigma: 0.5,
            seed: 42,
        };
        assert_eq!(p.factor_at(100.0), p.factor_at(100.0));
        // Same 5-minute bucket, same jitter.
        assert_eq!(p.factor_at(10.0), p.factor_at(200.0).max(p.factor_at(10.0)).min(p.factor_at(10.0)));
        assert!(p.factor_at(100.0) >= 0.0);
    }
}
