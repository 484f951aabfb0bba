//! Misbehaving-service incident injection (paper §2.2).
//!
//! Two production incidents motivate the entitlement program:
//!
//! * **Incident 1 (service bug)** — a video client bug downloads duplicate
//!   videos in parallel; the spike "was formed within three minutes, and
//!   the peak volume was 50% more than predicted volume" (Fig 4), causing
//!   up to 8% loss in Class A and 2% in Class B network-wide (Fig 5).
//! * **Incident 2 (new feature)** — a caching change moves fetches from
//!   edge caches to backend data centers, a surge "10% larger than the
//!   estimated peak volume" from one region.
//!
//! An [`Incident`] is a time-dependent multiplier on a service's traffic;
//! the simulator applies it on top of the service's base pattern.

use serde::{Deserialize, Serialize};

/// The kind of misbehaviour.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum IncidentKind {
    /// Sudden multiplicative spike that ramps up over `ramp_secs` and
    /// stays at `magnitude` (1.5 = +50%) until the end.
    SuddenSpike {
        /// Ramp duration (paper: ~3 minutes).
        ramp_secs: f64,
        /// Peak multiplier (paper: 1.5).
        magnitude: f64,
    },
    /// Step increase from a deployed change (paper: 1.1 = +10%), applied
    /// instantly at start.
    FeatureStep {
        /// Step multiplier.
        magnitude: f64,
    },
}

/// A scheduled incident on one service's traffic.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// When the misbehaviour starts, seconds.
    pub start_secs: f64,
    /// When it is mitigated (multiplier returns to 1), seconds.
    pub end_secs: f64,
    /// What happens.
    pub kind: IncidentKind,
}

impl Incident {
    /// The video-client-bug incident: +50% forming over 3 minutes.
    pub fn video_bug(start_secs: f64, duration_secs: f64) -> Incident {
        Incident {
            start_secs,
            end_secs: start_secs + duration_secs,
            kind: IncidentKind::SuddenSpike {
                ramp_secs: 180.0,
                magnitude: 1.5,
            },
        }
    }

    /// Traffic multiplier at time `t` (1.0 outside the incident window).
    pub fn factor_at(&self, t_secs: f64) -> f64 {
        if t_secs < self.start_secs || t_secs >= self.end_secs {
            return 1.0;
        }
        match self.kind {
            IncidentKind::SuddenSpike {
                ramp_secs,
                magnitude,
            } => {
                let progress = ((t_secs - self.start_secs) / ramp_secs).min(1.0);
                1.0 + (magnitude - 1.0) * progress
            }
            IncidentKind::FeatureStep { magnitude } => magnitude,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_bug_ramps_in_three_minutes() {
        let inc = Incident::video_bug(600.0, 3600.0);
        assert_eq!(inc.factor_at(0.0), 1.0, "before start");
        assert!((inc.factor_at(600.0) - 1.0).abs() < 1e-9, "ramp begins at 1");
        assert!((inc.factor_at(690.0) - 1.25).abs() < 1e-9, "halfway up at 90s");
        assert!((inc.factor_at(780.0) - 1.5).abs() < 1e-9, "peak at 3 min");
        assert!((inc.factor_at(2000.0) - 1.5).abs() < 1e-9, "holds peak");
        assert_eq!(inc.factor_at(4200.0), 1.0, "after mitigation");
    }

    #[test]
    fn feature_step_applies_at_once() {
        // Incident 2: a +10% surge from a caching change.
        let inc = Incident {
            start_secs: 100.0,
            end_secs: 300.0,
            kind: IncidentKind::FeatureStep { magnitude: 1.1 },
        };
        assert_eq!(inc.factor_at(99.9), 1.0);
        assert!((inc.factor_at(100.0) - 1.1).abs() < 1e-9);
        assert!((inc.factor_at(250.0) - 1.1).abs() < 1e-9);
        assert_eq!(inc.factor_at(300.0), 1.0);
    }

    #[test]
    fn spike_magnitude_matches_paper() {
        // Paper: peak volume was 50% more than predicted.
        let inc = Incident::video_bug(0.0, 1000.0);
        let peak = (0..1000).map(|t| inc.factor_at(t as f64)).fold(0.0, f64::max);
        assert!((peak - 1.5).abs() < 1e-9);
    }
}
