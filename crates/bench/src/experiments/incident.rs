//! Fig 4 & 5: a misbehaving service (the video-client bug) forms a +50%
//! traffic spike within three minutes and, without entitlement
//! enforcement, induces loss on *all* traffic of the QoS classes it
//! occupies — up to ~8% in Class A and ~2% in Class B.
//!
//! QoS isolation protects classes from each other, so each class is
//! modeled as its own (already highly utilized) queue; the misbehaving
//! service has most of its traffic in Class A and some in Class B.

use std::fmt::Write as _;
use entitlement_core::Rate;
use entitlement_simnet::{Bottleneck, MarkingCommand, World, WorldConfig};
use entitlement_workload::Incident;
use serde::{Deserialize, Serialize};

/// The incident experiment's series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IncidentResult {
    /// Sample times, minutes.
    pub minutes: Vec<f64>,
    /// The misbehaving service's offered rate (Fig 4), Tbps.
    pub service_rate_tbps: Vec<f64>,
    /// Network-wide loss ratio of Class A traffic (Fig 5).
    pub class_a_loss: Vec<f64>,
    /// Network-wide loss ratio of Class B traffic (Fig 5).
    pub class_b_loss: Vec<f64>,
    /// Peak losses.
    pub peak_a_loss: f64,
    /// Peak Class-B loss.
    pub peak_b_loss: f64,
}

/// Run the incident without enforcement.
pub fn run(seed: u64) -> IncidentResult {
    // Class A: misbehaving service is 30% of a 10T class at 95%
    // utilization; Class B: it contributes 10% of an 8T class at 90%.
    let incident = Incident::video_bug(1200.0, 4800.0); // starts at 20 min
    let dt = 30.0;
    let duration = 7200.0; // 2 hours

    let mk_world = |base: Rate, cap: Rate, seed: u64| {
        World::new(
            WorldConfig {
                hosts: 200,
                base_rate: base,
                dt_secs: dt,
                seed,
            },
            Bottleneck {
                capacity: cap,
                ..Default::default()
            },
        )
    };

    // Class A: steady background 6.65T + misbehaving 2.85T = 9.5T of
    // 10T; the spike pushes it to ~10.9T (≈ 8% overflow).
    let mut world_a_bg = mk_world(Rate::tbps(6.65), Rate::tbps(10.0), seed);
    let mut world_a_bad = mk_world(Rate::tbps(2.85), Rate::tbps(10.0), seed ^ 1);
    world_a_bad.set_demand_multiplier(move |t| incident.factor_at(t));
    // Class B: background 7.0T + misbehaving 0.8T = 7.8T of 8T; the
    // +50% spike pushes it to ~8.2T.
    let mut world_b_bg = mk_world(Rate::tbps(7.0), Rate::tbps(8.0), seed ^ 2);
    let mut world_b_bad = mk_world(Rate::tbps(0.8), Rate::tbps(8.0), seed ^ 3);
    world_b_bad.set_demand_multiplier(move |t| incident.factor_at(t));

    let shared_a = Bottleneck {
        capacity: Rate::tbps(10.0),
        ..Default::default()
    };
    let shared_b = Bottleneck {
        capacity: Rate::tbps(8.0),
        ..Default::default()
    };

    let mut out = IncidentResult {
        minutes: Vec::new(),
        service_rate_tbps: Vec::new(),
        class_a_loss: Vec::new(),
        class_b_loss: Vec::new(),
        peak_a_loss: 0.0,
        peak_b_loss: 0.0,
    };

    let ticks = (duration / dt) as usize;
    for k in 0..ticks {
        let t = k as f64 * dt;
        // Each class's queue carries background + misbehaving traffic
        // together; no enforcement, everything is "conforming".
        let a_bg = world_a_bg.step(t, &MarkingCommand::None);
        let a_bad = world_a_bad.step(t, &MarkingCommand::None);
        let b_bg = world_b_bg.step(t, &MarkingCommand::None);
        let b_bad = world_b_bad.step(t, &MarkingCommand::None);

        let a = shared_a.serve(t, a_bg.total_sent + a_bad.total_sent, Rate::ZERO);
        let b = shared_b.serve(t, b_bg.total_sent + b_bad.total_sent, Rate::ZERO);

        out.minutes.push(t / 60.0);
        out.service_rate_tbps
            .push((a_bad.offered + b_bad.offered).as_tbps());
        out.class_a_loss.push(a.conf_loss);
        out.class_b_loss.push(b.conf_loss);
        out.peak_a_loss = out.peak_a_loss.max(a.conf_loss);
        out.peak_b_loss = out.peak_b_loss.max(b.conf_loss);
    }
    out
}

impl IncidentResult {
    /// Render Fig 4 and Fig 5 series.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let xs = super::downsample(&self.minutes, 24);
        let rate = super::downsample(&self.service_rate_tbps, 24);
        out.push_str(&super::render_series(
            "Fig 4: misbehaving service rate (Tbps)",
            "minute",
            "rate",
            &xs,
            &rate,
        ));
        let a = super::downsample(&self.class_a_loss, 24);
        let b = super::downsample(&self.class_b_loss, 24);
        out.push_str(&super::render_multi(
            "Fig 5: loss induced on two QoS classes",
            "minute",
            &xs,
            &[("classA_loss", &a), ("classB_loss", &b)],
        ));
        let _ = writeln!(out, 
            "peak loss: classA {:.1}%, classB {:.1}%",
            self.peak_a_loss * 100.0,
            self.peak_b_loss * 100.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spike_forms_within_three_minutes() {
        let r = run(5);
        // Find the service rate before and at the top of the ramp.
        let before = r.service_rate_tbps[30]; // minute 15
        let after = r.service_rate_tbps[50]; // minute 25
        assert!(
            (after / before - 1.5).abs() < 0.1,
            "spike magnitude {}",
            after / before
        );
    }

    #[test]
    fn loss_shape_matches_fig5() {
        let r = run(5);
        // No loss before the incident.
        assert!(r.class_a_loss[..35].iter().all(|&l| l < 0.01));
        // Class A suffers several percent, Class B less, both bounded.
        assert!(
            (0.02..0.15).contains(&r.peak_a_loss),
            "classA peak {}",
            r.peak_a_loss
        );
        assert!(
            (0.005..0.08).contains(&r.peak_b_loss),
            "classB peak {}",
            r.peak_b_loss
        );
        assert!(r.peak_a_loss > r.peak_b_loss, "A hit harder than B");
        // Loss clears after mitigation (incident ends at minute 100).
        let tail = &r.class_a_loss[r.class_a_loss.len() - 20..];
        assert!(tail.iter().all(|&l| l < 0.01), "loss clears: {tail:?}");
    }
}
