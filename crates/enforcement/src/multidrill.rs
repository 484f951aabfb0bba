//! Multi-service enforcement on a shared bottleneck.
//!
//! The §6 drill tracks one service; production enforces *every* service's
//! contract simultaneously and independently (one agent instance per
//! (NPG, QoS), §5.3 fn 2). This harness runs N services with their own
//! contracts, meters, and markers against one strict-priority bottleneck
//! and lets tests assert the system-level guarantees:
//!
//! * each service's conforming rate converges to *its own* entitlement;
//! * a service under its entitlement is never marked at all;
//! * conforming traffic sees no loss as long as the sum of entitlements
//!   fits the capacity — the planning-side invariant the approval engine
//!   is responsible for.

use crate::marking::{Marker, MarkingStrategy};
use crate::metering::{Meter, StatefulMeter};
use entitlement_core::{NpgId, Rate};
use entitlement_simnet::tcp::PROBE_FLOOR;
use entitlement_simnet::{Bottleneck, Recorder};
use entitlement_workload::TrafficPattern;
use serde::{Deserialize, Serialize};

/// One enforced service.
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    /// Service id (series are labeled by it).
    pub npg: NpgId,
    /// Offered demand at pattern factor 1.
    pub base_rate: Rate,
    /// Traffic shape.
    pub pattern: TrafficPattern,
    /// The contracted rate.
    pub entitled: Rate,
    /// Simulated host count (marking granularity).
    pub hosts: usize,
}

/// Shared bottleneck capacity, Tbps.
const CAPACITY_TBPS: f64 = 10.0;

/// Harness configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MultiDrillConfig {
    /// Tick length, seconds.
    pub dt_secs: f64,
    /// Duration, seconds.
    pub duration_secs: f64,
}

impl Default for MultiDrillConfig {
    fn default() -> Self {
        MultiDrillConfig {
            dt_secs: 30.0,
            duration_secs: 3600.0,
        }
    }
}

/// Run the multi-service enforcement loop.
///
/// Recorded series per service `i` (`svc<i>_` prefix):
/// `conform_tbps`, `nonconf_tbps`, `offered_tbps`, `marked_fraction`;
/// plus global `loss_conf` and `loss_nonconf`.
pub fn run_multi_drill(services: &[ServiceSpec], config: &MultiDrillConfig) -> Recorder {
    let bottleneck = Bottleneck {
        capacity: Rate::tbps(CAPACITY_TBPS),
        ..Default::default()
    };
    let mut meters: Vec<StatefulMeter> = services.iter().map(|_| StatefulMeter::new()).collect();
    let markers: Vec<Marker> = services
        .iter()
        .map(|_| Marker::new(MarkingStrategy::HostBased))
        .collect();
    // Per-service last observed losses (shared queue → same values, but
    // kept per service for clarity and future per-path extensions).
    let mut last_loss = vec![(0.0f64, 0.0f64); services.len()];
    // Per-service marked fraction decided by its agent.
    let mut marked = vec![0.0f64; services.len()];

    let mut recorder = Recorder::new();
    let ticks = (config.duration_secs / config.dt_secs) as usize;
    for k in 0..ticks {
        let t = k as f64 * config.dt_secs;

        // Each service's sending rates under its marking + feedback.
        let throttle = |loss: f64| (1.0 - loss).max(PROBE_FLOOR);
        let mut conf_sent = vec![Rate::ZERO; services.len()];
        let mut nonconf_sent = vec![Rate::ZERO; services.len()];
        let mut offered_v = vec![Rate::ZERO; services.len()];
        for (i, s) in services.iter().enumerate() {
            let offered = s.base_rate * s.pattern.factor_at(t);
            offered_v[i] = offered;
            conf_sent[i] = offered * (1.0 - marked[i]) * throttle(last_loss[i].0);
            nonconf_sent[i] = offered * marked[i] * throttle(last_loss[i].1);
        }
        let conf_total: Rate = conf_sent.iter().copied().sum();
        let nonconf_total: Rate = nonconf_sent.iter().copied().sum();
        let outcome = bottleneck.serve(t, conf_total, nonconf_total);

        recorder.tick(t);
        recorder.record("loss_conf", outcome.conf_loss);
        recorder.record("loss_nonconf", outcome.nonconf_loss);

        // Agents observe their own aggregates and decide next marking.
        for (i, s) in services.iter().enumerate() {
            last_loss[i] = (outcome.conf_loss, outcome.nonconf_loss);
            let total = conf_sent[i] + nonconf_sent[i];
            let cr = meters[i].update(total, conf_sent[i], s.entitled);
            marked[i] = markers[i].command(cr, s.hosts).marked_fraction(s.hosts);

            recorder.record(&format!("svc{i}_conform_tbps"), conf_sent[i].as_tbps());
            recorder.record(&format!("svc{i}_nonconf_tbps"), nonconf_sent[i].as_tbps());
            recorder.record(&format!("svc{i}_offered_tbps"), offered_v[i].as_tbps());
            recorder.record(&format!("svc{i}_marked_fraction"), marked[i]);
        }
    }
    recorder
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(npg: u32, base_t: f64, entitled_t: f64, pattern: TrafficPattern) -> ServiceSpec {
        ServiceSpec {
            npg: NpgId(npg),
            base_rate: Rate::tbps(base_t),
            pattern,
            entitled: Rate::tbps(entitled_t),
            hosts: 500,
        }
    }

    fn steady_mean(r: &Recorder, name: &str) -> f64 {
        let half = r.times.last().copied().unwrap_or(0.0) / 2.0;
        r.window_mean(name, half, f64::INFINITY)
    }

    #[test]
    fn each_service_converges_to_its_own_entitlement() {
        // Three services with different contracts, all over-demanding.
        let services = vec![
            svc(0, 4.0, 2.0, TrafficPattern::Flat),
            svc(1, 3.0, 1.0, TrafficPattern::Flat),
            svc(2, 2.0, 1.5, TrafficPattern::Flat),
        ];
        let r = run_multi_drill(&services, &MultiDrillConfig::default());
        for (i, s) in services.iter().enumerate() {
            let conform = steady_mean(&r, &format!("svc{i}_conform_tbps"));
            assert!(
                (conform - s.entitled.as_tbps()).abs() < 0.15 * s.entitled.as_tbps(),
                "svc{i}: conform {conform} vs entitled {}",
                s.entitled.as_tbps()
            );
        }
    }

    #[test]
    fn under_entitled_service_is_never_marked() {
        let services = vec![
            svc(0, 5.0, 2.0, TrafficPattern::Flat), // misbehaving
            svc(1, 1.0, 3.0, TrafficPattern::Flat), // well within contract
        ];
        let r = run_multi_drill(&services, &MultiDrillConfig::default());
        let marked1 = r.series("svc1_marked_fraction");
        assert!(
            marked1.iter().all(|&m| m == 0.0),
            "the conforming service must never be marked"
        );
        // And with entitlements (2 + 3) under the 10T capacity, conforming
        // traffic never sees loss.
        assert!(r.series("loss_conf").iter().all(|&l| l < 1e-9));
    }

    #[test]
    fn diurnal_service_unthrottles_off_peak() {
        // Entitled at its mean rate: marked at peak, unmarked in trough.
        let services = vec![svc(
            0,
            4.0,
            4.2,
            TrafficPattern::Diurnal {
                amplitude: 0.3,
                phase: 0.0,
            },
        )];
        let r = run_multi_drill(
            &services,
            &MultiDrillConfig {
                duration_secs: 86_400.0,
                dt_secs: 300.0,
            },
        );
        let marked = r.series("svc0_marked_fraction");
        let peak_window = r.window_mean("svc0_marked_fraction", 0.15 * 86_400.0, 0.35 * 86_400.0);
        let trough_window = r.window_mean("svc0_marked_fraction", 0.65 * 86_400.0, 0.85 * 86_400.0);
        assert!(
            peak_window > 0.02,
            "peak demand exceeds the contract: {peak_window}"
        );
        assert!(
            trough_window < 0.01,
            "trough demand fits, marking clears: {trough_window}"
        );
        assert!(marked.iter().all(|&m| (0.0..=1.0).contains(&m)));
    }

    #[test]
    fn oversubscribed_contracts_still_protect_within_class() {
        // Entitlements sum over capacity (the approval engine should not
        // have allowed this, but enforcement must still behave sanely):
        // conforming loss appears, yet every service's conforming rate is
        // bounded by its contract.
        let services = vec![
            svc(0, 8.0, 7.0, TrafficPattern::Flat),
            svc(1, 7.0, 6.0, TrafficPattern::Flat),
        ];
        let r = run_multi_drill(&services, &MultiDrillConfig::default());
        for (i, s) in services.iter().enumerate() {
            let conform = steady_mean(&r, &format!("svc{i}_conform_tbps"));
            assert!(
                conform <= s.entitled.as_tbps() * 1.1,
                "svc{i} conform {conform} capped by contract"
            );
        }
        let conf_loss = steady_mean(&r, "loss_conf");
        assert!(conf_loss > 0.0, "oversubscription shows up as conf loss");
    }
}
