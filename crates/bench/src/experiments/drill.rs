//! Figs 11–17: the end-to-end enforcement drill. This module wraps
//! [`entitlement_enforcement::drill::run_drill_with`] and slices the
//! recorder into the seven figures.

use entitlement_enforcement::drill::{run_drill_with, DrillConfig};
use entitlement_enforcement::MarkingStrategy;
use entitlement_obs::Obs;
use entitlement_simnet::Recorder;
use entitlement_slo::{watch::WatchEvaluator, SloEvaluator};
use serde::{Deserialize, Serialize};

/// All drill series (times in minutes).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DrillResult {
    /// Sample times, minutes.
    pub minutes: Vec<f64>,
    /// Fig 11.
    pub loss_conf: Vec<f64>,
    /// Fig 11.
    pub loss_nonconf: Vec<f64>,
    /// Fig 12.
    pub rate_total_tbps: Vec<f64>,
    /// Fig 12.
    pub rate_conform_tbps: Vec<f64>,
    /// Fig 12.
    pub rate_entitled_tbps: Vec<f64>,
    /// Fig 13.
    pub rtt_conf_ms: Vec<f64>,
    /// Fig 13.
    pub rtt_nonconf_ms: Vec<f64>,
    /// Fig 14.
    pub syn_conf: Vec<f64>,
    /// Fig 14.
    pub syn_nonconf: Vec<f64>,
    /// Fig 15.
    pub read_latency_s: Vec<f64>,
    /// Fig 16.
    pub write_latency_s: Vec<f64>,
    /// Fig 17.
    pub block_errors: Vec<f64>,
}

fn slice(r: &Recorder) -> DrillResult {
    DrillResult {
        minutes: r.times.iter().map(|t| t / 60.0).collect(),
        loss_conf: r.series("loss_conf"),
        loss_nonconf: r.series("loss_nonconf"),
        rate_total_tbps: r.series("rate_total_tbps"),
        rate_conform_tbps: r.series("rate_conform_tbps"),
        rate_entitled_tbps: r.series("rate_entitled_tbps"),
        rtt_conf_ms: r.series("rtt_conf_ms"),
        rtt_nonconf_ms: r.series("rtt_nonconf_ms"),
        syn_conf: r.series("syn_conf"),
        syn_nonconf: r.series("syn_nonconf"),
        read_latency_s: r.series("read_latency_s"),
        write_latency_s: r.series("write_latency_s"),
        block_errors: r.series("block_errors"),
    }
}

/// Run the drill with the default (paper) timeline. Agent-cycle spans,
/// KV latency histograms, staleness metrics and the two health folds'
/// events land in `obs`; nobody reads the folds' reports here.
pub fn run(strategy: MarkingStrategy, obs: &Obs) -> DrillResult {
    let config = DrillConfig {
        strategy,
        ..Default::default()
    };
    slice(&run_drill_with(
        &config,
        obs,
        &mut SloEvaluator::default(),
        &mut WatchEvaluator::default(),
    ))
}

impl DrillResult {
    /// Render all seven figures.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let n = 26;
        let xs = super::downsample(&self.minutes, n);
        type Row<'a> = (&'a str, &'a str, &'a Vec<f64>, Option<&'a Vec<f64>>);
        let pairs: [Row<'_>; 7] = [
            ("Fig 11: packet loss ratio", "conf / nonconf", &self.loss_conf, Some(&self.loss_nonconf)),
            ("Fig 12: traffic rate (Tbps)", "total / conform", &self.rate_total_tbps, Some(&self.rate_conform_tbps)),
            ("Fig 12b: entitled rate (Tbps)", "entitled", &self.rate_entitled_tbps, None),
            ("Fig 13: RTT (ms)", "conf / nonconf", &self.rtt_conf_ms, Some(&self.rtt_nonconf_ms)),
            ("Fig 14: SYN transmissions", "conf / nonconf", &self.syn_conf, Some(&self.syn_nonconf)),
            ("Fig 15/16: app latency (s)", "read / write", &self.read_latency_s, Some(&self.write_latency_s)),
            ("Fig 17: block write errors", "errors", &self.block_errors, None),
        ];
        for (title, label, a, b) in pairs {
            let da = super::downsample(a, n);
            match b {
                Some(b) => {
                    let db = super::downsample(b, n);
                    out.push_str(&super::render_multi(title, "minute", &xs, &[(label, &da), ("", &db)]));
                }
                None => out.push_str(&super::render_series(title, "minute", label, &xs, &da)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drill's own shape assertions live in
    /// `entitlement_enforcement::drill`; here we check the harness
    /// plumbing and the flow-based ablation's contrast.
    #[test]
    fn host_based_reads_recover_at_full_drop_but_flow_based_do_not() {
        let host = run(MarkingStrategy::HostBased, &Obs::disabled());
        let flow = run(MarkingStrategy::FlowBased, &Obs::disabled());
        let window = |r: &DrillResult, series: fn(&DrillResult) -> &Vec<f64>, a: f64, b: f64| {
            let vals: Vec<f64> = r
                .minutes
                .iter()
                .zip(series(r))
                .filter(|(&m, _)| m >= a && m < b)
                .map(|(_, &v)| v)
                .collect();
            entitlement_core::stats::mean(&vals)
        };
        // Host-based: reads fail over per host. At the 100% stage the
        // marked hosts are cleanly dead and latency falls back toward the
        // 50%-stage level or below (Fig 15).
        let host_50 = window(&host, |r| &r.read_latency_s, 115.0, 145.0);
        let host_100 = window(&host, |r| &r.read_latency_s, 170.0, 220.0);
        assert!(host_100 < host_50, "host-based recovers: {host_100} vs {host_50}");
        // Flow-based: every host keeps a slice of dead flows, failover
        // cannot route around them, so the 100% stage stays at least as
        // painful relative to its own 50% stage.
        let flow_50 = window(&flow, |r| &r.read_latency_s, 115.0, 145.0);
        let flow_100 = window(&flow, |r| &r.read_latency_s, 170.0, 220.0);
        let host_ratio = host_100 / host_50;
        let flow_ratio = flow_100 / flow_50;
        assert!(
            flow_ratio > host_ratio,
            "flow-based {flow_ratio} should fare worse than host-based {host_ratio}"
        );
    }
}
