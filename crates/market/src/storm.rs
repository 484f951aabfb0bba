//! Seeded admission storms: deterministic load for benchmarking and
//! byte-identical trace replay, one `market`/`admit` event per
//! admission.

use crate::market::{AdmitDecision, AdmitOutcome, AdmitPath, AdmitRequest, EntitlementMarket};
use crate::slice::SliceId;
use entitlement_core::{DetRng, NpgId, QosBucket, Rate};
use entitlement_obs::Obs;
use entitlement_slo::watch::{AdmitObs, WatchEvaluator};
use entitlement_topology::LinkId;
use serde::{Deserialize, Serialize};

/// Parameters of a deterministic admission storm.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StormConfig {
    /// Number of admission requests.
    pub requests: usize,
    /// RNG seed; identical seeds produce identical storms.
    pub seed: u64,
    /// Distinct NPGs issuing requests.
    pub npgs: u32,
    /// Largest single ask, Gbps (asks are uniform in `(0, max]`).
    pub max_ask_gbps: f64,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            requests: 10_000,
            seed: 0x1360,
            npgs: 32,
            max_ask_gbps: 5.0,
        }
    }
}

/// Generate the storm's request sequence. Pure function of the config
/// and the market's topology/grid/buckets — no wall clock, no global
/// state.
pub fn generate_storm(
    market: &EntitlementMarket,
    buckets: &[QosBucket],
    config: &StormConfig,
) -> Vec<AdmitRequest> {
    let mut rng = DetRng::new(config.seed);
    let dcs = market.topology().dc_ids();
    let slices: Vec<SliceId> = market.grid().slices().collect();
    let mut out = Vec::with_capacity(config.requests);
    for _ in 0..config.requests {
        let si = rng.usize(dcs.len());
        // Uniform over destinations excluding the source.
        let mut di = rng.usize(dcs.len() - 1);
        if di >= si {
            di += 1;
        }
        let (src, dst) = (dcs[si], dcs[di]);
        out.push(AdmitRequest {
            npg: NpgId(rng.usize(config.npgs.max(1) as usize) as u32),
            bucket: buckets[rng.usize(buckets.len())],
            slice: slices[rng.usize(slices.len())],
            src,
            dst,
            ask: Rate::gbps(rng.range(0.0, config.max_ask_gbps).max(1e-3)),
        });
    }
    out
}

/// Aggregate results of a storm run.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct StormReport {
    /// Requests served.
    pub requests: usize,
    /// Fully granted.
    pub granted: usize,
    /// Partially granted.
    pub partial: usize,
    /// Denied.
    pub denied: usize,
    /// Served off the warm index.
    pub index_path: usize,
    /// Served by a sweep (cold, stale, or exhausted slot).
    pub sweep_path: usize,
    /// Total rate granted, Gbps.
    pub granted_gbps: f64,
}

impl StormReport {
    /// Fold one decision into the tallies.
    pub fn tally(&mut self, d: &AdmitDecision) {
        self.requests += 1;
        match d.outcome {
            AdmitOutcome::Granted => self.granted += 1,
            AdmitOutcome::Partial => self.partial += 1,
            AdmitOutcome::Denied => self.denied += 1,
        }
        match d.path {
            AdmitPath::Index => self.index_path += 1,
            AdmitPath::Sweep => self.sweep_path += 1,
        }
        self.granted_gbps += d.granted.as_gbps();
    }
}

/// Drive a storm through the market, tallying outcomes and paths and
/// feeding the caller's watchdog fold.
///
/// The caller builds `watch` under whatever policy it wants and reads
/// `report()` afterwards. Every admission feeds it one [`AdmitObs`] —
/// the W0103 residual-monotonicity monitor (bit-exact against the
/// index's own bps arithmetic) and the W0107 admit-latency CUSUM —
/// emitting any `watch`/`violation` and `watch`/`fire`|`clear` trace
/// events into `obs`. The observation is on the wire once, as the
/// admit's `market`/`admit` span, so re-folding the saved trace with
/// `fold_trace` reproduces the report byte for byte. Its latency is the
/// one [`EntitlementMarket::last_admit_ms`] reads; the storm reads no
/// clock. Under a counting clock a latency counts clock reads, so a
/// sweep reads slower than an index hit, and a traced sweep, whose
/// spans read the clock too, slower than an untraced one.
///
/// `cuts(i)` is the fault schedule: the links dead while request `i`
/// is served (logical time = request ordinal), handed to
/// [`EntitlementMarket::set_faults`] before the admit. `on_admit(i,
/// decision)` runs after request `i`'s watch fold, so a caller's own
/// per-admit events (the CLI's `slo`/`interval` chunks) interleave
/// with the storm's in request order.
pub fn run_storm_with(
    market: &mut EntitlementMarket,
    requests: &[AdmitRequest],
    obs: &Obs,
    watch: &mut WatchEvaluator,
    cuts: impl Fn(usize) -> Vec<LinkId>,
    mut on_admit: impl FnMut(usize, &AdmitDecision),
) -> StormReport {
    let mut report = StormReport::default();
    for (i, req) in requests.iter().enumerate() {
        market.set_faults(&cuts(i));
        let d = market.admit_obs(req, obs);
        report.tally(&d);
        watch.observe_admit(
            obs,
            &AdmitObs {
                request: i as u64,
                ask_bps: req.ask.as_bps(),
                granted_bps: d.granted.as_bps(),
                residual_before_bps: d.residual_before.as_bps(),
                residual_after_bps: d.residual_after.as_bps(),
                admit_ms: market.last_admit_ms(),
                path: d.path.as_str().to_string(),
            },
        );
        on_admit(i, &d);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::EntitlementMarket;
    use crate::slice::SliceGrid;
    use entitlement_approval::ApprovalConfig;
    use entitlement_core::Quarter;
    use entitlement_topology::BackboneSpec;

    #[test]
    fn healthy_storm_watch_is_silent_and_refolds_byte_identically() {
        let topo = BackboneSpec::small(7).build();
        let grid = SliceGrid::quarterly(Quarter(0), 30);
        let config = ApprovalConfig {
            max_cuts: 1,
            ..Default::default()
        };
        let mut market = EntitlementMarket::new(topo, grid, config);
        let buckets = QosBucket::approval_order();
        let requests = generate_storm(
            &market,
            &buckets,
            &StormConfig {
                requests: 300,
                ..Default::default()
            },
        );
        let obs = Obs::new(entitlement_obs::Clock::counting(1));
        let mut live = WatchEvaluator::default();
        let report =
            run_storm_with(&mut market, &requests, &obs, &mut live, |_| Vec::new(), |_, _| {});
        let watch = live.report();
        assert_eq!(report.requests, 300);
        assert_eq!(watch.admits, 300);
        assert!(watch.healthy(), "{}", watch.render_text());
        let mut offline = WatchEvaluator::default();
        assert_eq!(offline.fold_trace(&obs.trace.events()), []);
        assert_eq!(offline.report(), watch);
        assert_eq!(offline.report().render_json(), watch.render_json());
    }

    #[test]
    fn storms_are_deterministic_in_the_seed() {
        let topo = BackboneSpec::small(7).build();
        let grid = SliceGrid::quarterly(Quarter(0), 30);
        let config = ApprovalConfig {
            max_cuts: 1,
            ..Default::default()
        };
        let market = EntitlementMarket::new(topo, grid, config);
        let buckets = QosBucket::approval_order();
        let sc = StormConfig {
            requests: 200,
            ..Default::default()
        };
        let a = generate_storm(&market, &buckets, &sc);
        let b = generate_storm(&market, &buckets, &sc);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed, same storm"
        );
        let c = generate_storm(
            &market,
            &buckets,
            &StormConfig {
                seed: sc.seed + 1,
                ..sc
            },
        );
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&c).unwrap(),
            "different seed, different storm"
        );
        for req in &a {
            assert_ne!(req.src, req.dst, "no self-loops");
            assert!(req.ask.as_gbps() > 0.0);
        }
    }
}
