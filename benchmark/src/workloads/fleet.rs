//! `fleet_cycle`: the sharded enforcement engine at fleet scale.

use crate::harness::{best_mean_s, cores, Metrics, Mode, Rep, Scale, Workload};
use crate::stats::Digest;
use crate::trace::Recorder;
use crate::workloads::admit::WORLD_SEED;
use network_entitlement::core::{DetRng, Rate};
use network_entitlement::enforcement::{
    host_demand_bps, run_fleet_engine, FleetConfig, FleetOutcome, FleetStrategy, ShardPlan,
    StatefulMeter,
};
use network_entitlement::kvstore::{ShardFanout, ShardedStore, StoreConfig};
use network_entitlement::obs::Obs;
use network_entitlement::slo::{IntervalObs, SloEvaluator, SloPolicy};
use network_entitlement::watch::{CycleObs, WatchEvaluator, WatchPolicy};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Offered load over entitled rate: under, at, over, far over.
const REGIMES: [f64; 4] = [0.5, 1.0, 2.0, 10.0];
const CYCLES: usize = 8;

pub struct FleetCycle {
    /// One engine call each: 4 load regimes x 2 demand streams drawn
    /// from the world seed, in an order drawn from the run seed.
    calls: Vec<Call>,
}

struct Call {
    config: FleetConfig,
    /// Sum of `host_demand_bps` over the fleet, computed in set-up: the
    /// oracle the engine's own `demand_bps` is held to, and what makes
    /// each regime exact for every seed.
    offered_bps: f64,
}

fn shape(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (1_000_000, 256),
        Scale::Mini => (50_000, 64),
    }
}

impl Workload for FleetCycle {
    const NAME: &'static str = "fleet_cycle";
    const WORK_ITEM: &'static str = "host-cycles";
    const SEGMENT: usize = 1;

    fn build(seed: u64, scale: Scale, rec: &mut Recorder) -> Self {
        let (hosts, shards) = shape(scale);
        rec.time("enforcement.shard_plan", || ShardPlan::new(hosts, shards))
            .expect("a valid fleet shape");
        let per_host_rate = Rate::gbps(1.0);
        let mut world = DetRng::new(WORLD_SEED);
        let mut calls = Vec::new();
        for _ in 0..2 {
            let demand_seed = world.next_u64();
            let offered_bps: f64 = rec.time("enforcement.host_demand", || {
                (0..hosts as u32)
                    .map(|h| host_demand_bps(demand_seed, per_host_rate, h))
                    .sum()
            });
            for regime in REGIMES {
                calls.push(Call {
                    config: FleetConfig {
                        hosts,
                        shards,
                        cycles: CYCLES,
                        entitled: Rate::bps(offered_bps / regime),
                        per_host_rate,
                        seed: demand_seed,
                        ..FleetConfig::default()
                    },
                    offered_bps,
                });
            }
        }
        DetRng::new(seed).shuffle(&mut calls);
        FleetCycle { calls }
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::new();
        for c in &self.calls {
            d.word(c.config.seed);
            d.word(c.config.hosts as u64);
            d.word(c.config.shards as u64);
            d.f64(c.config.entitled.as_bps());
            d.f64(c.offered_bps);
        }
        d.finish()
    }

    fn rep(&self, mut mode: Mode<'_, '_>) -> Rep {
        let mut rep = Rep::default();
        let mut digest = Digest::new();
        let mut yield_sum = 0.0;
        let mut traced_ns = 0;
        for call in &self.calls {
            let outcome = match &mut mode {
                Mode::Throughput(timers) | Mode::Latency(timers) => {
                    timers.time(|| run_fleet_engine(&call.config))
                }
                Mode::Traced(rec) => {
                    let t = Instant::now();
                    let o = rec.time("enforcement.run_fleet_engine", || {
                        run_fleet_engine(&call.config)
                    });
                    traced_ns += t.elapsed().as_nanos() as u64;
                    o
                }
            };
            // Judged, folded and dropped outside the timer.
            rep.ops += 1;
            rep.work += (call.config.hosts * call.config.cycles) as u64;
            match outcome {
                Ok(o) => {
                    rep.failed += u64::from(!sound(call, &o));
                    yield_sum += fold(&mut digest, call, &o);
                }
                Err(_) => rep.failed += 1,
            }
        }
        rep.timed_s = match &mode {
            Mode::Throughput(timers) | Mode::Latency(timers) => timers.total_s(),
            Mode::Traced(_) => traced_ns as f64 / 1e9,
        };
        rep.yield_share = yield_sum / self.calls.len() as f64;
        rep.digest = digest.finish();
        rep
    }

    fn layers(&self, _rec: &mut Recorder, out: &mut Metrics) {
        // The at-entitlement regime: every host metered, none marked.
        let call = self
            .calls
            .iter()
            .find(|c| c.config.entitled.as_bps() == c.offered_bps)
            .expect("regime 1.0 is in the mix");
        let hosts = call.config.hosts;
        let run = |config: &FleetConfig| {
            let t = Instant::now();
            let o = run_fleet_engine(config).expect("a valid fleet shape");
            (t.elapsed().as_secs_f64(), o)
        };
        // Two-point: T(cycles) = state build + cycles x cycle.
        let two_point = |config: &FleetConfig| {
            let (short, _) = run(&FleetConfig {
                cycles: 8,
                ..config.clone()
            });
            let (long, o) = run(&FleetConfig {
                cycles: 32,
                ..config.clone()
            });
            let cycle_s = (long - short) / 24.0;
            (short - 8.0 * cycle_s, cycle_s, o)
        };
        let (build_s, cycle_s, outcome) = two_point(&call.config);
        out.set("enforcement.state_build_ms", build_s * 1e3);
        out.set("enforcement.cycle_ms", cycle_s * 1e3);
        out.set("enforcement.host_cycle_ns", cycle_s * 1e9 / hosts as f64);
        out.set("kvstore.fanout_reads", outcome.fanout_reads as f64 / 32.0);

        // The meter pass alone, on the engine's own final state.
        let entitled = call.config.entitled.as_bps();
        let mut ratios = outcome.conform_ratios;
        let meter_s = best_mean_s(3, 1, || {
            for cr in &mut ratios {
                *cr = StatefulMeter::update_value(*cr, call.offered_bps, entitled, entitled, 2.0);
            }
            black_box(&ratios);
        });
        out.set("enforcement.meter_update_ns", meter_s * 1e9 / hosts as f64);

        // What one more shard costs a cycle: same hosts, 64x the shards.
        let small = hosts / 16;
        let (few, many) = (small / 1024, small / 16);
        let at = |shards| {
            two_point(&FleetConfig {
                hosts: small,
                shards,
                ..call.config.clone()
            })
            .1
        };
        out.set(
            "enforcement.shard_cycle_us",
            (at(many) - at(few)) * 1e6 / (many - few) as f64,
        );

        // Deterministic vs parallel at the workload's shape.
        let (det_s, det) = run(&call.config);
        let (par_s, par) = run(&FleetConfig {
            strategy: FleetStrategy::Parallel,
            workers: cores(),
            ..call.config.clone()
        });
        assert!(
            same_bits(&det, &par),
            "det and par fleet outcomes must be bit-equal"
        );
        out.set("enforcement.par_speedup_x", det_s / par_s);

        // The store under the engine: one cycle's publish and fold.
        let shards = call.config.shards;
        let store = ShardedStore::new(StoreConfig {
            shards,
            ttl: Duration::from_secs(4),
        });
        let entries: Vec<[(String, f64); 2]> = (0..shards)
            .map(|s| {
                [
                    (format!("rates/7/c2/total/s{s}"), 1e9),
                    (format!("rates/7/c2/conform/s{s}"), 9e8),
                ]
            })
            .collect();
        let put_s = best_mean_s(5, 20, || {
            for (s, batch) in entries.iter().enumerate() {
                store.put_shard_batch(s, batch, 1000);
            }
        });
        out.set("kvstore.put_shard_batch_us", put_s * 1e6 / shards as f64);
        let mut fanout = ShardFanout::new(shards, 1000);
        let refresh_s = best_mean_s(5, 20, || {
            black_box(fanout.refresh(&store, "rates/7/c2/total/", 1000));
        });
        out.set("kvstore.fanout_refresh_us", refresh_s * 1e6);

        // The per-cycle read-side folds.
        let disabled = Obs::disabled();
        let mut slo = SloEvaluator::new(SloPolicy::default());
        let interval = IntervalObs {
            entity: "npg:7".to_string(),
            qos: "c2".to_string(),
            target: 0.99,
            demand_bps: call.offered_bps,
            delivered_bps: entitled,
            approved_bps: entitled,
            measurable: true,
        };
        out.set(
            "slo.observe_us",
            best_mean_s(3, 10_000, || slo.observe(&disabled, &interval)) * 1e6,
        );
        let mut watchdog = WatchEvaluator::new(WatchPolicy::default());
        let cycle = CycleObs {
            entity: "npg:7".to_string(),
            qos: "c2".to_string(),
            demand_bps: call.offered_bps,
            delivered_bps: entitled,
            approved_bps: entitled,
            marked_fraction: 0.0,
            conform_fraction: 1.0,
            staleness_ms: 0.0,
            measurable: true,
        };
        out.set(
            "watch.observe_cycle_us",
            best_mean_s(3, 10_000, || watchdog.observe_cycle(&disabled, &cycle)) * 1e6,
        );
    }
}

/// The engine's contract on a healthy run: a finite marked fraction in
/// `[0, 1]`, the store's final aggregate equal to the offered demand,
/// and that demand equal to the set-up oracle's.
fn sound(call: &Call, o: &FleetOutcome) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
    o.marked_fraction.is_finite()
        && (0.0..=1.0).contains(&o.marked_fraction)
        && close(o.final_total, o.demand_bps)
        && close(o.demand_bps, call.offered_bps)
        && o.cycles.len() == call.config.cycles
}

/// Fold an outcome into the digest; returns its yield: conforming
/// delivered over `min(offered, entitled)` at the last cycle.
fn fold(digest: &mut Digest, call: &Call, o: &FleetOutcome) -> f64 {
    digest.f64(o.marked_fraction);
    digest.f64(o.final_total);
    digest.f64(o.demand_bps);
    digest.word(o.fanout_reads);
    digest.word(o.fail_static_cycles);
    for c in &o.cycles {
        digest.f64(c.live_total);
        digest.f64(c.live_conform);
        digest.f64(c.marked_fraction);
    }
    for &cr in &o.conform_ratios {
        digest.f64(cr);
    }
    let delivered = o.cycles.last().map_or(0.0, |c| c.live_conform);
    delivered / o.demand_bps.min(call.config.entitled.as_bps())
}

fn same_bits(a: &FleetOutcome, b: &FleetOutcome) -> bool {
    a.final_total.to_bits() == b.final_total.to_bits()
        && a.marked_fraction.to_bits() == b.marked_fraction.to_bits()
        && a.conform_ratios.len() == b.conform_ratios.len()
        && a.conform_ratios
            .iter()
            .zip(&b.conform_ratios)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
