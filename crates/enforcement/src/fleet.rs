//! The sharded fleet engine: hierarchical host → shard → global
//! aggregation at 10⁵–10⁶ host scale.
//!
//! The flat daemon spawns one task per agent and has every agent poll
//! the global aggregate each cycle — O(agents) KV reads and task wakeups
//! per cycle, which tops out three orders of magnitude below the
//! production fleet (paper §6). This engine restructures the runtime as
//! an aggregation tree:
//!
//! 1. **Host pass (struct-of-arrays).** Per-host state lives in parallel
//!    vectors (`prev_conform_ratio`, `group`, `demand_bps`), and each
//!    fleet shard — a contiguous host range from [`ShardPlan`] — is
//!    folded in ascending host order into one `(total, conform)`
//!    partial: a metering cycle over 10⁶ agents is a handful of linear
//!    sweeps, not 10⁶ task wakeups. The fold is two loops per block of
//!    64 hosts — write a keep-mask, then add in host order with the
//!    demand masked on the conform side — so it has no branch on who is
//!    marked and a cycle costs the same in every load regime.
//! 2. **Shard publish.** Each shard's partial is batch-published as two
//!    keys (`…/total/s{s}`, `…/conform/s{s}`) placed directly on
//!    storage shard `s`, so a `ShardOutage` fault on storage shard `s`
//!    darkens exactly fleet shard `s`.
//! 3. **Global fold.** A [`ShardFanout`] reads each shard's partial once
//!    per cycle — O(shards) reads — and folds them in ascending shard
//!    order. The flat prefix aggregate (`…/total/`) still sees the
//!    identical global sum over the partial keys.
//! 4. **Meter pass.** Every host takes
//!    [`StatefulMeter::update_value`] of its own previous ratio and the
//!    same folded aggregates — the exact float ops the flat-path agent
//!    runs. The aggregates are fixed for the pass, so the update is
//!    recomputed only where a host's previous ratio differs in bits
//!    from the host's before it.
//!
//! # Strategies
//!
//! The same engine runs under two execution strategies
//! ([`FleetStrategy`]): `Det` executes every pass on the driver thread;
//! `Par` fans the host and meter passes out over `std::thread::scope`
//! workers. Because each shard's partial is an ascending-host-order sum
//! computed wholly by one worker, and the cross-shard fold always runs
//! on the driver in ascending shard order, the two strategies produce
//! **bit-identical** aggregates, traces, and SLO reports — proven by
//! `tests/shard_equivalence.rs`. Worker count never affects results.
//!
//! # Shard fault semantics
//!
//! Fail-static survives sharding, per shard: a dark shard's publishes
//! and fold reads fail while every healthy shard keeps serving. Within
//! the staleness bound the fold serves the dark shard's held partial
//! (healthy hosts keep metering; nobody unthrottles on a partial sum);
//! beyond it the global fold is unavailable and the whole fleet holds
//! its decision — the live (fresh-only) aggregate meanwhile degrades by
//! exactly the dark shard's contribution, which is what the per-shard
//! SLIs and the chaos matrix assert.

use crate::marking::{Marker, GROUPS};
use crate::metering::StatefulMeter;
use crate::shard::ShardPlan;
use entitlement_chaos::{ChaosStore, FaultPlan};
use entitlement_core::{DetRng, HostId, NpgId, QosClass, Rate};
use entitlement_kvstore::{
    FanoutSnapshot, KvAccess, ObservedKv, ShardFanout, ShardRead, ShardedStore, StoreConfig,
};
use entitlement_obs::Obs;
use entitlement_slo::{IntervalObs, SloEvaluator};
use entitlement_watch::{CycleObs, WatchEvaluator};
use std::sync::Arc;
use std::time::Duration;

/// How the per-cycle host and meter passes execute. Results are
/// bit-identical between the two; only wall-clock differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetStrategy {
    /// Everything on the driver thread, in deterministic order.
    Deterministic,
    /// Host/meter passes fan out over scoped threads; folds stay on
    /// the driver in shard order.
    Parallel,
}

impl FleetStrategy {
    /// Parse the CLI form: `det` or `par`.
    #[must_use]
    pub fn parse(s: &str) -> Option<FleetStrategy> {
        match s {
            "det" => Some(FleetStrategy::Deterministic),
            "par" => Some(FleetStrategy::Parallel),
            _ => None,
        }
    }

    /// The CLI form.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FleetStrategy::Deterministic => "det",
            FleetStrategy::Parallel => "par",
        }
    }
}

/// Fleet engine configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Host count.
    pub hosts: usize,
    /// Fleet shard count (also the KV store's shard count, so fault
    /// plans target fleet shards by index).
    pub shards: usize,
    /// Execution strategy.
    pub strategy: FleetStrategy,
    /// Worker threads for [`FleetStrategy::Parallel`] (0 = one per
    /// available core). Never affects results.
    pub workers: usize,
    /// Service NPG.
    pub npg: NpgId,
    /// QoS class.
    pub qos: QosClass,
    /// Entitled (approved) rate for the `(NPG, QoS)`.
    pub entitled: Rate,
    /// Mean per-host offered demand (jittered ±25% per host by seed).
    pub per_host_rate: Rate,
    /// Metering cycles to run.
    pub cycles: usize,
    /// Logical milliseconds per cycle.
    pub cycle_ms: u64,
    /// Seed for the per-host demand jitter.
    pub seed: u64,
    /// Optional fault plan (shard outages target fleet shards).
    pub faults: Option<FaultPlan>,
    /// How many cycles a dark shard's held partial may be served
    /// before the global fold goes fail-static.
    pub staleness_cycles: u64,
    /// Also feed one SLI entity per shard into the SLO evaluator
    /// (entity `npg:N/sS`, approved pro-rata by demand share).
    pub per_shard_slis: bool,
    /// SLO target for the fold.
    pub slo_target: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            hosts: 1000,
            shards: 8,
            strategy: FleetStrategy::Deterministic,
            workers: 0,
            npg: NpgId(7),
            qos: QosClass::C2,
            entitled: Rate::gbps(5000.0),
            per_host_rate: Rate::gbps(10.0), // ~10T offered vs 5T entitled
            cycles: 32,
            cycle_ms: 1000,
            seed: 0xD217,
            faults: None,
            staleness_cycles: 1,
            per_shard_slis: false,
            slo_target: 0.99,
        }
    }
}

/// Per-shard fault accounting across the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetShardStats {
    /// Partial publishes rejected by a shard outage.
    pub publish_failures: u64,
    /// Fold reads of this shard that returned `Err`.
    pub read_failures: u64,
    /// Cycles this shard's partial was served from the held copy.
    pub held_serves: u64,
}

/// One cycle's observable state, for tests and SLIs.
#[derive(Clone, Debug)]
pub struct FleetCycleStats {
    /// Logical cycle timestamp.
    pub now_ms: u64,
    /// Fresh per-shard total partials (`None` = shard read failed).
    pub shard_totals: Vec<Option<f64>>,
    /// Fresh per-shard conform partials.
    pub shard_conforms: Vec<Option<f64>>,
    /// The `(total, conform)` the meter pass ran on; `None` = the
    /// fold was unavailable and the fleet held (fail-static).
    pub metered: Option<(f64, f64)>,
    /// Fresh-only global total (degrades by exactly a dark shard's
    /// contribution).
    pub live_total: f64,
    /// Fresh-only global conform.
    pub live_conform: f64,
    /// Shards served from the held copy this cycle.
    pub held_shards: usize,
    /// Shards with no servable partial this cycle.
    pub missing_shards: usize,
    /// Fraction of hosts whose traffic was remarked this cycle.
    pub marked_fraction: f64,
}

/// The fleet run's outcome.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// Final per-host conform ratios, host order.
    pub conform_ratios: Vec<f64>,
    /// Final cycle's marked fraction.
    pub marked_fraction: f64,
    /// Cycles where the global fold was unavailable and every host
    /// held its decision.
    pub fail_static_cycles: u64,
    /// Per-cycle observable state.
    pub cycles: Vec<FleetCycleStats>,
    /// Per-shard fault accounting.
    pub shard_stats: Vec<FleetShardStats>,
    /// Total fan-out reads issued (the O(shards) regression gate).
    pub fanout_reads: u64,
    /// Total offered demand, bits/s (constant across cycles).
    pub demand_bps: f64,
    /// The flat prefix aggregate (`…/total/`) read at end of run — what
    /// a flat-path reader sees after the shards fold.
    pub final_total: f64,
}

/// A host's offered demand in bits/s: `per_host_rate` jittered ±25% by
/// a per-host deterministic stream. Public so the flat-path reference
/// in the equivalence harness reproduces the engine's inputs exactly.
#[inline]
#[must_use]
pub fn host_demand_bps(seed: u64, per_host_rate: Rate, host: u32) -> f64 {
    let mut rng = DetRng::new(seed ^ (u64::from(host) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    per_host_rate.as_bps() * rng.range(0.75, 1.25)
}

/// The struct-of-arrays fleet state: one entry per host, walked as
/// linear passes.
struct FleetState {
    /// Previous conform ratio (the meter state), host order.
    prev_cr: Vec<f64>,
    /// Stable marking group id, precomputed from `HostId::group`.
    group: Vec<u8>,
    /// Offered demand, bits/s, fixed for the run.
    demand: Vec<f64>,
}

// Group ids and the cut (`0..=GROUPS`) are held as one byte per host.
const _: () = assert!(GROUPS <= u8::MAX as u32);

impl FleetState {
    fn new(config: &FleetConfig) -> FleetState {
        let hosts = config.hosts;
        let mut group = Vec::with_capacity(hosts);
        let mut demand = Vec::with_capacity(hosts);
        for h in 0..hosts {
            group.push(HostId(h as u32).group(GROUPS) as u8);
            demand.push(host_demand_bps(config.seed, config.per_host_rate, h as u32));
        }
        FleetState {
            prev_cr: vec![1.0; hosts],
            group,
            demand,
        }
    }
}

/// Hosts per keep-mask block of [`shard_partial`].
const BLOCK: usize = 64;

/// One shard's host pass: ascending-host-order fold of the shard's
/// demand into `(total, conform, marked_hosts)`. A host whose group id
/// falls under its meter's cut is remarked: its traffic leaves the
/// conforming aggregate (same rule as `Agent::self_marked`).
///
/// Two loops per block of [`BLOCK`] hosts, neither with a branch on a
/// host's marking. The first writes a keep-mask — all-ones for a host
/// at or above the cut, zero for a marked one. The cut is recomputed
/// only when a host's ratio differs in bits from the previous host's:
/// a block whose ratios all equal the last one seen compares its group
/// ids against one loop-invariant cut (a uniform fleet computes the cut
/// once per pass), any other block walks its hosts one by one, so the
/// mask is exact either way. The second loop adds in host order,
/// masking the demand's bits on the conform side: a marked host adds
/// `+0.0`, which leaves every sum but `-0.0` as it was, and `conform`
/// starts at `+0.0` and can never become `-0.0`. The mask has to come
/// from memory: written as a select in the adding loop, the compiler
/// turns it back into the branch, and the pass costs 3× more at 50 %
/// marked than at 0 %.
fn shard_partial(
    range: std::ops::Range<usize>,
    prev_cr: &[f64],
    group: &[u8],
    demand: &[f64],
) -> (f64, f64, u64) {
    let prev_cr = &prev_cr[range.clone()];
    let group = &group[range.clone()];
    let demand = &demand[range];
    let mut total = 0.0;
    let mut conform = 0.0;
    let mut marked = 0u64;
    let Some(&first) = prev_cr.first() else {
        return (total, conform, marked);
    };
    let mut seen = first.to_bits();
    let mut cut = Marker::marked_group_count(first) as u8;
    let mut keep = [0u64; BLOCK];
    for ((cr, g), d) in prev_cr
        .chunks(BLOCK)
        .zip(group.chunks(BLOCK))
        .zip(demand.chunks(BLOCK))
    {
        if cr.iter().fold(0, |diff, cr| diff | (cr.to_bits() ^ seen)) == 0 {
            for (keep, &g) in keep.iter_mut().zip(g) {
                *keep = if g >= cut { u64::MAX } else { 0 };
            }
        } else {
            for ((keep, &g), &cr) in keep.iter_mut().zip(g).zip(cr) {
                if cr.to_bits() != seen {
                    seen = cr.to_bits();
                    cut = Marker::marked_group_count(cr) as u8;
                }
                *keep = if g >= cut { u64::MAX } else { 0 };
            }
        }
        for (&d, &keep) in d.iter().zip(&keep) {
            total += d;
            conform += f64::from_bits(d.to_bits() & keep);
            marked += !keep & 1;
        }
    }
    (total, conform, marked)
}

/// One contiguous run of hosts' meter pass: every host takes
/// [`StatefulMeter::update_value`] of its own previous ratio. The other
/// four arguments are fixed for the pass, so the update is a function
/// of the previous ratio alone and is recomputed only when that differs
/// in bits from the previous host's.
fn meter_chunk(prev_cr: &mut [f64], total: f64, conform: f64, entitled: f64) {
    let recovery = 2.0; // StatefulMeter::new's paper default
    let Some(&first) = prev_cr.first() else {
        return;
    };
    let mut seen = first.to_bits();
    let mut next = StatefulMeter::update_value(first, total, conform, entitled, recovery);
    for cr in prev_cr {
        if cr.to_bits() != seen {
            seen = cr.to_bits();
            next = StatefulMeter::update_value(*cr, total, conform, entitled, recovery);
        }
        *cr = next;
    }
}

fn effective_workers(config: &FleetConfig, jobs: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let requested = if config.workers == 0 {
        auto
    } else {
        config.workers
    };
    requested.clamp(1, jobs.max(1))
}

/// Compute every shard's partial. `Par` assigns contiguous shard
/// blocks to scoped workers; each partial is computed by exactly the
/// same per-shard fold regardless of which thread runs it.
fn host_pass(
    config: &FleetConfig,
    plan: &ShardPlan,
    state: &FleetState,
    partials: &mut [(f64, f64, u64)],
) {
    let shards = plan.shards();
    match config.strategy {
        FleetStrategy::Deterministic => {
            for (s, out) in partials.iter_mut().enumerate() {
                *out = shard_partial(plan.range(s), &state.prev_cr, &state.group, &state.demand);
            }
        }
        FleetStrategy::Parallel => {
            let workers = effective_workers(config, shards);
            let block = shards.div_ceil(workers);
            std::thread::scope(|scope| {
                for (b, chunk) in partials.chunks_mut(block).enumerate() {
                    let base = b * block;
                    scope.spawn(move || {
                        for (i, out) in chunk.iter_mut().enumerate() {
                            *out = shard_partial(
                                plan.range(base + i),
                                &state.prev_cr,
                                &state.group,
                                &state.demand,
                            );
                        }
                    });
                }
            });
        }
    }
}

/// Update every host's meter from the folded global aggregates — the
/// identical per-host float ops as `StatefulMeter::update`, so a fleet
/// host and a flat-path agent fed the same inputs stay bit-identical.
fn meter_pass(config: &FleetConfig, prev_cr: &mut [f64], total: f64, conform: f64) {
    let entitled = config.entitled.as_bps();
    match config.strategy {
        FleetStrategy::Deterministic => meter_chunk(prev_cr, total, conform, entitled),
        FleetStrategy::Parallel => {
            let workers = effective_workers(config, prev_cr.len());
            let block = prev_cr.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for chunk in prev_cr.chunks_mut(block) {
                    scope.spawn(move || meter_chunk(chunk, total, conform, entitled));
                }
            });
        }
    }
}

/// [`run_fleet_engine_with`] without telemetry: a disabled [`Obs`] and
/// default evaluators nobody reads.
///
/// # Errors
///
/// Propagates [`ShardPlan::new`] validation failures.
pub fn run_fleet_engine(config: &FleetConfig) -> Result<FleetOutcome, String> {
    run_fleet_engine_with(
        config,
        &Obs::disabled(),
        &mut SloEvaluator::default(),
        &mut WatchEvaluator::default(),
    )
}

/// Run the fleet engine, recording spans/events/metrics into `obs` and
/// feeding the caller's two health folds.
///
/// All telemetry and KV traffic is issued from the driver thread in
/// deterministic order (cycle, then shard index), so traces, metrics
/// and both folds are byte-identical across strategies, and re-folding
/// the saved trace with `fold_trace` reproduces the reports exactly.
///
/// The caller builds `slo` and `watch` under whatever policy it wants
/// and reads `report()` afterwards. They are two arguments, not one
/// observer, because they are fed at different points of a cycle:
/// `slo` gets its [`IntervalObs`] (the global entity, plus one per
/// shard with [`FleetConfig::per_shard_slis`]) *inside* the
/// `agent`/`cycle` span, so `slo`/`interval` events carry the cycle
/// span as `parent_id`; `watch` gets its [`CycleObs`] and the W0102
/// shard reconciliation (the servable partials re-summed in shard
/// order and bit-compared against the fold the meters consumed)
/// *after* the span closes, so `watch`/`*` events are roots and never
/// perturb span durations.
///
/// # Errors
///
/// Propagates [`ShardPlan::new`] validation failures.
pub fn run_fleet_engine_with(
    config: &FleetConfig,
    obs: &Obs,
    slo: &mut SloEvaluator,
    watch: &mut WatchEvaluator,
) -> Result<FleetOutcome, String> {
    let plan = ShardPlan::new(config.hosts, config.shards)?;
    let shards = plan.shards();
    let fault_plan = Arc::new(config.faults.clone().unwrap_or_else(FaultPlan::none));
    let store = Arc::new(ShardedStore::new(StoreConfig {
        shards,
        ttl: Duration::from_millis(config.cycle_ms * 4),
    }));
    let kv = ObservedKv::new(ChaosStore::new(Arc::clone(&store), fault_plan), obs);

    let mut state = FleetState::new(config);
    let shard_demand: Vec<f64> = (0..shards)
        .map(|s| plan.range(s).map(|h| state.demand[h]).sum())
        .collect();
    // Demand total folded the same way the partials fold: shard order.
    let demand_bps: f64 = shard_demand.iter().sum();

    let total_prefix = format!("rates/{}/{}/total/", config.npg.0, config.qos);
    let conform_prefix = format!("rates/{}/{}/conform/", config.npg.0, config.qos);
    let staleness_ms = config.staleness_cycles * config.cycle_ms;
    let mut fan_total = ShardFanout::new(shards, staleness_ms);
    let mut fan_conform = ShardFanout::new(shards, staleness_ms);
    let mut shard_stats = vec![FleetShardStats::default(); shards];
    let mut cycle_stats = Vec::with_capacity(config.cycles);
    let mut partials = vec![(0.0, 0.0, 0u64); shards];
    let mut fail_static_cycles = 0u64;
    // Keys and labels are built once per run; a cycle overwrites only
    // the values it measured.
    let mut entries: Vec<[(String, f64); 2]> = (0..shards)
        .map(|s| {
            [
                (format!("{total_prefix}s{s}"), 0.0),
                (format!("{conform_prefix}s{s}"), 0.0),
            ]
        })
        .collect();
    let mut interval = IntervalObs {
        entity: config.npg.to_string(),
        qos: config.qos.to_string(),
        target: config.slo_target,
        demand_bps,
        delivered_bps: 0.0,
        approved_bps: config.entitled.as_bps(),
        measurable: false,
    };
    let mut cycle_obs = CycleObs {
        entity: interval.entity.clone(),
        qos: interval.qos.clone(),
        demand_bps,
        delivered_bps: 0.0,
        approved_bps: config.entitled.as_bps(),
        marked_fraction: 0.0,
        conform_fraction: 0.0,
        staleness_ms: 0.0,
        measurable: false,
    };

    obs.registry
        .gauge("entitlement_fleet_hosts", "Hosts in the sharded fleet", &[])
        .set(config.hosts as f64);
    obs.registry
        .gauge(
            "entitlement_fleet_shards",
            "Shards in the aggregation tree",
            &[],
        )
        .set(shards as f64);

    for cycle in 1..=config.cycles {
        let now_ms = cycle as u64 * config.cycle_ms;
        obs.clock.set_ms(now_ms);
        let mut span = obs.span("agent", "cycle");

        // 1. Host pass (the parallelizable part).
        host_pass(config, &plan, &state, &mut partials);
        let marked_hosts: u64 = partials.iter().map(|p| p.2).sum();
        let marked_fraction = marked_hosts as f64 / config.hosts as f64;

        // 2. Shard publish, driver-side, shard order.
        for (s, (batch, &(total, conform, _))) in entries.iter_mut().zip(&partials).enumerate() {
            batch[0].1 = total;
            batch[1].1 = conform;
            if kv.try_put_shard_batch(s, batch, now_ms).is_err() {
                shard_stats[s].publish_failures += 1;
            }
        }

        // 3. Global fold, driver-side, shard order.
        let snap_total = fan_total.refresh(&kv, &total_prefix, now_ms);
        let snap_conform = fan_conform.refresh(&kv, &conform_prefix, now_ms);
        for (stat, read) in shard_stats.iter_mut().zip(snap_total.shards()) {
            if matches!(read, ShardRead::Held(_)) {
                stat.held_serves += 1;
            }
            if !matches!(read, ShardRead::Fresh(_)) {
                stat.read_failures += 1;
            }
        }

        // 4. Meter pass on the folded aggregates — or fail-static.
        let folded_total = snap_total.fold();
        let metered = match (folded_total, snap_conform.fold()) {
            (Ok(total), Ok(conform)) => {
                meter_pass(config, &mut state.prev_cr, total, conform);
                Some((total, conform))
            }
            _ => {
                fail_static_cycles += 1;
                obs.registry
                    .counter(
                        "entitlement_fleet_fail_static_cycles_total",
                        "Cycles the fleet held its decision on an unavailable fold",
                        &[],
                    )
                    .inc();
                None
            }
        };

        if obs.enabled() {
            emit_shard_events(obs, &snap_total, &snap_conform);
        }

        let live_total = snap_total.fold_live();
        let live_conform = snap_conform.fold_live();

        // 5. SLO fold: the global entity, plus per-shard SLIs when on.
        let measurable = snap_total.missing() == 0 && snap_conform.missing() == 0;
        interval.delivered_bps = live_conform;
        interval.measurable = measurable;
        slo.observe(obs, &interval);
        if config.per_shard_slis {
            for (s, (&sd, read)) in shard_demand.iter().zip(snap_conform.shards()).enumerate() {
                let (delivered, shard_measurable) = match *read {
                    ShardRead::Fresh(v) | ShardRead::Held(v) => (v, true),
                    ShardRead::Missing => (0.0, false),
                };
                slo.observe(
                    obs,
                    &IntervalObs {
                        entity: format!("{}/s{s}", interval.entity),
                        qos: interval.qos.clone(),
                        target: config.slo_target,
                        demand_bps: sd,
                        delivered_bps: delivered,
                        // Pro-rata share of the service entitlement.
                        approved_bps: config.entitled.as_bps() * sd / demand_bps,
                        measurable: shard_measurable,
                    },
                );
            }
        }

        span.add_label("kv", if measurable { "ok" } else { "degraded" });
        span.add_label_fmt("marked_fraction", format_args!("{marked_fraction:.4}"));
        span.finish();

        // 6. Watchdog fold, outside the cycle span so watch events
        // never perturb span durations. Staleness here is the cost of
        // degraded serves: each held or missing shard this cycle ages
        // the decision by one cycle (a healthy run holds it at zero).
        let degraded = (snap_total.held() + snap_total.missing()) as f64;
        cycle_obs.delivered_bps = live_conform;
        cycle_obs.marked_fraction = marked_fraction;
        cycle_obs.conform_fraction = if live_total > 0.0 {
            live_conform / live_total
        } else {
            1.0
        };
        cycle_obs.staleness_ms = degraded * config.cycle_ms as f64;
        cycle_obs.measurable = measurable;
        watch.observe_cycle(obs, &cycle_obs);
        // W0102: re-sum the servable shard partials and bit-compare
        // against the fold the meters consumed. Skipped when the fold
        // itself failed (a missing shard is W0105's territory).
        if let Ok(folded) = folded_total {
            let shard_values: Vec<f64> = snap_total
                .shards()
                .iter()
                .map(|r| match *r {
                    ShardRead::Fresh(v) | ShardRead::Held(v) => v,
                    ShardRead::Missing => 0.0,
                })
                .collect();
            watch.observe_shards(
                obs,
                &cycle_obs.entity,
                &cycle_obs.qos,
                folded,
                &shard_values,
            );
        }

        cycle_stats.push(FleetCycleStats {
            now_ms,
            shard_totals: snap_total.fresh_values(),
            shard_conforms: snap_conform.fresh_values(),
            metered,
            live_total,
            live_conform,
            held_shards: snap_total.held(),
            missing_shards: snap_total.missing(),
            marked_fraction,
        });
    }

    let end_ms = config.cycles as u64 * config.cycle_ms;
    let final_total = store.aggregate_sum(&total_prefix, end_ms);
    let marked_fraction = cycle_stats.last().map_or(0.0, |c| c.marked_fraction);
    Ok(FleetOutcome {
        conform_ratios: state.prev_cr,
        marked_fraction,
        fail_static_cycles,
        cycles: cycle_stats,
        shard_stats,
        fanout_reads: fan_total.reads() + fan_conform.reads(),
        demand_bps,
        final_total,
    })
}

/// One `shard`/`fold` trace event per shard, shard order, labelling
/// how each partial was served — the per-shard span fan-out that makes
/// a dark shard visible in the trace.
fn emit_shard_events(obs: &Obs, snap_total: &FanoutSnapshot, snap_conform: &FanoutSnapshot) {
    let describe = |r: &ShardRead| match r {
        ShardRead::Fresh(_) => "fresh",
        ShardRead::Held(_) => "held",
        ShardRead::Missing => "missing",
    };
    for (s, read) in snap_total.shards().iter().enumerate() {
        obs.point("shard", "fold")
            .label("conform", describe(&snap_conform.shards()[s]))
            .label_fmt("shard", s)
            .label("total", describe(read))
            .finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_chaos::{Fault, FaultKind, TimeWindow};
    use proptest::prelude::*;

    fn small_config() -> FleetConfig {
        FleetConfig {
            hosts: 200,
            shards: 4,
            entitled: Rate::gbps(1000.0),
            per_host_rate: Rate::gbps(10.0), // ~2T offered vs 1T entitled
            cycles: 12,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn over_entitled_fleet_marks_about_half() {
        let mut slo = SloEvaluator::default();
        let out = run_fleet_engine_with(
            &small_config(),
            &Obs::disabled(),
            &mut slo,
            &mut WatchEvaluator::default(),
        )
        .unwrap();
        let report = slo.report();
        assert!(
            (out.marked_fraction - 0.5).abs() < 0.15,
            "marked {}",
            out.marked_fraction
        );
        // Every host agrees (identical folded inputs).
        let first = out.conform_ratios[0];
        assert!(out.conform_ratios.iter().all(|&cr| cr == first));
        assert_eq!(out.fail_static_cycles, 0);
        // The flat aggregate consumers still see the full fold.
        assert!((out.final_total - out.demand_bps).abs() < 1e-3);
        assert_eq!(report.entities.len(), 1);
        assert_eq!(report.entities[0].entity, "npg:7");
    }

    #[test]
    fn healthy_fleet_watch_is_silent_and_refolds_byte_identically() {
        let obs = Obs::new(entitlement_obs::Clock::manual(0));
        let mut live = WatchEvaluator::default();
        run_fleet_engine_with(&small_config(), &obs, &mut SloEvaluator::default(), &mut live)
            .unwrap();
        let watch = live.report();
        assert!(watch.healthy(), "{}", watch.render_text());
        assert_eq!(watch.cycles, 12);
        assert_eq!(watch.shard_checks, 12, "one W0102 reconciliation per cycle");
        let mut offline = WatchEvaluator::default();
        assert_eq!(offline.fold_trace(&obs.trace.events()), []);
        assert_eq!(offline.report(), watch);
        assert_eq!(offline.report().render_json(), watch.render_json());
    }

    #[test]
    fn under_entitled_fleet_marks_nothing() {
        let config = FleetConfig {
            entitled: Rate::gbps(10_000.0), // far above ~2T demand
            ..small_config()
        };
        let out = run_fleet_engine(&config).unwrap();
        assert_eq!(out.marked_fraction, 0.0);
        assert!(out.conform_ratios.iter().all(|&cr| cr == 1.0));
    }

    #[test]
    fn fanout_reads_scale_with_shards_not_hosts() {
        for hosts in [100, 400] {
            let config = FleetConfig {
                hosts,
                ..small_config()
            };
            let out = run_fleet_engine(&config).unwrap();
            assert_eq!(
                out.fanout_reads,
                2 * 4 * 12, // two fan-outs × shards × cycles
                "hosts={hosts}: reads/cycle must be O(shards)"
            );
        }
    }

    #[test]
    fn dark_shard_held_then_fail_static() {
        let mut config = small_config();
        // Shard 2 dark for cycles 6..=9 (ms 6000..9001); staleness
        // bound is 1 cycle, so cycle 6 serves held and 7..=9 hold.
        config.faults = Some(FaultPlan {
            seed: 1,
            faults: vec![Fault {
                window: TimeWindow::new(6000, 9001),
                kind: FaultKind::ShardOutage { shards: vec![2] },
            }],
        });
        let out = run_fleet_engine(&config).unwrap();
        assert_eq!(out.fail_static_cycles, 3);
        let c6 = &out.cycles[5];
        assert_eq!(c6.shard_totals[2], None, "dark shard not fresh");
        assert_eq!(c6.held_shards, 1);
        assert!(c6.metered.is_some(), "held partial keeps the fold whole");
        let c7 = &out.cycles[6];
        assert_eq!(c7.metered, None, "beyond the bound the fleet holds");
        assert_eq!(c7.missing_shards, 1);
        // Only the dark shard accrued publish failures.
        for s in 0..4 {
            let expected = if s == 2 { 4 } else { 0 };
            assert_eq!(out.shard_stats[s].publish_failures, expected, "shard {s}");
        }
        // Recovery: the last cycles meter again.
        assert!(out.cycles.last().unwrap().metered.is_some());
        assert_eq!(out.shard_stats[2].held_serves, 1);
        assert_eq!(out.shard_stats[2].read_failures, 4);
    }

    #[test]
    fn per_shard_slis_report_one_entity_per_shard() {
        let config = FleetConfig {
            per_shard_slis: true,
            ..small_config()
        };
        let mut slo = SloEvaluator::default();
        run_fleet_engine_with(&config, &Obs::disabled(), &mut slo, &mut WatchEvaluator::default())
            .unwrap();
        let report = slo.report();
        assert_eq!(report.entities.len(), 5, "global + one per shard");
        assert!(report
            .entities
            .iter()
            .any(|e| e.entity == "npg:7/s3"));
    }

    #[test]
    fn strategies_match_on_a_smoke_config() {
        let det = run_fleet_engine(&small_config()).unwrap();
        let par = run_fleet_engine(&FleetConfig {
            strategy: FleetStrategy::Parallel,
            workers: 3,
            ..small_config()
        })
        .unwrap();
        assert_eq!(det.conform_ratios, par.conform_ratios);
        assert_eq!(det.demand_bps, par.demand_bps);
        assert_eq!(det.final_total, par.final_total);
    }

    /// The scalar host pass [`shard_partial`] replaced: a branch per
    /// host, the cut recomputed per host. The oracle the kernel is held
    /// to.
    fn scalar_shard_partial(
        range: std::ops::Range<usize>,
        prev_cr: &[f64],
        group: &[u8],
        demand: &[f64],
    ) -> (f64, f64, u64) {
        let mut total = 0.0;
        let mut conform = 0.0;
        let mut marked = 0u64;
        for h in range {
            total += demand[h];
            if u32::from(group[h]) < Marker::marked_group_count(prev_cr[h]) {
                marked += 1;
            } else {
                conform += demand[h];
            }
        }
        (total, conform, marked)
    }

    /// The per-host meter loop [`meter_chunk`] replaced.
    fn scalar_meter(prev_cr: &mut [f64], total: f64, conform: f64, entitled: f64) {
        for cr in prev_cr {
            *cr = StatefulMeter::update_value(*cr, total, conform, entitled, 2.0);
        }
    }

    /// Ratios whose cuts are 0 / 1 / 50 / 99 / 100.
    const CUT_RATIOS: [f64; 5] = [1.0, 0.99, 0.5, 0.01, 0.0];

    /// `n` previous ratios: one value throughout (0), one change at a
    /// random host (1), a different value at every host (2), or runs of
    /// 1..=90 hosts, i.e. changes mid-block and across blocks (3).
    fn ratios(rng: &mut DetRng, n: usize, pattern: u8) -> Vec<f64> {
        let pick = |rng: &mut DetRng| CUT_RATIOS[rng.usize(CUT_RATIOS.len())];
        match pattern {
            0 => vec![pick(rng); n],
            1 => {
                let (a, b, at) = (pick(rng), pick(rng), rng.usize(n + 1));
                (0..n).map(|h| if h < at { a } else { b }).collect()
            }
            2 => (0..n).map(|_| rng.f64()).collect(),
            _ => {
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    let (value, run) = (pick(rng), 1 + rng.usize(90));
                    out.resize((out.len() + run).min(n), value);
                }
                out
            }
        }
    }

    /// Random state over `n` hosts: groups over the whole id space,
    /// demands with `0.0` and `-0.0` mixed in.
    fn random_state(rng: &mut DetRng, n: usize, pattern: u8) -> FleetState {
        FleetState {
            prev_cr: ratios(rng, n, pattern),
            group: (0..n).map(|_| rng.usize(GROUPS as usize) as u8).collect(),
            demand: (0..n)
                .map(|_| match rng.usize(8) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.range(0.75e9, 1.25e9),
                })
                .collect(),
        }
    }

    /// Aggregates that reach each branch of `update_value` against an
    /// entitlement of 1e12: recover, probe, ratio step, and the
    /// non-finite hold.
    const METER_INPUTS: [(f64, f64); 5] = [
        (0.5e12, 0.5e12),
        (2e12, 0.5),
        (2e12, 1.7e12),
        (2e12, 0.6e12),
        (2e12, f64::NAN),
    ];

    fn bits(p: (f64, f64, u64)) -> (u64, u64, u64) {
        (p.0.to_bits(), p.1.to_bits(), p.2)
    }

    fn ratio_bits(ratios: &[f64]) -> Vec<u64> {
        ratios.iter().map(|cr| cr.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both kernels against the loops they replaced, bit for bit,
        /// on ranges that start and end off a block boundary, are
        /// shorter than a block, or are empty.
        #[test]
        fn kernels_match_the_scalar_loops(
            seed in any::<u64>(),
            (lead, hosts, tail) in (0usize..70, 0usize..200, 0usize..70),
            pattern in 0u8..4,
        ) {
            let mut rng = DetRng::new(seed);
            let state = random_state(&mut rng, lead + hosts + tail, pattern);
            let range = lead..lead + hosts;
            let (cr, group, demand) = (&state.prev_cr, &state.group, &state.demand);
            prop_assert_eq!(
                bits(shard_partial(range.clone(), cr, group, demand)),
                bits(scalar_shard_partial(range.clone(), cr, group, demand))
            );
            for (total, conform) in METER_INPUTS {
                let mut kernel = state.prev_cr[range.clone()].to_vec();
                let mut scalar = kernel.clone();
                meter_chunk(&mut kernel, total, conform, 1e12);
                scalar_meter(&mut scalar, total, conform, 1e12);
                prop_assert_eq!(ratio_bits(&kernel), ratio_bits(&scalar));
            }
        }

        /// The two passes as the engine drives them, under both
        /// strategies and 1-3 workers: every shard's partial and every
        /// stored ratio equal the scalar loops'.
        #[test]
        fn passes_match_the_scalar_loops_under_both_strategies(
            seed in any::<u64>(),
            (hosts, shards) in (1usize..=400, 1usize..=9),
            workers in 1usize..=3,
            pattern in 0u8..4,
        ) {
            let shards = shards.min(hosts);
            let plan = ShardPlan::new(hosts, shards).expect("a valid shape");
            let mut rng = DetRng::new(seed);
            let state = random_state(&mut rng, hosts, pattern);
            let (cr, group, demand) = (&state.prev_cr, &state.group, &state.demand);
            let expected: Vec<_> = (0..shards)
                .map(|s| bits(scalar_shard_partial(plan.range(s), cr, group, demand)))
                .collect();
            for strategy in [FleetStrategy::Deterministic, FleetStrategy::Parallel] {
                let config = FleetConfig {
                    hosts,
                    shards,
                    strategy,
                    workers,
                    entitled: Rate::bps(1e12),
                    ..FleetConfig::default()
                };
                let mut partials = vec![(0.0, 0.0, 0u64); shards];
                host_pass(&config, &plan, &state, &mut partials);
                let got: Vec<_> = partials.iter().map(|&p| bits(p)).collect();
                prop_assert_eq!(&got, &expected);
                for (total, conform) in METER_INPUTS {
                    let mut kernel = state.prev_cr.clone();
                    let mut scalar = state.prev_cr.clone();
                    meter_pass(&config, &mut kernel, total, conform);
                    scalar_meter(&mut scalar, total, conform, 1e12);
                    prop_assert_eq!(ratio_bits(&kernel), ratio_bits(&scalar));
                }
            }
        }
    }

    #[test]
    fn strategy_parses() {
        assert_eq!(FleetStrategy::parse("det"), Some(FleetStrategy::Deterministic));
        assert_eq!(FleetStrategy::parse("par"), Some(FleetStrategy::Parallel));
        assert_eq!(FleetStrategy::parse("rayon"), None);
        assert_eq!(FleetStrategy::Parallel.as_str(), "par");
    }
}
