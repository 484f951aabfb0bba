//! The fleet concurrency model: the shard publish → fanout fold →
//! broadcast → meter protocol, expressed as a racecheck
//! [`ProtocolRun`] over the **real** runtime components.
//!
//! Nothing here is a reimplementation: the host pass calls
//! `crate::fleet::shard_partial`, publishes go through the real
//! [`ShardedStore`] (via [`KvAccess::try_put_shard_batch`]), the
//! fold runs the real [`ShardFanout`], and the meter pass is
//! `crate::fleet::meter_chunk` over the shard's hosts — the kernels the
//! fleet engine runs. The scheduler interleaves the protocol's logical tasks
//! (workers, the driver) every legal way and asserts f64-bit outcome
//! equality against the canonical schedule — which `reference_engine`
//! pins to [`crate::fleet::run_fleet_engine`]'s `FleetStrategy::Deterministic`
//! output, closing the loop: *every* schedule equals the deterministic
//! engine, bit for bit.
//!
//! # The happens-before graph being verified
//!
//! Per cycle `c` and shard `s` (worker `w` owns a contiguous shard
//! block, mirroring `host_pass`'s chunking):
//!
//! ```text
//! w: host_pass(c,s) ─▸ publish(c,s) ──signal c{c}/pub/s{s}──▸ driver: fold_read(c,s)
//!                                                               │ (all shards)
//!                                                               ▼
//!                                             driver: fold(c) ──signal c{c}/bcast──▸ w: meter(c,s)
//! ```
//!
//! Within a task, program order gives the edges for free; across
//! tasks, only the two signals order anything. The commutative parts —
//! different shards' host passes, publishes, and fold reads — carry no
//! cross edges at all, and the exhaustive explorer proves that is
//! sound: every interleaving of the commuting steps produces identical
//! bits, because each shard partial is a closed ascending-host-order
//! fold and the driver folds shards in ascending shard order
//! regardless of arrival order.
//!
//! Under `cfg(feature = "racecheck_mutation")` the driver's
//! `fold_read` for shard 0 drops its await — the exact bug class of a
//! fold racing a publish — and the verifier must fire `R0101`
//! (unsynchronized `kv/s0` access) plus `R0103` (schedules that fold
//! before the publish read a zero partial and diverge).

use crate::fleet::{host_demand_bps, meter_chunk, shard_partial, FleetConfig, FleetStrategy};
use crate::marking::GROUPS;
use crate::shard::ShardPlan;
use entitlement_core::{HostId, Rate};
use entitlement_kvstore::{KvAccess, ShardFanout, ShardedStore, StoreConfig};
use entitlement_racecheck::{
    explore_exhaustive, explore_random, fnv1a_bits, DivergenceCode, OutcomeSlot, ProtocolRun,
    Step, VerifyOutcome,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration for one verification run. Small on purpose: the
/// explorer's schedule tree grows factorially in `shards × workers`.
#[derive(Clone, Debug)]
pub struct VerifyConfig {
    /// Fleet (and KV) shard count. 2–4 is the practical range.
    pub shards: usize,
    /// Logical worker tasks; shards are assigned in contiguous blocks
    /// exactly like `host_pass`. Clamped to `shards`.
    pub workers: usize,
    /// Host count (splits over shards via [`ShardPlan`]).
    pub hosts: usize,
    /// Metering cycles to model. Exhaustive exploration should stay at
    /// 1; random schedules handle more.
    pub cycles: usize,
    /// Demand jitter seed (same stream as the fleet engine).
    pub seed: u64,
    /// Entitled rate for the modeled `(NPG, QoS)`.
    pub entitled: Rate,
    /// Mean per-host offered demand.
    pub per_host_rate: Rate,
    /// Logical milliseconds per cycle.
    pub cycle_ms: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            shards: 2,
            workers: 2,
            hosts: 16,
            cycles: 1,
            seed: 0xD217,
            // ~160 Gb/s offered vs 80 entitled: about half the fleet
            // marks, so the meter math is exercised, not saturated.
            entitled: Rate::gbps(80.0),
            per_host_rate: Rate::gbps(10.0),
            cycle_ms: 1000,
        }
    }
}

impl VerifyConfig {
    fn effective_workers(&self) -> usize {
        self.workers.clamp(1, self.shards)
    }
}

/// Shared protocol state: the real store, fanouts, and meter vectors.
struct ProtoState {
    store: ShardedStore,
    fan_total: ShardFanout,
    fan_conform: ShardFanout,
    prev_cr: Vec<f64>,
    group: Vec<u8>,
    demand: Vec<f64>,
    partials: Vec<(f64, f64, u64)>,
    /// The broadcast fold, `None` while unavailable (fail-static).
    agg: Option<(f64, f64)>,
    fail_static: u64,
}

impl ProtoState {
    fn new(cfg: &VerifyConfig) -> ProtoState {
        let staleness_ms = cfg.cycle_ms; // staleness_cycles = 1, engine default
        let mut group = Vec::with_capacity(cfg.hosts);
        let mut demand = Vec::with_capacity(cfg.hosts);
        for h in 0..cfg.hosts {
            group.push(HostId(h as u32).group(GROUPS) as u8);
            demand.push(host_demand_bps(cfg.seed, cfg.per_host_rate, h as u32));
        }
        ProtoState {
            store: ShardedStore::new(StoreConfig {
                shards: cfg.shards,
                ttl: std::time::Duration::from_millis(cfg.cycle_ms * 4),
            }),
            fan_total: ShardFanout::new(cfg.shards, staleness_ms),
            fan_conform: ShardFanout::new(cfg.shards, staleness_ms),
            prev_cr: vec![1.0; cfg.hosts],
            group,
            demand,
            partials: vec![(0.0, 0.0, 0u64); cfg.shards],
            agg: None,
            fail_static: 0,
        }
    }
}

const TOTAL_PREFIX: &str = "rates/7/c2/total/";
const CONFORM_PREFIX: &str = "rates/7/c2/conform/";

/// Build the protocol factory for `cfg`. Each call of the returned
/// closure constructs a fresh run over fresh state (the explorer
/// replays it once per schedule).
///
/// # Panics
///
/// Panics if `cfg` fails [`ShardPlan`] validation (0 hosts/shards or
/// more shards than hosts).
pub fn protocol(cfg: &VerifyConfig) -> impl Fn() -> ProtocolRun + '_ {
    let plan = ShardPlan::new(cfg.hosts, cfg.shards).expect("verify config must shard");
    move || {
        let state = Rc::new(RefCell::new(ProtoState::new(cfg)));
        let workers = cfg.effective_workers();
        let block = cfg.shards.div_ceil(workers);
        let mut tasks: Vec<Vec<Step>> = Vec::with_capacity(workers + 1);

        // Worker tasks: per cycle, host-pass then publish each owned
        // shard, then meter each owned shard after the broadcast.
        for w in 0..workers {
            let owned: Vec<usize> = (w * block..((w + 1) * block).min(cfg.shards)).collect();
            let mut steps = Vec::new();
            for c in 0..cfg.cycles {
                let now_ms = (c as u64 + 1) * cfg.cycle_ms;
                for &s in &owned {
                    let st = Rc::clone(&state);
                    let range = plan.range(s);
                    steps.push(
                        Step::new(format!("c{c}/host_pass/s{s}"))
                            .reads(format!("prev_cr/s{s}"))
                            .writes(format!("partial/s{s}"))
                            .run(move || {
                                let mut st = st.borrow_mut();
                                let partial = shard_partial(
                                    range.clone(),
                                    &st.prev_cr,
                                    &st.group,
                                    &st.demand,
                                );
                                st.partials[s] = partial;
                            }),
                    );
                }
                for &s in &owned {
                    let st = Rc::clone(&state);
                    steps.push(
                        Step::new(format!("c{c}/publish/s{s}"))
                            .reads(format!("partial/s{s}"))
                            .writes(format!("kv/s{s}"))
                            .signals(format!("c{c}/pub/s{s}"))
                            .run(move || {
                                let st = st.borrow();
                                let (total, conform, _) = st.partials[s];
                                let entries = [
                                    (format!("{TOTAL_PREFIX}s{s}"), total),
                                    (format!("{CONFORM_PREFIX}s{s}"), conform),
                                ];
                                st.store
                                    .try_put_shard_batch(s, &entries, now_ms)
                                    .expect("healthy store");
                            }),
                    );
                }
                for &s in &owned {
                    let st = Rc::clone(&state);
                    let range = plan.range(s);
                    let entitled = cfg.entitled.as_bps();
                    steps.push(
                        Step::new(format!("c{c}/meter/s{s}"))
                            .awaits(format!("c{c}/bcast"))
                            .reads("agg")
                            .writes(format!("prev_cr/s{s}"))
                            .run(move || {
                                let mut st = st.borrow_mut();
                                if let Some((total, conform)) = st.agg {
                                    let hosts = &mut st.prev_cr[range.clone()];
                                    meter_chunk(hosts, total, conform, entitled);
                                }
                            }),
                    );
                }
            }
            tasks.push(steps);
        }

        // Driver task: per cycle, read each shard's partial into the
        // fanout, then fold and broadcast.
        let mut driver = Vec::new();
        for c in 0..cfg.cycles {
            let now_ms = (c as u64 + 1) * cfg.cycle_ms;
            for s in 0..cfg.shards {
                let st = Rc::clone(&state);
                let mut step = Step::new(format!("c{c}/fold_read/s{s}"))
                    .reads(format!("kv/s{s}"))
                    .writes(format!("fan/s{s}"));
                // The sync point under mutation test: the driver must
                // not read a shard's partial before its publish.
                #[cfg(feature = "racecheck_mutation")]
                if s != 0 {
                    step = step.awaits(format!("c{c}/pub/s{s}"));
                }
                #[cfg(not(feature = "racecheck_mutation"))]
                {
                    step = step.awaits(format!("c{c}/pub/s{s}"));
                }
                driver.push(step.run(move || {
                    let mut st = st.borrow_mut();
                    let total = st.store.try_shard_aggregate(TOTAL_PREFIX, s, now_ms);
                    st.fan_total.observe(s, total, now_ms);
                    let conform = st.store.try_shard_aggregate(CONFORM_PREFIX, s, now_ms);
                    st.fan_conform.observe(s, conform, now_ms);
                }));
            }
            let st = Rc::clone(&state);
            let mut fold = Step::new(format!("c{c}/fold"))
                .writes("agg")
                .signals(format!("c{c}/bcast"));
            for s in 0..cfg.shards {
                fold = fold.reads(format!("fan/s{s}"));
            }
            driver.push(fold.run(move || {
                let mut st = st.borrow_mut();
                let total = st.fan_total.snapshot(now_ms).fold();
                let conform = st.fan_conform.snapshot(now_ms).fold();
                match (total, conform) {
                    (Ok(t), Ok(cf)) => st.agg = Some((t, cf)),
                    _ => {
                        st.agg = None;
                        st.fail_static += 1;
                    }
                }
            }));
        }
        tasks.push(driver);

        let outcome_state = Rc::clone(&state);
        ProtocolRun {
            tasks,
            outcome: Box::new(move || outcome_slots(&outcome_state.borrow())),
        }
    }
}

/// The f64-bit outcome of a completed run: the last folded aggregates
/// plus a hash over every host's conform ratio. All slots carry
/// [`DivergenceCode::ScheduleDivergence`] — any schedule that changes
/// a bit is an R0103.
fn outcome_slots(st: &ProtoState) -> Vec<OutcomeSlot> {
    let (total_bits, conform_bits) = match st.agg {
        Some((t, cf)) => (t.to_bits(), cf.to_bits()),
        // Fail-static sentinel: distinct from any real f64 pattern pair.
        None => (u64::MAX, u64::MAX - st.fail_static),
    };
    vec![
        OutcomeSlot {
            label: "fold/total".to_string(),
            bits: total_bits,
            code: DivergenceCode::ScheduleDivergence,
        },
        OutcomeSlot {
            label: "fold/conform".to_string(),
            bits: conform_bits,
            code: DivergenceCode::ScheduleDivergence,
        },
        OutcomeSlot {
            label: "conform_ratios".to_string(),
            bits: fnv1a_bits(st.prev_cr.iter().map(|cr| cr.to_bits())),
            code: DivergenceCode::ScheduleDivergence,
        },
    ]
}

/// Bounded-exhaustive verification: explore every schedule of the
/// protocol (sleep-set pruned) up to `max_schedules`.
///
/// # Panics
///
/// Panics if `cfg` fails [`ShardPlan`] validation.
#[must_use]
pub fn verify_exhaustive(cfg: &VerifyConfig, max_schedules: usize) -> VerifyOutcome {
    let factory = protocol(cfg);
    VerifyOutcome::from_exploration(&explore_exhaustive(&factory, max_schedules))
}

/// Seeded-random verification: `count` schedules drawn from `seed`,
/// plus the canonical reference.
///
/// # Panics
///
/// Panics if `cfg` fails [`ShardPlan`] validation.
#[must_use]
pub fn verify_random(cfg: &VerifyConfig, seed: u64, count: usize) -> VerifyOutcome {
    let factory = protocol(cfg);
    VerifyOutcome::from_exploration(&explore_random(&factory, seed, count))
}

/// The model's canonical-schedule outcome (no exploration).
///
/// # Panics
///
/// Panics if `cfg` fails [`ShardPlan`] validation.
#[must_use]
pub fn model_reference(cfg: &VerifyConfig) -> Vec<OutcomeSlot> {
    let factory = protocol(cfg);
    explore_random(&factory, 0, 0).reference
}

/// The same outcome slots computed by the real fleet engine under
/// [`FleetStrategy::Deterministic`] — what every explored schedule must
/// match bit-for-bit.
///
/// # Panics
///
/// Panics if the engine rejects the derived [`FleetConfig`].
#[must_use]
pub fn reference_engine(cfg: &VerifyConfig) -> Vec<OutcomeSlot> {
    let fleet = FleetConfig {
        hosts: cfg.hosts,
        shards: cfg.shards,
        strategy: FleetStrategy::Deterministic,
        workers: 1,
        entitled: cfg.entitled,
        per_host_rate: cfg.per_host_rate,
        cycles: cfg.cycles,
        cycle_ms: cfg.cycle_ms,
        seed: cfg.seed,
        ..FleetConfig::default()
    };
    let out = crate::fleet::run_fleet_engine(&fleet).expect("engine accepts verify configs");
    let (total_bits, conform_bits) = out
        .cycles
        .last()
        .and_then(|c| c.metered)
        .map_or((u64::MAX, u64::MAX), |(t, cf)| (t.to_bits(), cf.to_bits()));
    vec![
        OutcomeSlot {
            label: "fold/total".to_string(),
            bits: total_bits,
            code: DivergenceCode::ScheduleDivergence,
        },
        OutcomeSlot {
            label: "fold/conform".to_string(),
            bits: conform_bits,
            code: DivergenceCode::ScheduleDivergence,
        },
        OutcomeSlot {
            label: "conform_ratios".to_string(),
            bits: fnv1a_bits(out.conform_ratios.iter().map(|cr| cr.to_bits())),
            code: DivergenceCode::ScheduleDivergence,
        },
    ]
}

#[cfg(all(test, not(feature = "racecheck_mutation")))]
mod tests {
    use super::*;

    #[test]
    fn model_reference_matches_the_deterministic_engine() {
        let cfg = VerifyConfig::default();
        assert_eq!(model_reference(&cfg), reference_engine(&cfg));
    }

    #[test]
    fn model_matches_engine_across_cycles_and_shapes() {
        for (shards, workers, hosts, cycles) in
            [(2, 2, 16, 1), (3, 2, 21, 2), (4, 3, 32, 3), (2, 1, 10, 4)]
        {
            let cfg = VerifyConfig {
                shards,
                workers,
                hosts,
                cycles,
                ..VerifyConfig::default()
            };
            assert_eq!(
                model_reference(&cfg),
                reference_engine(&cfg),
                "shards={shards} workers={workers} hosts={hosts} cycles={cycles}"
            );
        }
    }

    #[test]
    fn exhaustive_two_by_two_is_clean() {
        let out = verify_exhaustive(&VerifyConfig::default(), 200_000);
        assert!(out.clean(), "{}", out.report.render_text());
        assert!(!out.capped);
        // A healthy protocol collapses to ONE Mazurkiewicz trace: every
        // branch point is proven independent and pruned. Branches must
        // have existed, or the "exploration" never faced a choice.
        assert_eq!(out.schedules, 1, "healthy protocol has one trace class");
        assert!(out.pruned >= 1, "exploration must have faced choices");
    }
}
