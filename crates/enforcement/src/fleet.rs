//! The sharded fleet engine: hierarchical host → shard → global
//! aggregation at 10⁵–10⁶ host scale.
//!
//! An agent per host polling the global aggregate each cycle costs
//! O(agents) KV reads per cycle, which tops out three orders of
//! magnitude below the production fleet (paper §6). This engine runs
//! the fleet as an aggregation tree instead:
//!
//! 1. **Host pass (struct-of-arrays).** Per-host inputs live in
//!    parallel vectors (`group`, `demand_bps`); the meter state is held
//!    as runs of hosts whose previous conform ratios are equal in bits.
//!    Each fleet shard — a contiguous host range from [`ShardPlan`] — is
//!    folded in ascending host order into one `(total, conform)`
//!    partial: a metering cycle over 10⁶ agents is a handful of linear
//!    sweeps, not 10⁶ task wakeups. Eight shards are folded abreast,
//!    one lane each: per block of 64 hosts a lane writes a byte
//!    keep-mask (the marking cut computed once per run it enters), then
//!    one loop adds every lane's next host in host order, with the
//!    demand masked on the conform side — 16 independent add chains,
//!    and no branch on who is marked, so a cycle costs the same in every
//!    load regime.
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
//!    runs. The aggregates are fixed for the pass, so the update runs
//!    once per run of bit-equal ratios, on the driver, and runs that
//!    meet merge. A fleet that starts uniform stays one run.
//!
//! # The pass memo
//!
//! A shard's partial is a pure function of its hosts' marking cuts
//! (one of 101 values each), group ids and demands. The engine keeps the
//! partials of the last two distinct cut runs it folded, keyed by the
//! meter runs mapped to cuts with equal neighbours merged, and serves a
//! cycle whose cuts repeat from them instead of folding its hosts again.
//! Group ids never change. Demand changes only when the down set
//! differs from the previous cycle's, and any such change empties the
//! memo. The key is therefore the pass's complete input, and a served
//! partial is the pass's own in bits under any demand model; only how
//! often the memo hits depends on the traffic. Cycle 1 costs no pass:
//! every host starts at ratio 1.0, cut 0, so each shard's partial is its
//! demand sum, which the state build computes from `+0.0` as a lane does.
//! Two entries, because an over-entitled fleet settles into a limit
//! cycle of two cuts (50, 50, 49, …). Host passes per run
//! ([`FleetOutcome::host_passes`]): none or one of the benchmark's eight
//! cycles at 10⁶ hosts; 2 of 64 at `drill --hosts 20000 --shards 64
//! --cycles 64` (37 with one entry); 5 of 64 at 200 hosts over four
//! shards; 8 of 16 at 2 000 hosts with `examples/faults/agent_crash.json`,
//! whose window empties the memo as it opens and as it closes.
//!
//! # What a run holds
//!
//! A run builds only the state it reads. Every run keeps the demand,
//! 8 B a host. The first host pass hashes the group ids (a byte a
//! host), so a run whose cuts stay at 0 never builds them. Once the
//! last cycle has run, the final ratios are expanded into the demand
//! buffer rather than a vector of their own. The store keeps read
//! snapshots only when the fault plan has a `StaleReads` window to
//! serve them in (`ChaosStore::new`).
//!
//! # Strategies
//!
//! The same engine runs under two execution strategies
//! ([`FleetStrategy`]): `Det` executes every pass on the driver thread;
//! `Par` fans the host pass out over `std::thread::scope` workers.
//! Because each shard's partial is an ascending-host-order sum computed
//! wholly by one worker, and the cross-shard fold always runs on the
//! driver in ascending shard order, the two strategies produce
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
//!
//! An `AgentCrash` takes its hosts out of their shards' partials for
//! the window, and each restarts with fresh meter state when it closes
//! (see [`run_fleet_engine_with`]).

use crate::marking::{Marker, GROUPS};
use crate::metering::StatefulMeter;
use crate::shard::ShardPlan;
use entitlement_chaos::{ChaosStore, FaultKind, FaultPlan};
use entitlement_core::{DetRng, HostId, NpgId, QosClass, Rate};
use entitlement_kvstore::{
    FanoutSnapshot, KvAccess, ObservedKv, ShardFanout, ShardRead, ShardedStore, StoreConfig,
};
use entitlement_obs::Obs;
use entitlement_slo::watch::WatchEvaluator;
use entitlement_slo::{CycleObs, IntervalObs, SloEvaluator};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// How the per-cycle host pass executes. Results are bit-identical
/// between the two; only wall-clock differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetStrategy {
    /// Everything on the driver thread, in deterministic order.
    Deterministic,
    /// The host pass fans out over scoped threads; folds and the meter
    /// pass stay on the driver.
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

/// Logical milliseconds per metering cycle.
pub const CYCLE_MS: u64 = 1000;

/// The one `(NPG, QoS)` the fleet meters.
const NPG: NpgId = NpgId(7);
const QOS: QosClass = QosClass::C2;

/// SLO target of the fleet's SLI fold.
const SLO_TARGET: f64 = 0.99;

/// How many cycles a dark shard's held partial may be served before the
/// global fold goes fail-static.
const STALENESS_CYCLES: u64 = 1;

/// Fleet engine configuration: what a caller varies. The cycle length,
/// the metered service, its SLO target and the staleness bound are the
/// constants above.
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
    /// Entitled (approved) rate for the `(NPG, QoS)`.
    pub entitled: Rate,
    /// Mean per-host offered demand (jittered ±25% per host by seed).
    pub per_host_rate: Rate,
    /// Metering cycles to run.
    pub cycles: usize,
    /// Seed for the per-host demand jitter.
    pub seed: u64,
    /// Optional fault plan (shard outages target fleet shards).
    pub faults: Option<FaultPlan>,
    /// Also feed one SLI entity per shard into the SLO evaluator
    /// (entity `npg:N/sS`, approved pro-rata by demand share).
    pub per_shard_slis: bool,
}

impl FleetConfig {
    /// The logical clock at the last cycle, `cycles × CYCLE_MS`; `None`
    /// when that overflows `u64` milliseconds.
    #[must_use]
    pub fn end_ms(&self) -> Option<u64> {
        u64::try_from(self.cycles).ok()?.checked_mul(CYCLE_MS)
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            hosts: 1000,
            shards: 8,
            strategy: FleetStrategy::Deterministic,
            workers: 0,
            entitled: Rate::gbps(5000.0),
            per_host_rate: Rate::gbps(10.0), // ~10T offered vs 5T entitled
            cycles: 32,
            seed: 0xD217,
            faults: None,
            per_shard_slis: false,
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
    /// Agent restarts: a host counts once each time an `AgentCrash`
    /// window that held it down closes.
    pub restarts: u64,
    /// Per-cycle observable state.
    pub cycles: Vec<FleetCycleStats>,
    /// Per-shard fault accounting.
    pub shard_stats: Vec<FleetShardStats>,
    /// Host passes run: the cycles whose pass input the memo did not
    /// hold (see the module doc). A work counter; no CLI output, trace
    /// or metric carries it.
    pub host_passes: u64,
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

/// The fleet state, walked as linear passes. The meter state is held
/// as runs of bit-equal ratios: `runs[i] = (end, ratio)` says every
/// host from the previous run's end (0 for the first run) up to `end`
/// has conform ratio `ratio`. Ends strictly ascend, the last is the
/// host count, and neighbouring runs differ in bits. Any per-host state
/// fits (one run per host at worst); a fleet that meters on one folded
/// pair stays one run.
struct FleetState {
    /// Previous conform ratios (the meter state), as runs in host order.
    runs: Vec<(usize, f64)>,
    /// Stable marking group id from `HostId::group`, one per host;
    /// empty until the first host pass needs it ([`FleetState::fill_groups`]).
    group: Vec<u8>,
    /// Offered demand, bits/s; `+0.0` while a crash holds the host down.
    demand: Vec<f64>,
}

// Group ids and the cut (`0..=GROUPS`) are held as one byte per host.
const _: () = assert!(GROUPS <= u8::MAX as u32);

impl FleetState {
    /// A fresh fleet over `plan`'s hosts, every host at ratio 1.0, and
    /// each shard's offered demand. One ascending pass writes the
    /// demands into a pre-sized slice and sums each shard, so no host
    /// is read back and none is pushed. The group ids wait for the
    /// first host pass: a run whose cuts stay at 0 never reads them.
    /// The caller has checked that host ids fit 32 bits.
    fn new(config: &FleetConfig, plan: &ShardPlan) -> (FleetState, Vec<f64>) {
        let mut demand = vec![0.0; plan.hosts()];
        let shard_demand = (0..plan.shards())
            .map(|s| {
                let range = plan.range(s);
                // `+0.0`, as a kernel lane starts, so that this sum is
                // the shard's cut-0 partial in bits.
                let mut sum = 0.0;
                for (h, d) in range.clone().zip(&mut demand[range]) {
                    *d = host_demand_bps(config.seed, config.per_host_rate, h as u32);
                    sum += *d;
                }
                sum
            })
            .collect();
        let state = FleetState {
            runs: vec![(plan.hosts(), 1.0)],
            group: Vec::new(),
            demand,
        };
        (state, shard_demand)
    }

    /// Fill the group ids in one ascending pass, unless an earlier host
    /// pass has; [`host_pass`] reads them.
    fn fill_groups(&mut self) {
        if self.group.is_empty() {
            let hosts = self.demand.len() as u32;
            self.group = (0..hosts).map(|h| HostId(h).group(GROUPS) as u8).collect();
        }
    }

    /// Apply one cycle's agent crashes. A host in `down` adds `+0.0` to
    /// its shard's partial, which leaves the sum bit for bit what it is
    /// without the host, and holds ratio 1.0, so it marks nothing. A
    /// host in `was_down` that is up again gets its demand back and
    /// restarts at ratio 1.0, as [`StatefulMeter`]'s `reset` does.
    /// Both lists ascend; returns the restart count. A cycle with no
    /// down and no restarting host touches no host.
    fn crash(&mut self, config: &FleetConfig, was_down: &[u32], down: &[u32]) -> u64 {
        if was_down.is_empty() && down.is_empty() {
            return 0;
        }
        let restarted: Vec<u32> = was_down
            .iter()
            .filter(|h| down.binary_search(h).is_err())
            .copied()
            .collect();
        for &h in down {
            self.demand[h as usize] = 0.0;
        }
        for &h in &restarted {
            self.demand[h as usize] = host_demand_bps(config.seed, config.per_host_rate, h);
        }
        let mut reset = [down, &restarted].concat();
        reset.sort_unstable();
        set_ratios(&mut self.runs, &reset, 1.0);
        restarted.len() as u64
    }
}

/// Set each of `hosts` (ascending, distinct) to `ratio`: the runs they
/// fall in split around them, and neighbours that end up equal in bits
/// merge, so the runs stay well formed.
fn set_ratios(runs: &mut Vec<(usize, f64)>, hosts: &[u32], ratio: f64) {
    if hosts.is_empty() {
        return;
    }
    let mut out = Vec::with_capacity(runs.len() + 2 * hosts.len());
    let mut hosts = hosts.iter().map(|&h| h as usize).peekable();
    let mut start = 0;
    for &(end, old) in runs.iter() {
        while let Some(h) = hosts.next_if(|&h| h < end) {
            if start < h {
                out.push((h, old));
            }
            out.push((h + 1, ratio));
            start = h + 1;
        }
        if start < end {
            out.push((end, old));
        }
        start = end;
    }
    merge_runs(&mut out);
    *runs = out;
}

/// Every host's ratio, host order, written over `out`'s contents.
fn expand_runs(runs: &[(usize, f64)], mut out: Vec<f64>) -> Vec<f64> {
    out.clear();
    for &(end, ratio) in runs {
        out.resize(end, ratio);
    }
    out
}

/// Merge neighbouring runs whose ratios are equal in bits, so `-0.0`
/// and `+0.0`, or two NaN payloads, stay apart.
fn merge_runs(runs: &mut Vec<(usize, f64)>) {
    runs.dedup_by(|next, prev| {
        let same = next.1.to_bits() == prev.1.to_bits();
        if same {
            prev.0 = next.0;
        }
        same
    });
}

/// Hosts per keep-mask block of [`fold_abreast`].
const BLOCK: usize = 64;

// A block's kept hosts are counted in one byte.
const _: () = assert!(BLOCK <= u8::MAX as usize);

/// Shards [`fold_abreast`] folds side by side.
const LANES: usize = 8;

/// The demand a spare lane adds when a group is narrower than
/// [`LANES`]; its sums are dropped.
static IDLE: [f64; BLOCK] = [0.0; BLOCK];

/// One lane's walk through the meter runs: the run holding the lane's
/// next host, and that run's marking cut.
#[derive(Clone, Copy)]
struct Cursor {
    run: usize,
    cut: u8,
}

impl Cursor {
    /// The cursor at `host` (`runs.len()` with cut 0 past the last host).
    fn at(runs: &[(usize, f64)], host: usize) -> Cursor {
        let run = runs.partition_point(|&(end, _)| end <= host);
        let cut = runs.get(run).map_or(0, |&(_, ratio)| cut_of(ratio));
        Cursor { run, cut }
    }

    /// Write the keep-mask of hosts `from..from + keep.len()`, which
    /// start at the cursor: `0xFF` for a host at or above its run's cut,
    /// zero for a marked one. Returns how many are marked. The cut is
    /// computed once per run, as the walk enters it.
    fn mask(&mut self, runs: &[(usize, f64)], group: &[u8], from: usize, keep: &mut [u8]) -> u64 {
        let mut marked = 0;
        let mut at = 0;
        while at < keep.len() {
            let end = runs[self.run].0;
            if end <= from + at {
                self.run += 1;
                self.cut = cut_of(runs[self.run].1);
                continue;
            }
            let stop = (end - from).min(keep.len());
            let cut = self.cut;
            // At most BLOCK hosts, so a byte counts them.
            let mut kept = 0u8;
            for (keep, &g) in keep[at..stop]
                .iter_mut()
                .zip(&group[from + at..from + stop])
            {
                let k = u8::from(g >= cut);
                *keep = k.wrapping_neg();
                kept += k;
            }
            marked += (stop - at - usize::from(kept)) as u64;
            at = stop;
        }
        marked
    }
}

/// A keep-mask byte as the 64-bit mask of a demand's bits: sign
/// extension takes `0xFF` to all-ones and zero to zero.
#[inline]
fn widen(keep: u8) -> u64 {
    keep as i8 as u64
}

/// The number of groups a host at `ratio` remarks, as one byte.
fn cut_of(ratio: f64) -> u8 {
    Marker::marked_group_count(ratio) as u8
}

/// The host pass over up to [`LANES`] shards at once: each range's
/// ascending-host-order fold of its demand into `(total, conform,
/// marked_hosts)`, written to `out` in range order. A host whose group
/// id falls under its meter's cut is remarked: its traffic leaves the
/// conforming aggregate (same rule as `Agent::self_marked`).
///
/// The shards go forward together, one block of [`BLOCK`] hosts each
/// at a time, over the full blocks they all have. For each block, a
/// keep-mask loop per lane first writes one byte per host, `0xFF` at or
/// above the cut and zero for a marked host, computing the cut once per
/// run of bit-equal ratios the lane enters. One adding loop then moves
/// every lane one host per step, so each lane's `total` and `conform`
/// are two of 16 independent add chains in flight rather than the only
/// two. A lane is still exactly its shard's sum in host order: a group
/// narrower than [`LANES`] adds zeros in its spare lanes, and each lane
/// finishes the hosts past the common full blocks on its own, block by
/// block with the same two loops.
///
/// On the conform side the demand's bits are masked by the keep byte,
/// sign-extended: a marked host adds `+0.0`, which leaves every sum but
/// `-0.0` as it was, and `conform` starts at `+0.0` and can never become
/// `-0.0`. The mask has to come from memory: written as a select in the
/// adding loop, the compiler turns it back into a branch per host, and
/// the pass costs several times more at 50 % marked than at 0 %. The
/// mask is a byte a host, not a 64-bit word, so the mask loop compares
/// and stores eight hosts per instruction instead of widening each to a
/// word: with word masks it cost more than the adds and the lanes
/// gained nothing.
fn fold_abreast(
    ranges: &[Range<usize>],
    runs: &[(usize, f64)],
    group: &[u8],
    demand: &[f64],
    out: &mut [(f64, f64, u64)],
) {
    debug_assert!(ranges.len() <= LANES && ranges.len() == out.len());
    let mut total = [0.0f64; LANES];
    let mut conform = [0.0f64; LANES];
    let mut marked = [0u64; LANES];
    let mut keep = [[0u8; BLOCK]; LANES];
    let mut cursor = [Cursor { run: 0, cut: 0 }; LANES];
    for (cursor, range) in cursor.iter_mut().zip(ranges) {
        *cursor = Cursor::at(runs, range.start);
    }
    // The full blocks every lane has, each lane's as whole blocks.
    let common = ranges.iter().map(ExactSizeIterator::len).min().unwrap_or(0) / BLOCK * BLOCK;
    let mut blocks: [&[[f64; BLOCK]]; LANES] = [&[]; LANES];
    for (blocks, range) in blocks.iter_mut().zip(ranges) {
        *blocks = demand[range.start..range.start + common].as_chunks().0;
    }
    for at in (0..common).step_by(BLOCK) {
        let mut lane_demand = [&IDLE; LANES];
        for (l, range) in ranges.iter().enumerate() {
            marked[l] += cursor[l].mask(runs, group, range.start + at, &mut keep[l]);
            lane_demand[l] = &blocks[l][at / BLOCK];
        }
        for i in 0..BLOCK {
            for l in 0..LANES {
                let d = lane_demand[l][i];
                total[l] += d;
                conform[l] += f64::from_bits(d.to_bits() & widen(keep[l][i]));
            }
        }
    }
    for (l, (range, out)) in ranges.iter().zip(out).enumerate() {
        for from in (range.start + common..range.end).step_by(BLOCK) {
            let n = BLOCK.min(range.end - from);
            let keep = &mut keep[l][..n];
            marked[l] += cursor[l].mask(runs, group, from, keep);
            for (&d, &keep) in demand[from..from + n].iter().zip(&*keep) {
                total[l] += d;
                conform[l] += f64::from_bits(d.to_bits() & widen(keep));
            }
        }
        *out = (total[l], conform[l], marked[l]);
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

/// Compute every shard's partial, [`LANES`] consecutive shards per
/// [`fold_abreast`]. `Par` assigns contiguous shard blocks to scoped
/// workers, each folding its block the same way; a shard's partial is
/// its own lane's sum whichever group or thread computes it.
fn host_pass(
    config: &FleetConfig,
    plan: &ShardPlan,
    state: &FleetState,
    partials: &mut [(f64, f64, u64)],
) {
    let fold = |first: usize, partials: &mut [(f64, f64, u64)]| {
        for (i, out) in partials.chunks_mut(LANES).enumerate() {
            let s = first + i * LANES;
            let ranges: [Range<usize>; LANES] = std::array::from_fn(|l| {
                if l < out.len() {
                    plan.range(s + l)
                } else {
                    0..0
                }
            });
            let ranges = &ranges[..out.len()];
            fold_abreast(ranges, &state.runs, &state.group, &state.demand, out);
        }
    };
    match config.strategy {
        FleetStrategy::Deterministic => fold(0, partials),
        FleetStrategy::Parallel => {
            let workers = effective_workers(config, plan.shards());
            let block = plan.shards().div_ceil(workers);
            let fold = &fold;
            std::thread::scope(|scope| {
                for (b, chunk) in partials.chunks_mut(block).enumerate() {
                    scope.spawn(move || fold(b * block, chunk));
                }
            });
        }
    }
}

/// Every host's marking cut as `(end, cut)` runs; see [`cut_runs`].
type CutRuns = Vec<(usize, u8)>;

/// A shard's `(total, conform, marked_hosts)`, as [`fold_abreast`]
/// writes it.
type Partial = (f64, f64, u64);

/// The host pass's input beyond the group ids and the demand: the
/// marking cut of every host, as runs with equal neighbours merged
/// (`(end, cut)`, as [`FleetState::runs`] holds ratios). The pass reads
/// the meter runs only through [`cut_of`], so two states with the same
/// cut runs fold to the same partials in bits.
fn cut_runs(runs: &[(usize, f64)]) -> CutRuns {
    let mut out: CutRuns = Vec::with_capacity(runs.len());
    for &(end, ratio) in runs {
        let cut = cut_of(ratio);
        match out.last_mut() {
            Some(last) if last.1 == cut => last.0 = end,
            _ => out.push((end, cut)),
        }
    }
    out
}

/// Distinct pass inputs whose partials [`PassMemo`] keeps.
const MEMO_KEYS: usize = 2;

/// The partials of the last [`MEMO_KEYS`] distinct host-pass inputs,
/// keyed by [`cut_runs`]. The key leaves out the group ids, which never
/// change, and the demand, which the engine changes only with the down
/// set: a new down set must empty `entries`.
struct PassMemo {
    /// `(key, partials)`, the most recently served first.
    entries: Vec<(CutRuns, Vec<Partial>)>,
    /// Host passes run.
    passes: u64,
}

impl PassMemo {
    /// A memo holding a fresh fleet's partials: every host is at ratio
    /// 1.0, cut 0, so nobody is marked and each shard's partial is
    /// `(demand, demand, 0)`.
    fn new(state: &FleetState, shard_demand: &[f64]) -> PassMemo {
        let key = cut_runs(&state.runs);
        debug_assert!(key.iter().all(|&(_, cut)| cut == 0), "{key:?}");
        let partials = shard_demand.iter().map(|&d| (d, d, 0)).collect();
        PassMemo {
            entries: vec![(key, partials)],
            passes: 0,
        }
    }

    /// Every shard's partial for `state`: the kept ones if its cuts
    /// were served before under this demand, else a [`host_pass`]'s,
    /// which then displace the least recently served.
    fn partials(
        &mut self,
        config: &FleetConfig,
        plan: &ShardPlan,
        state: &mut FleetState,
    ) -> &[Partial] {
        let key = cut_runs(&state.runs);
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries[..=i].rotate_right(1);
        } else {
            let mut partials = vec![(0.0, 0.0, 0); plan.shards()];
            state.fill_groups();
            host_pass(config, plan, state, &mut partials);
            self.passes += 1;
            self.entries.truncate(MEMO_KEYS - 1);
            self.entries.insert(0, (key, partials));
        }
        &self.entries[0].1
    }
}

/// Update every host's meter from the folded global aggregates — the
/// identical per-host float ops as `StatefulMeter::update`, so a fleet
/// host and a flat-path agent fed the same inputs stay bit-identical.
/// The aggregates are fixed for the pass, so a run's hosts all move to
/// one new ratio: one update per run, then runs that met merge.
fn meter_pass(runs: &mut Vec<(usize, f64)>, total: f64, conform: f64, entitled: f64) {
    let recovery = 2.0; // StatefulMeter::new's paper default
    for run in runs.iter_mut() {
        run.1 = StatefulMeter::update_value(run.1, total, conform, entitled, recovery);
    }
    merge_runs(runs);
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

/// Run the fleet engine, recording spans and events into `obs` and
/// feeding the caller's two health folds.
///
/// All telemetry and KV traffic is issued from the driver thread in
/// deterministic order (cycle, then shard index), so traces, the
/// metrics folded from them and both health folds are byte-identical
/// across strategies, and re-folding the saved trace with `fold_trace`
/// reproduces the reports exactly. After the last cycle one
/// `fleet`/`run` event names the fleet's `hosts` and `shards`.
///
/// The caller builds `slo` and `watch` under whatever policy it wants
/// and reads `report()` afterwards. Each cycle is one [`CycleObs`] for
/// the global entity, which both fold. They are two arguments, not one
/// observer, because they are fed at different points of a cycle:
/// `slo` gets the tick, written once as its `slo`/`cycle` event (plus
/// an `slo`/`interval` [`IntervalObs`] per shard with
/// [`FleetConfig::per_shard_slis`]), *inside* the `agent`/`cycle`
/// span, so those events carry the cycle span as `parent_id`; `watch`
/// gets the same tick and the W0102 shard reconciliation (the
/// servable partials re-summed in shard order and bit-compared against
/// the fold the meters consumed) *after* the span closes, so `watch`/`*`
/// events are roots and never perturb span durations.
///
/// **Agent crashes.** While an `AgentCrash` window holds a host down,
/// it adds nothing to its shard's partial and marks nothing; the
/// offered demand the SLO fold judges delivery against keeps it, so
/// the fold sees the lost delivery. When the window closes the host
/// restarts with fresh meter state ([`FleetOutcome::restarts`]).
///
/// # Errors
///
/// Propagates [`ShardPlan::new`] validation failures, and rejects more
/// hosts than 32-bit host ids can name, a run whose last cycle
/// overflows the `u64` millisecond clock ([`FleetConfig::end_ms`]) and
/// an `AgentCrash` naming a host outside the fleet.
pub fn run_fleet_engine_with(
    config: &FleetConfig,
    obs: &Obs,
    slo: &mut SloEvaluator,
    watch: &mut WatchEvaluator,
) -> Result<FleetOutcome, String> {
    run_engine(config, obs, slo, watch, |_| {})
}

/// The engine behind [`run_fleet_engine_with`]; `on_cycle` sees the
/// meter runs at the end of every cycle.
fn run_engine(
    config: &FleetConfig,
    obs: &Obs,
    slo: &mut SloEvaluator,
    watch: &mut WatchEvaluator,
    mut on_cycle: impl FnMut(&[(usize, f64)]),
) -> Result<FleetOutcome, String> {
    let plan = ShardPlan::new(config.hosts, config.shards)?;
    if u32::try_from(config.hosts).is_err() {
        return Err(format!(
            "{} hosts: host ids are 32-bit, at most {}",
            config.hosts,
            u32::MAX
        ));
    }
    let Some(end_ms) = config.end_ms() else {
        return Err(format!(
            "{} cycles of {} ms overflow the u64 millisecond clock",
            config.cycles, CYCLE_MS
        ));
    };
    let fault_plan = Arc::new(config.faults.clone().unwrap_or_else(FaultPlan::none));
    for (i, fault) in fault_plan.faults.iter().enumerate() {
        if let FaultKind::AgentCrash { hosts } = &fault.kind {
            if let Some(h) = hosts.iter().find(|&&h| h as usize >= config.hosts) {
                return Err(format!(
                    "fault {i}: AgentCrash host {h} is outside the fleet's {} hosts",
                    config.hosts
                ));
            }
        }
    }
    let shards = plan.shards();
    let store = Arc::new(ShardedStore::new(StoreConfig {
        shards,
        ttl: Duration::from_millis(CYCLE_MS * 4),
    }));
    let kv = ObservedKv::new(ChaosStore::new(Arc::clone(&store), Arc::clone(&fault_plan)), obs);

    let (mut state, shard_demand) = FleetState::new(config, &plan);
    // Demand total folded the same way the partials fold: shard order.
    let demand_bps: f64 = shard_demand.iter().sum();

    let total_prefix = format!("rates/{}/{QOS}/total/", NPG.0);
    let conform_prefix = format!("rates/{}/{QOS}/conform/", NPG.0);
    let staleness_ms = STALENESS_CYCLES * CYCLE_MS;
    let mut fan_total = ShardFanout::new(shards, staleness_ms);
    let mut fan_conform = ShardFanout::new(shards, staleness_ms);
    let mut shard_stats = vec![FleetShardStats::default(); shards];
    // Grown per cycle, never reserved from `cycles`: the count is a
    // caller's, and a run of 10¹⁴ cycles must not abort on allocation.
    let mut cycle_stats = Vec::new();
    let mut memo = PassMemo::new(&state, &shard_demand);
    let mut fail_static_cycles = 0u64;
    let (mut down, mut restarts) = (Vec::new(), 0u64);
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
    let mut shard_values = Vec::with_capacity(shards);
    let mut tick = CycleObs {
        entity: NPG.to_string(),
        qos: QOS.to_string(),
        demand_bps,
        delivered_bps: 0.0,
        approved_bps: config.entitled.as_bps(),
        marked_fraction: 0.0,
        conform_fraction: 0.0,
        staleness_ms: 0.0,
        measurable: false,
    };
    // The per-shard SLIs' entities too: a cycle sets what it measured.
    let mut shard_slis: Vec<IntervalObs> = if config.per_shard_slis {
        let slis = shard_demand.iter().enumerate().map(|(s, &sd)| IntervalObs {
            entity: format!("{}/s{s}", tick.entity),
            qos: tick.qos.clone(),
            target: SLO_TARGET,
            demand_bps: sd,
            delivered_bps: 0.0,
            // Pro-rata share of the service entitlement.
            approved_bps: config.entitled.as_bps() * sd / demand_bps,
            measurable: false,
        });
        slis.collect()
    } else {
        Vec::new()
    };

    for cycle in 1..=config.cycles {
        let now_ms = cycle as u64 * CYCLE_MS;
        obs.clock.set_ms(now_ms);
        let span = obs.span("agent", "cycle");

        // 0. Agent crashes and restarts.
        let was_down = std::mem::replace(&mut down, fault_plan.down_hosts(now_ms));
        restarts += state.crash(config, &was_down, &down);
        if down != was_down {
            // The demand the memo's partials were folded under moved.
            memo.entries.clear();
        }

        // 1. Host pass (the parallelizable part), unless the memo holds
        // this input's partials.
        let partials = memo.partials(config, &plan, &mut state);
        let marked_hosts: u64 = partials.iter().map(|p| p.2).sum();
        let marked_fraction = marked_hosts as f64 / config.hosts as f64;

        // 2. Shard publish, driver-side, shard order.
        for (s, (batch, &(total, conform, _))) in entries.iter_mut().zip(partials).enumerate() {
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
                meter_pass(&mut state.runs, total, conform, config.entitled.as_bps());
                // A down host's meter does not run.
                set_ratios(&mut state.runs, &down, 1.0);
                Some((total, conform))
            }
            _ => {
                fail_static_cycles += 1;
                None
            }
        };

        if obs.enabled() {
            emit_shard_events(obs, &snap_total, &snap_conform);
        }

        let live_total = snap_total.fold_live();
        let live_conform = snap_conform.fold_live();

        // 5. SLO fold: the tick, plus per-shard SLIs when on. Staleness
        // here is the cost of degraded serves: each held or missing
        // shard this cycle ages the decision by one cycle (a healthy
        // run holds it at zero).
        let degraded = (snap_total.held() + snap_total.missing()) as f64;
        tick.delivered_bps = live_conform;
        tick.marked_fraction = marked_fraction;
        tick.conform_fraction = if live_total > 0.0 {
            live_conform / live_total
        } else {
            1.0
        };
        tick.staleness_ms = degraded * CYCLE_MS as f64;
        tick.measurable = snap_total.missing() == 0 && snap_conform.missing() == 0;
        slo.observe_cycle(obs, SLO_TARGET, &tick);
        for (sli, read) in shard_slis.iter_mut().zip(snap_conform.shards()) {
            (sli.delivered_bps, sli.measurable) = match *read {
                ShardRead::Fresh(v) | ShardRead::Held(v) => (v, true),
                ShardRead::Missing => (0.0, false),
            };
            slo.observe(obs, sli);
        }
        span.finish();

        // 6. Watchdog fold, outside the cycle span so watch events
        // never perturb span durations.
        watch.observe_cycle(obs, &tick);
        // W0102: re-sum the servable shard partials and bit-compare
        // against the fold the meters consumed. Skipped when the fold
        // itself failed (a missing shard is W0105's territory).
        if let Ok(folded) = folded_total {
            shard_values.clear();
            shard_values.extend(snap_total.shards().iter().map(|r| match *r {
                ShardRead::Fresh(v) | ShardRead::Held(v) => v,
                ShardRead::Missing => 0.0,
            }));
            watch.observe_shards(obs, &tick.entity, &tick.qos, folded, &shard_values);
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
        on_cycle(&state.runs);
    }

    let final_total = store.aggregate_sum(&total_prefix, end_ms);
    let marked_fraction = cycle_stats.last().map_or(0.0, |c| c.marked_fraction);
    // The fleet's shape, once, after its last cycle: what the metrics
    // fold reads the `entitlement_fleet_{hosts,shards}` gauges off.
    obs.point("fleet", "run")
        .label_fmt("hosts", config.hosts)
        .label_fmt("shards", shards)
        .finish();
    Ok(FleetOutcome {
        // The demand buffer is dead past the last cycle: reuse it.
        conform_ratios: expand_runs(&state.runs, std::mem::take(&mut state.demand)),
        marked_fraction,
        fail_static_cycles,
        restarts,
        cycles: cycle_stats,
        shard_stats,
        host_passes: memo.passes,
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

    /// The fan-out's reads land in the drill's KV families: two
    /// prefixes × shards × cycles, all served.
    #[test]
    fn observed_fleet_counts_its_fan_out_reads() {
        let obs = Obs::new(entitlement_obs::Clock::counting(1));
        run_fleet_engine_with(
            &small_config(),
            &obs,
            &mut SloEvaluator::default(),
            &mut WatchEvaluator::default(),
        )
        .unwrap();
        let text = entitlement_obs::fold_metrics(&obs.trace.events()).unwrap();
        assert!(
            text.contains("entitlement_kv_ops_total{op=\"aggregate\",outcome=\"ok\"} 96\n"),
            "{text}"
        );
        assert!(text.contains("entitlement_kv_op_ms_count{op=\"aggregate\"} 96\n"), "{text}");
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

    /// The scalar host pass [`fold_abreast`] replaced: a branch per
    /// host, the cut recomputed per host from a per-host ratio vector,
    /// one shard at a time. The oracle the kernel is held to.
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

    /// The per-host meter loop [`meter_pass`] replaced.
    fn scalar_meter(prev_cr: &mut [f64], total: f64, conform: f64, entitled: f64) {
        for cr in prev_cr {
            *cr = StatefulMeter::update_value(*cr, total, conform, entitled, 2.0);
        }
    }

    /// The runs of a per-host ratio vector: one run per host, merged.
    fn runs_from(ratios: &[f64]) -> Vec<(usize, f64)> {
        let mut runs: Vec<_> = ratios
            .iter()
            .enumerate()
            .map(|(h, &cr)| (h + 1, cr))
            .collect();
        merge_runs(&mut runs);
        runs
    }

    /// The state invariant: ends strictly ascend up to `hosts`, and
    /// neighbouring runs differ in bits.
    fn well_formed(runs: &[(usize, f64)], hosts: usize) -> bool {
        runs.last().map_or(0, |run| run.0) == hosts
            && runs.first().is_none_or(|run| run.0 > 0)
            && runs
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1.to_bits() != w[1].1.to_bits())
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

    /// Random state over `n` hosts, and its ratios host by host for the
    /// oracles: groups over the whole id space, demands with `0.0` and
    /// `-0.0` mixed in.
    fn random_state(rng: &mut DetRng, n: usize, pattern: u8) -> (Vec<f64>, FleetState) {
        let prev_cr = ratios(rng, n, pattern);
        let state = FleetState {
            runs: runs_from(&prev_cr),
            group: (0..n).map(|_| rng.usize(GROUPS as usize) as u8).collect(),
            demand: (0..n)
                .map(|_| match rng.usize(8) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.range(0.75e9, 1.25e9),
                })
                .collect(),
        };
        (prev_cr, state)
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

    /// Ratios whose bits differ although some compare equal (`±0.0`)
    /// or none do (three NaNs, two of them differing only in payload).
    const EDGE_RATIOS: [f64; 8] = [
        1.0,
        0.5,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0xfff8_0000_0000_0000),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Expanding the runs of any per-host vector gives it back bit
        /// for bit, over whatever the buffer held, and the runs are well
        /// formed: values equal under `==` but not in bits stay separate
        /// runs.
        #[test]
        fn runs_round_trip_bit_for_bit(
            pieces in proptest::collection::vec((0..EDGE_RATIOS.len(), 1usize..20), 0..40),
            stale in 0usize..800,
        ) {
            let ratios: Vec<f64> = pieces
                .iter()
                .flat_map(|&(value, len)| std::iter::repeat_n(EDGE_RATIOS[value], len))
                .collect();
            let runs = runs_from(&ratios);
            prop_assert!(well_formed(&runs, ratios.len()), "{runs:?}");
            let buffer = vec![-1.5; stale];
            prop_assert_eq!(ratio_bits(&expand_runs(&runs, buffer)), ratio_bits(&ratios));
        }

        /// Setting any hosts to one ratio matches setting them host by
        /// host, and keeps the runs well formed.
        #[test]
        fn set_ratios_matches_the_per_host_set(
            (seed, hosts) in (any::<u64>(), 1usize..300),
            (pattern, value) in (0u8..4, 0..EDGE_RATIOS.len()),
            picks in proptest::collection::vec(any::<usize>(), 0..20),
        ) {
            let mut rng = DetRng::new(seed);
            let mut per_host = ratios(&mut rng, hosts, pattern);
            let mut runs = runs_from(&per_host);
            let mut set: Vec<u32> = picks.iter().map(|&p| (p % hosts) as u32).collect();
            set.sort_unstable();
            set.dedup();
            let ratio = EDGE_RATIOS[value];
            for &h in &set {
                per_host[h as usize] = ratio;
            }
            set_ratios(&mut runs, &set, ratio);
            prop_assert!(well_formed(&runs, hosts), "{runs:?}");
            prop_assert_eq!(ratio_bits(&expand_runs(&runs, Vec::new())), ratio_bits(&per_host));
        }

        /// Both kernels on runs against the per-host loops they
        /// replaced, bit for bit. The host pass gets one to eight lanes
        /// of equal lengths, lengths one apart as a plan cuts them, up
        /// to a block apart, or anything: ranges that start and end
        /// mid-run and off a block boundary, shorter than a block, or
        /// empty. Pattern 2 is one run per host.
        #[test]
        fn kernels_match_the_scalar_loops(
            seed in any::<u64>(),
            (hosts, lanes) in (0usize..600, 1usize..=LANES),
            (len, spread) in (0usize..300, 0u8..4),
            pattern in 0u8..4,
        ) {
            let mut rng = DetRng::new(seed);
            let (prev_cr, state) = random_state(&mut rng, hosts, pattern);
            let (group, demand) = (&state.group, &state.demand);
            let ranges: Vec<_> = (0..lanes)
                .map(|_| {
                    let len = match spread {
                        0 => len,
                        1 => len + rng.usize(2),
                        2 => len + rng.usize(BLOCK + 1),
                        _ => rng.usize(len + 1),
                    }
                    .min(hosts);
                    let start = rng.usize(hosts - len + 1);
                    start..start + len
                })
                .collect();
            let mut out = vec![(f64::NAN, f64::NAN, u64::MAX); lanes];
            fold_abreast(&ranges, &state.runs, group, demand, &mut out);
            for (range, &got) in ranges.iter().zip(&out) {
                prop_assert_eq!(
                    bits(got),
                    bits(scalar_shard_partial(range.clone(), &prev_cr, group, demand)),
                    "{:?} of {:?}", range, ranges
                );
            }
            for (total, conform) in METER_INPUTS {
                let mut kernel = state.runs.clone();
                let mut scalar = prev_cr.clone();
                meter_pass(&mut kernel, total, conform, 1e12);
                scalar_meter(&mut scalar, total, conform, 1e12);
                prop_assert!(well_formed(&kernel, prev_cr.len()), "{kernel:?}");
                prop_assert_eq!(ratio_bits(&expand_runs(&kernel, Vec::new())), ratio_bits(&scalar));
            }
        }

        /// The two passes as the engine drives them, under both
        /// strategies and 1-3 workers, over 1-20 shards (so full lane
        /// groups, a narrower last group, and a worker's block ending
        /// mid-group) of a few hosts to several blocks each: every
        /// shard's partial, before and after a meter pass, and every
        /// expanded ratio equal the scalar loops'.
        #[test]
        fn passes_match_the_scalar_loops_under_both_strategies(
            seed in any::<u64>(),
            (hosts, shards) in (1usize..=1500, 1usize..=20),
            workers in 1usize..=3,
            pattern in 0u8..4,
        ) {
            let shards = shards.min(hosts);
            let plan = ShardPlan::new(hosts, shards).expect("a valid shape");
            let mut rng = DetRng::new(seed);
            let (prev_cr, mut state) = random_state(&mut rng, hosts, pattern);
            let scalar_pass = |prev_cr: &[f64], state: &FleetState| -> Vec<_> {
                let (group, demand) = (&state.group, &state.demand);
                (0..shards)
                    .map(|s| bits(scalar_shard_partial(plan.range(s), prev_cr, group, demand)))
                    .collect()
            };
            for strategy in [FleetStrategy::Deterministic, FleetStrategy::Parallel] {
                let config = FleetConfig {
                    hosts,
                    shards,
                    strategy,
                    workers,
                    ..FleetConfig::default()
                };
                let kernel_pass = |state: &FleetState| -> Vec<_> {
                    let mut partials = vec![(0.0, 0.0, 0u64); shards];
                    host_pass(&config, &plan, state, &mut partials);
                    partials.into_iter().map(bits).collect()
                };
                prop_assert_eq!(kernel_pass(&state), scalar_pass(&prev_cr, &state));
                let runs = state.runs.clone();
                for (total, conform) in METER_INPUTS {
                    let mut scalar = prev_cr.clone();
                    meter_pass(&mut state.runs, total, conform, 1e12);
                    scalar_meter(&mut scalar, total, conform, 1e12);
                    let expanded = expand_runs(&state.runs, Vec::new());
                    prop_assert_eq!(ratio_bits(&expanded), ratio_bits(&scalar));
                    prop_assert_eq!(kernel_pass(&state), scalar_pass(&scalar, &state));
                    state.runs.clone_from(&runs);
                }
            }
        }
    }

    /// The engine's outcome, and its meter runs after every cycle.
    fn runs_per_cycle(config: &FleetConfig) -> (FleetOutcome, Vec<Vec<(usize, f64)>>) {
        let mut seen = Vec::new();
        let out = run_engine(
            config,
            &Obs::disabled(),
            &mut SloEvaluator::default(),
            &mut WatchEvaluator::default(),
            |runs| seen.push(runs.to_vec()),
        )
        .unwrap();
        (out, seen)
    }

    /// Every host meters on the same folded pair, so the meter state is
    /// one run after every cycle in every load regime and through a
    /// dark shard held, then fail-static: a change that splits it fails
    /// here instead of costing 16 B a host.
    #[test]
    fn the_engine_state_stays_one_run() {
        let base = FleetConfig {
            hosts: 2000,
            shards: 8,
            cycles: 16,
            ..small_config()
        };
        let offered: f64 = (0..base.hosts as u32)
            .map(|h| host_demand_bps(base.seed, base.per_host_rate, h))
            .sum();
        let dark = FleetConfig {
            entitled: Rate::bps(offered / 2.0),
            faults: Some(FaultPlan {
                seed: 1,
                faults: vec![Fault {
                    window: TimeWindow::new(6000, 10_001),
                    kind: FaultKind::ShardOutage { shards: vec![3] },
                }],
            }),
            ..base.clone()
        };
        let mut configs: Vec<_> = [0.5, 1.0, 2.0, 10.0]
            .iter()
            .map(|load| FleetConfig {
                entitled: Rate::bps(offered / load),
                ..base.clone()
            })
            .collect();
        configs.push(dark);
        for config in &configs {
            let (out, seen) = runs_per_cycle(config);
            assert_eq!(seen.len(), config.cycles);
            for (cycle, runs) in seen.iter().enumerate() {
                assert!(
                    runs.len() == 1 && runs[0].0 == config.hosts,
                    "cycle {} at entitled {}: {runs:?}",
                    cycle + 1,
                    config.entitled.as_bps()
                );
            }
            assert_eq!(
                ratio_bits(&out.conform_ratios),
                ratio_bits(&expand_runs(&seen[config.cycles - 1], Vec::new()))
            );
            if config.faults.is_some() {
                assert_eq!(out.shard_stats[3].held_serves, 1);
                assert!(
                    out.fail_static_cycles > 0,
                    "the dark shard outlives the staleness bound"
                );
            }
        }
    }

    /// A fresh fleet's memo holds what a host pass over it folds, in
    /// bits, `±0.0` demands included: the state build's sums start at
    /// `+0.0`, as a kernel lane does.
    #[test]
    fn the_seeded_partials_are_a_fresh_pass() {
        for rate in [10e9, 0.0, -0.0] {
            let config = FleetConfig {
                per_host_rate: Rate::bps(rate),
                ..small_config()
            };
            let plan = ShardPlan::new(config.hosts, config.shards).unwrap();
            let (mut state, shard_demand) = FleetState::new(&config, &plan);
            let mut memo = PassMemo::new(&state, &shard_demand);
            let seeded: Vec<_> = memo
                .partials(&config, &plan, &mut state)
                .iter()
                .map(|&p| bits(p))
                .collect();
            assert_eq!(memo.passes, 0);
            assert!(state.group.is_empty(), "a memo hit reads no group id");
            state.fill_groups();
            let mut fresh = vec![(f64::NAN, f64::NAN, u64::MAX); plan.shards()];
            host_pass(&config, &plan, &state, &mut fresh);
            assert_eq!(
                seeded,
                fresh.into_iter().map(bits).collect::<Vec<_>>(),
                "rate {rate}"
            );
        }
    }

    /// Crashed hosts hold ratio 1.0 and split the one run while down;
    /// each restarts once when its window closes.
    #[test]
    fn crashed_hosts_hold_ratio_one_and_restart() {
        let config = FleetConfig {
            faults: Some(FaultPlan {
                seed: 1,
                faults: vec![Fault {
                    window: TimeWindow::new(4000, 7001),
                    kind: FaultKind::AgentCrash { hosts: vec![100, 3, 4, 3] },
                }],
            }),
            ..small_config()
        };
        let (out, seen) = runs_per_cycle(&config);
        assert_eq!(out.restarts, 3, "three distinct hosts");
        for (cycle, runs) in seen.iter().enumerate() {
            assert!(well_formed(runs, config.hosts), "{runs:?}");
            let ratios = expand_runs(runs, Vec::new());
            if (4..=7).contains(&(cycle + 1)) {
                assert!([3, 4, 100].iter().all(|&h| ratios[h] == 1.0), "cycle {}", cycle + 1);
                assert!(ratios[0] < 1.0, "the rest of the over-entitled fleet marks");
            }
        }
        // The window's cycles fold without the three hosts.
        let without: f64 = out.cycles[3].shard_totals.iter().map(|t| t.unwrap()).sum();
        assert!(without < out.cycles[2].live_total);
        assert_eq!(out.cycles[7].live_total.to_bits(), out.cycles[2].live_total.to_bits());
    }

    #[test]
    fn crash_hosts_outside_the_fleet_are_refused() {
        let config = FleetConfig {
            faults: Some(FaultPlan {
                seed: 1,
                faults: vec![
                    Fault {
                        window: TimeWindow::new(0, 1),
                        kind: FaultKind::StaleReads,
                    },
                    Fault {
                        window: TimeWindow::new(0, 1),
                        kind: FaultKind::AgentCrash { hosts: vec![199, 200] },
                    },
                ],
            }),
            ..small_config()
        };
        let err = run_fleet_engine(&config).unwrap_err();
        assert_eq!(err, "fault 1: AgentCrash host 200 is outside the fleet's 200 hosts");
    }

    #[test]
    fn oversized_fleets_are_refused() {
        let too_many_hosts = FleetConfig {
            hosts: u32::MAX as usize + 2,
            shards: 4,
            ..FleetConfig::default()
        };
        let err = run_fleet_engine(&too_many_hosts).unwrap_err();
        assert!(err.contains("4294967297 hosts"), "{err}");
        let endless = FleetConfig {
            cycles: usize::MAX,
            ..small_config()
        };
        assert_eq!(endless.end_ms(), None);
        let err = run_fleet_engine(&endless).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
        assert_eq!(small_config().end_ms(), Some(12_000));
    }

    #[test]
    fn strategy_parses() {
        assert_eq!(FleetStrategy::parse("det"), Some(FleetStrategy::Deterministic));
        assert_eq!(FleetStrategy::parse("par"), Some(FleetStrategy::Parallel));
        assert_eq!(FleetStrategy::parse("rayon"), None);
        assert_eq!(FleetStrategy::Parallel.as_str(), "par");
    }
}
