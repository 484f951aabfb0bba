//! Heap-allocation budget of the telemetry paths, counted.
//!
//! Asking "why" has to be cheap and not asking has to be free; both
//! are statements about allocations, so they are pinned with a
//! counting global allocator instead of a timer. The allocator also
//! tracks live and peak bytes, which pins what a fleet run keeps per
//! host. The counters are per-thread (the test harness runs tests on
//! threads of their own), so concurrent tests do not see each other.

use network_entitlement::approval::ApprovalConfig;
use network_entitlement::chaos::{ChaosStore, Fault, FaultKind, FaultPlan, TimeWindow};
use network_entitlement::core::{NpgId, QosBucket, Quarter, Rate, RegionId};
use network_entitlement::enforcement::{
    host_demand_bps, run_fleet_engine, FleetConfig, FleetOutcome,
};
use network_entitlement::market::{
    generate_storm, AdmitOutcome, AdmitPath, AdmitRequest, EntitlementKind, EntitlementMarket,
    IndexKey, MarketEntitlement, MarketKey, SliceGrid, SliceId, StormConfig,
};
use network_entitlement::kvstore::{KvAccess, ObservedKv, ShardFanout, ShardedStore, StoreConfig};
use network_entitlement::obs::{Clock, Obs};
use network_entitlement::slo::{CycleObs, IntervalObs, SloEvaluator};
use network_entitlement::watch::WatchEvaluator;
use network_entitlement::topology::BackboneSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed (memory freed on
    /// another thread than the one that allocated it skews both
    /// threads' counts, so only single-threaded runs read it).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since [`peak_bytes`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Move this thread's live byte count by `delta`, raising the peak.
fn track(delta: i64) {
    let live = LIVE.with(|n| {
        n.set(n.get() + delta);
        n.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

/// The system allocator, counting calls that obtain memory and the
/// bytes they hold.
struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are const-initialised thread-local `Cell`s without a destructor, so
// touching them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and growing reallocations) made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The most bytes `f` held live at once on this thread, above what
/// the thread held when it started.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (PEAK.with(Cell::get) - before, out)
}

/// A warm market and a storm of asks small enough that every one of
/// them is served from the index.
fn warm_world(requests: usize) -> (EntitlementMarket, Vec<AdmitRequest>) {
    let config = ApprovalConfig {
        max_cuts: 1,
        ..Default::default()
    };
    let mut market = EntitlementMarket::new(
        BackboneSpec::small(7).build(),
        SliceGrid::quarterly(Quarter(0), 30),
        config,
    );
    let buckets = QosBucket::approval_order();
    market.warm(&buckets, &Obs::disabled());
    // C1/C2 headroom is zero under single cuts; ask where there is some.
    let storm = StormConfig {
        requests,
        max_ask_gbps: 0.002,
        ..Default::default()
    };
    let requests = generate_storm(&market, &buckets[4..], &storm);
    (market, requests)
}

#[test]
fn a_disabled_span_allocates_nothing() {
    let (n, ()) = allocations(|| {
        let obs = Obs::disabled();
        for i in 0..1_000u64 {
            obs.span("bench", "probe")
                .label("k", "v")
                .label_fmt("i", i)
                .label_f64("x", 0.5)
                .finish();
            obs.point("bench", "point").label_fmt("i", i).finish();
            obs.trace.child(i, 0.5, "bench", "child").label("k", "v").finish();
        }
    });
    assert_eq!(n, 0, "building, using and dropping a disabled Obs");
}

#[test]
fn a_plain_index_admit_allocates_nothing() {
    let (mut market, requests) = warm_world(2_000);
    // The first grant to each (npg, bucket, slice) claims a slot in the
    // market's hashed grant ledger, which allocates only when its table
    // doubles. As an ordered map it allocated a node per 6-11 new keys.
    let (first, ()) = allocations(|| {
        for req in &requests {
            assert_eq!(market.admit(req).path, AdmitPath::Index);
        }
    });
    assert!(first <= 16, "{first} allocations on the first pass");
    let (n, ()) = allocations(|| {
        for req in &requests {
            std::hint::black_box(market.admit(req));
        }
    });
    assert_eq!(n, 0, "{} untraced index-path admits", requests.len());
}

/// The benchmark's admit world: 90 DC pairs x 4 buckets x 12 slices,
/// and with `booked` its book of three reserving contracts and a
/// usage-based one.
fn admit_world(buckets: &[QosBucket], booked: bool) -> EntitlementMarket {
    let spec = BackboneSpec {
        dc_count: 10,
        pop_count: 5,
        ..BackboneSpec::small(2)
    };
    let config = ApprovalConfig {
        max_cuts: 1,
        ..Default::default()
    };
    let grid = SliceGrid::quarterly(Quarter(0), 7);
    let mut market = EntitlementMarket::new(spec.build(), grid, config);
    if booked {
        let dcs = market.topology().dc_ids();
        let entry = |npg, src: usize, dst: usize, gbps, kind| MarketEntitlement {
            npg: NpgId(npg),
            bucket: buckets[0],
            src: dcs[src],
            dst: dcs[dst],
            rate: Rate::gbps(gbps),
            kind,
        };
        market.load_contracts(&[
            entry(100, 0, 1, 20.0, EntitlementKind::Subscription),
            entry(101, 1, 2, 15.0, EntitlementKind::Subscription),
            entry(
                102,
                2,
                0,
                10.0,
                EntitlementKind::Quota { volume_bytes: 1e15 },
            ),
            entry(103, 0, 2, 50.0, EntitlementKind::UsageBased),
        ]);
    }
    market.warm(buckets, &Obs::disabled());
    market
}

#[test]
fn cloning_a_warm_market_allocates_o1() {
    let buckets = QosBucket::approval_order();
    let (one, four) = (
        admit_world(&buckets[4..5], false),
        admit_world(&buckets[4..], false),
    );
    assert_eq!(four.index().len(), 4_320);
    // The table is two buffers however many slots it holds. As two
    // ordered maps it was a node per 6-11 slots in each: 1 436
    // allocations for this world.
    let (index, copy) = allocations(|| four.index().clone());
    assert_eq!(copy.len(), 4_320);
    assert!(index <= 2, "{index} allocations for the index");
    // The rest of a market (topology, scenario sets, book) is the
    // same 147 allocations whatever the index holds; over the maps a
    // what-if copy of this world took 1 581, and 505 with one bucket.
    let (small, _) = allocations(|| one.clone());
    let (large, _) = allocations(|| four.clone());
    assert_eq!(small, large, "4x the slots, the same allocations");
    assert!(large <= 160, "{large} allocations for the market");
}

/// A re-ask of an exhausted slot on the booked admit world: the sweep
/// routes its probe on the background the market placed when it
/// warmed, one copy of a residual map per failure set, and places
/// nothing itself.
#[test]
fn a_sweep_path_admit_places_no_background() {
    let buckets = QosBucket::approval_order();
    let mut market = admit_world(&buckets[4..], true);
    assert_eq!(market.route_plan().unique_len(), 28);
    let dcs = market.topology().dc_ids();
    let req = AdmitRequest {
        npg: NpgId(7),
        bucket: buckets[4],
        slice: SliceId(0),
        src: dcs[0],
        dst: dcs[1],
        ask: Rate::gbps(1e6),
    };
    assert_eq!(
        market.admit(&req).path,
        AdmitPath::Index,
        "warm, then emptied"
    );
    let (n, d) = allocations(|| market.admit(&req));
    assert_eq!(d.path, AdmitPath::Sweep);
    assert_eq!(d.outcome, AdmitOutcome::Denied);
    // 226 when this was pinned; registering the sweep's gauge and two
    // histograms on an untraced sweep took 239, and placing the
    // background again on every sweep 430.
    assert!(n <= 226, "{n} allocations for a sweep-path admit");
}

/// An ask is outside input: a negative or non-finite rate, a slice
/// the grid does not have, a region the topology does not have. Each
/// is denied before the table, the ledger or the plan sees it — a
/// negative ask used to mint headroom, a NaN one was granted the whole
/// slot, and an unknown slice or region was swept, granted and stored.
#[test]
fn a_bad_ask_is_denied_and_touches_nothing() {
    let config = ApprovalConfig {
        max_cuts: 1,
        ..Default::default()
    };
    let grid = SliceGrid::quarterly(Quarter(0), 7);
    let mut market = EntitlementMarket::new(BackboneSpec::small(2).build(), grid, config);
    let c3_low = QosBucket::approval_order()[4];
    market.warm(&[c3_low], &Obs::disabled());
    let dcs = market.topology().dc_ids();
    let good = AdmitRequest {
        npg: NpgId(1),
        bucket: c3_low,
        slice: SliceId(0),
        src: dcs[0],
        dst: dcs[1],
        ask: Rate::gbps(1.0),
    };
    let key = IndexKey {
        src: good.src,
        dst: good.dst,
        bucket: good.bucket,
        slice: good.slice,
    };
    let ledger = MarketKey {
        npg: good.npg,
        bucket: good.bucket,
        slice: good.slice,
    };
    let residual = |m: &EntitlementMarket| {
        m.index()
            .fresh_remaining(&key)
            .map(|r| r.as_bps().to_bits())
    };
    let (before, slots) = (residual(&market), market.index().len());
    assert!(market
        .index()
        .fresh_remaining(&key)
        .is_some_and(|r| !r.is_zero()));

    let nowhere = RegionId(market.topology().region_count() as u16);
    let bad = [
        AdmitRequest {
            ask: Rate::gbps(-100.0),
            ..good
        },
        AdmitRequest {
            ask: Rate::bps(f64::NAN),
            ..good
        },
        AdmitRequest {
            ask: Rate::bps(f64::INFINITY),
            ..good
        },
        AdmitRequest {
            slice: SliceId(grid.slice_count()),
            ..good
        },
        AdmitRequest {
            slice: SliceId(9999),
            ..good
        },
        AdmitRequest {
            slice: SliceId(u32::MAX),
            ..good
        },
        AdmitRequest {
            src: nowhere,
            ..good
        },
        AdmitRequest {
            dst: RegionId(u16::MAX),
            ..good
        },
    ];
    let (n, ()) = allocations(|| {
        for req in &bad {
            let d = market.admit(req);
            assert_eq!(d.outcome, AdmitOutcome::Denied, "{req:?}");
            assert_eq!(d.path, AdmitPath::Index, "{req:?}");
            for rate in [d.granted, d.residual_before, d.residual_after] {
                assert_eq!(rate.as_bps().to_bits(), 0, "{req:?}");
            }
        }
    });
    assert_eq!(n, 0, "a denial sizes nothing from the ask");
    assert_eq!(residual(&market), before, "residual unchanged to the bit");
    assert_eq!(market.index().len(), slots);
    assert!(market.granted(&ledger).is_zero());

    // Traced, a rejected ask still is a `market`/`admit` span — it says
    // which part of the ask was refused — and took its ordinal.
    let obs = Obs::new(Clock::counting(1));
    market.admit_obs(&bad[1], &obs);
    assert_eq!(market.admit_obs(&good, &obs).outcome, AdmitOutcome::Granted);
    let admits: Vec<_> = obs
        .trace
        .events()
        .into_iter()
        .filter(|e| e.span == "market" && e.phase == "admit")
        .collect();
    assert_eq!(admits[0].label("rejected"), Some("ask"));
    assert_eq!(admits[0].label("outcome"), Some("denied"));
    assert_eq!(admits[0].label("request"), Some("8"));
    assert_eq!(admits[1].label("rejected"), None);
    assert_eq!(admits[1].label("request"), Some("9"));
}

#[test]
fn a_traced_index_admit_allocates_at_most_twice_amortised() {
    const ADMITS: usize = 10_000;
    let (mut market, requests) = warm_world(ADMITS);
    for req in &requests {
        market.admit(req);
    }
    let obs = Obs::new(Clock::counting(1));
    let (n, ()) = allocations(|| {
        for req in &requests {
            assert_eq!(market.admit_obs(req, &obs).path, AdmitPath::Index);
        }
    });
    // One event per admit: the slot state is a label on the span.
    assert_eq!(obs.trace.len(), ADMITS);
    // What is left is the pages and one float memo: 19 (38 while a
    // registry held each admit's metric cells), where the owned-event
    // sink made some 45 per admit.
    assert!(n <= 24, "{n} allocations over {ADMITS} traced admits");
}

/// A dropped sink leaves its pages to the next sink on its thread: a
/// second storm of the same size, on a fresh `Obs`, writes its trace
/// into them and allocates no page. Both
/// storms run on a thread of their own, so no earlier sink's pages are
/// waiting for the first.
#[test]
fn a_second_traced_storm_writes_into_the_first_ones_pages() {
    const ADMITS: usize = 10_000;
    let (mut market, requests) = warm_world(ADMITS);
    for req in &requests {
        market.admit(req);
    }
    let (first, second) = std::thread::scope(|s| {
        s.spawn(|| {
            let storm = || {
                let mut market = market.clone();
                let (n, bytes) = allocations(|| {
                    let obs = Obs::new(Clock::counting(1));
                    for req in &requests {
                        assert_eq!(market.admit_obs(req, &obs).path, AdmitPath::Index);
                    }
                    obs.trace.to_jsonl().len()
                });
                // Less the one allocation of the `to_jsonl` copy.
                (n - 1, bytes)
            };
            (storm(), storm())
        })
        .join()
        .expect("the storms' thread")
    });
    assert_eq!(first.1, second.1, "the same trace");
    // The 4.1 MB trace fills four pages; the first storm also grows the
    // thread's spare store to hold them when its sink drops. 45 and 36
    // when this was pinned, with a record vector beside each page's text
    // (4 × 2 + 1); 41 and 36 since a page is its text alone.
    assert_eq!(first.0 - second.0, 4 + 1, "{first:?} then {second:?}");
    assert!(second.0 <= 40, "{} allocations in the second storm", second.0);
}

#[test]
fn rendering_allocates_independently_of_the_event_count() {
    let render = |events: u64| {
        let obs = Obs::new(Clock::counting(1));
        for i in 0..events {
            obs.point("bulk", "row")
                .label_fmt("i", i)
                .label("kind", "plain")
                .finish();
        }
        let (n, text) = allocations(|| obs.trace.to_jsonl());
        assert_eq!(text.lines().count() as u64, events);
        n
    };
    let (small, large) = (render(1_000), render(64_000));
    assert!(small <= 2, "{small} allocations for 1 000 events");
    assert_eq!(small, large, "64x the events, the same allocations");
}

/// The SLO and watchdog folds run on every cycle of a fleet run: the
/// tick into both, and the shard check and the per-shard SLIs' samples.
/// Once they have seen an `(entity, QoS)`, folding another observation
/// of it allocates nothing; keyed by a `(String, String)` tuple, each
/// lookup built both names, two allocations a fold.
#[test]
fn folding_a_seen_entity_allocates_nothing() {
    let obs = Obs::disabled();
    let (entity, qos) = ("npg:2".to_string(), "c3".to_string());
    let interval = IntervalObs {
        entity: "npg:2/s0".to_string(),
        qos: qos.clone(),
        target: 0.99,
        demand_bps: 1e12,
        delivered_bps: 1e12,
        approved_bps: 1e12,
        measurable: true,
    };
    let tick = CycleObs {
        entity: entity.clone(),
        qos: qos.clone(),
        demand_bps: 1e12,
        delivered_bps: 1e12,
        approved_bps: 1e12,
        marked_fraction: 0.0,
        conform_fraction: 1.0,
        staleness_ms: 10.0,
        measurable: true,
    };
    let mut slo = SloEvaluator::default();
    let mut watch = WatchEvaluator::default();
    let mut fold = || {
        slo.observe_cycle(&obs, 0.99, &tick);
        slo.observe(&obs, &interval);
        watch.observe_cycle(&obs, &tick);
        watch.observe_shards(&obs, &entity, &qos, 1e12, &[4e11, 6e11]);
    };
    // Past the burn alert's slow window, whose ring fills as it goes.
    for _ in 0..100 {
        fold();
    }
    let (n, ()) = allocations(|| {
        for _ in 0..1_000 {
            fold();
        }
    });
    assert_eq!(n, 0, "1 000 folds of a seen (entity, QoS)");
    assert!(!slo.any_firing() && !watch.any_firing());
    assert!(watch.report().violations.is_empty(), "a healthy stream");
}

/// The fleet engine's publish: two partial keys per shard, batched onto
/// their own storage shard through the same store stack the engine
/// writes through. The first publish copies each key into the map; a
/// re-publish overwrites the entries in place. Cloning the key on every
/// write cost a pass-free 256-shard engine cycle 512 allocations.
#[test]
fn republishing_a_shard_batch_allocates_nothing() {
    const SHARDS: usize = 64;
    let store = Arc::new(ShardedStore::new(StoreConfig {
        shards: SHARDS,
        ttl: Duration::from_secs(4),
    }));
    let kv = ObservedKv::new(
        ChaosStore::new(Arc::clone(&store), Arc::new(FaultPlan::none())),
        &Obs::disabled(),
    );
    let mut batches: Vec<[(String, f64); 2]> = (0..SHARDS)
        .map(|s| {
            [
                (format!("rates/7/c2/total/s{s}"), 0.0),
                (format!("rates/7/c2/conform/s{s}"), 0.0),
            ]
        })
        .collect();
    let mut publish = |now_ms: u64| {
        for (s, batch) in batches.iter_mut().enumerate() {
            batch[0].1 = now_ms as f64;
            batch[1].1 = now_ms as f64 / 2.0;
            kv.try_put_shard_batch(s, batch, now_ms).expect("a healthy store");
        }
    };
    let (first, ()) = allocations(|| publish(1000));
    assert!(first >= 2 * SHARDS as u64, "{first}: each new key is copied once");
    let (n, ()) = allocations(|| publish(2000));
    assert_eq!(n, 0, "re-publishing {SHARDS} shard batches");
    assert_eq!(store.aggregate_sum("rates/7/c2/total/", 2000), 2000.0 * SHARDS as f64);
    assert_eq!(store.aggregate_sum("rates/7/c2/conform/", 2000), 1000.0 * SHARDS as f64);
}

/// The fleet's fan-out read through the engine's store stack, under a
/// plan with faults but no `StaleReads`: no read snapshots its value,
/// so a refresh of every shard allocates only the snapshot it returns.
/// Snapshotting every read cost three allocations a shard read (the
/// cache key formatted, then copied into the map): 769 a refresh.
#[test]
fn a_fan_out_refresh_without_stale_reads_allocates_only_its_snapshot() {
    const SHARDS: usize = 256;
    let store = Arc::new(ShardedStore::new(StoreConfig {
        shards: SHARDS,
        ttl: Duration::from_secs(4),
    }));
    let plan = FaultPlan {
        seed: 1,
        faults: vec![
            Fault {
                window: TimeWindow::new(50_000, 60_000),
                kind: FaultKind::ShardOutage { shards: vec![3] },
            },
            Fault {
                window: TimeWindow::new(0, 60_000),
                kind: FaultKind::ClockSkew { skew_ms: 10 },
            },
        ],
    };
    let kv = ObservedKv::new(ChaosStore::new(Arc::clone(&store), Arc::new(plan)), &Obs::disabled());
    for s in 0..SHARDS {
        kv.try_put_shard(s, &format!("rates/7/c2/total/s{s}"), s as f64, 1000)
            .expect("a healthy store");
    }
    let mut fanout = ShardFanout::new(SHARDS, 1000);
    fanout.refresh(&kv, "rates/7/c2/total/", 1000);
    let (n, snapshot) = allocations(|| fanout.refresh(&kv, "rates/7/c2/total/", 2000));
    assert_eq!(n, 1, "{n} allocations for a {SHARDS}-shard refresh");
    assert_eq!(snapshot.fold(), Ok((0..SHARDS).map(|s| s as f64).sum()));
}

/// The most a fleet run holds at once, per host. The run keeps an
/// 8-byte demand per host; the group ids (a byte a host) exist only
/// once a host pass needs them; the final ratios are written over the
/// demand buffer. Building the group ids up front and expanding the
/// ratios into a vector of their own peaked at 17 bytes a host.
#[test]
fn a_fleet_run_holds_eight_bytes_a_host_and_one_more_for_a_pass() {
    const HOSTS: usize = 100_000;
    // Under `det`: the byte counters are per thread.
    let base = FleetConfig {
        hosts: HOSTS,
        shards: 64,
        cycles: 8,
        ..FleetConfig::default()
    };
    let offered: f64 = (0..HOSTS as u32)
        .map(|h| host_demand_bps(base.seed, base.per_host_rate, h))
        .sum();
    let run = |load: f64| -> (f64, FleetOutcome) {
        let config = FleetConfig {
            entitled: Rate::bps(offered / load),
            ..base.clone()
        };
        let (peak, out) = peak_bytes(|| run_fleet_engine(&config).expect("a valid fleet"));
        (peak as f64 / HOSTS as f64, out)
    };
    // Beyond the hosts, the run holds ≈ 68 KB here: the store, the keys
    // and labels, the memo's partials and the per-cycle stats.
    let (free, out) = run(0.5);
    assert_eq!(out.host_passes, 0, "load 0.5 runs no host pass");
    assert!(free < 9.0, "{free:.2} bytes a host without a pass");
    let (one, out) = run(2.0);
    assert_eq!(out.host_passes, 1, "load 2 runs one host pass");
    assert!(one < 10.0, "{one:.2} bytes a host with one pass");
    let groups = one - free;
    assert!(
        (0.9..1.1).contains(&groups),
        "a pass adds {groups:.2} bytes a host, not the group ids' one"
    );
}

/// A fleet run with per-shard SLIs folds one `IntervalObs` per shard a
/// cycle. Their entities are built once per run, like the KV keys, so
/// what the SLIs allocate does not grow with the cycle count; built per
/// cycle, each cost a `format!` and a clone, two allocations a shard.
#[test]
fn per_shard_slis_allocate_independently_of_the_cycle_count() {
    let slis = |cycles: usize| {
        let run = |per_shard_slis: bool| {
            let config = FleetConfig {
                hosts: 2_000,
                shards: 8,
                cycles,
                per_shard_slis,
                ..FleetConfig::default()
            };
            allocations(|| run_fleet_engine(&config).expect("a valid fleet")).0
        };
        run(true) - run(false)
    };
    let (short, long) = (slis(8), slis(32));
    assert_eq!(short, long, "the SLIs of 8 cycles, then of 32");
}
