//! Heap-allocation budget of the telemetry paths, counted.
//!
//! Asking "why" has to be cheap and not asking has to be free; both
//! are statements about allocations, so they are pinned with a
//! counting global allocator instead of a timer. The counter is
//! per-thread (the test harness runs tests on threads of their own),
//! so concurrent tests do not see each other.

use network_entitlement::approval::ApprovalConfig;
use network_entitlement::core::{QosBucket, Quarter};
use network_entitlement::market::{
    generate_storm, AdmitPath, AdmitRequest, EntitlementMarket, SliceGrid, StormConfig,
};
use network_entitlement::obs::{Clock, Obs};
use network_entitlement::topology::BackboneSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls that obtain memory.
struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter
// is a const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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
            obs.event("bench", "event", &[("k", "v")]);
        }
    });
    assert_eq!(n, 0, "building, using and dropping a disabled Obs");
}

#[test]
fn a_plain_index_admit_allocates_nothing() {
    let (mut market, requests) = warm_world(2_000);
    // The first grant to each (npg, bucket, slice) adds a node to the
    // market's grant ledger; serve the storm once so the second pass
    // measures the steady state.
    for req in &requests {
        assert_eq!(market.admit(req).path, AdmitPath::Index);
    }
    let (n, ()) = allocations(|| {
        for req in &requests {
            std::hint::black_box(market.admit(req));
        }
    });
    assert_eq!(n, 0, "{} untraced index-path admits", requests.len());
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
    assert_eq!(obs.trace.len(), 2 * ADMITS);
    // What is left is the arenas doubling and the first registration
    // of each metric cell: tens of allocations (86 when this was
    // written), where the owned-event sink made some 45 per admit.
    assert!(n < 200, "{n} allocations over {ADMITS} traced admits");
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
