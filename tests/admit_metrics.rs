//! A traced admit looks its metric cells up once per registry, not on
//! every admit, and keeps them keyed by which registry they came from.
//! A market traced under one `Obs`, then another, then the first again,
//! and a clone of it traced under a third, leave each registry exactly
//! the counts of the admits it saw: what one lookup per admit left.

use network_entitlement::approval::ApprovalConfig;
use network_entitlement::core::{QosBucket, Quarter};
use network_entitlement::market::{
    generate_storm, AdmitDecision, AdmitOutcome, AdmitPath, EntitlementMarket, SliceGrid,
    StormConfig,
};
use network_entitlement::obs::{Clock, Obs, Registry, TraceSink};
use network_entitlement::topology::BackboneSpec;

/// The market's two metric families, as `render()` writes them (the
/// sweep path's `risk` metrics land in the same registry).
fn market_families(text: &str) -> String {
    text.lines()
        .filter(|line| line.contains("entitlement_market_"))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The decisions' metrics recorded through one registry lookup per
/// metric per admit. The bundles' clocks are manual and never set, so
/// every admit's latency reads 0 ms.
fn reference(decisions: &[AdmitDecision]) -> String {
    let registry = Registry::new();
    for d in decisions {
        registry
            .counter(
                "entitlement_market_admits_total",
                "admission decisions by outcome and serving path",
                &[("outcome", d.outcome.as_str()), ("path", d.path.as_str())],
            )
            .inc();
        registry
            .histogram(
                "entitlement_market_admit_ms",
                "admission latency by serving path",
                &[("path", d.path.as_str())],
            )
            .record(0.0);
    }
    market_families(&registry.render())
}

#[test]
fn each_registry_holds_exactly_the_admits_traced_into_it() {
    let config = ApprovalConfig {
        max_cuts: 1,
        ..Default::default()
    };
    let grid = SliceGrid::quarterly(Quarter(0), 30);
    let mut market = EntitlementMarket::new(BackboneSpec::small(4960).build(), grid, config);
    let buckets = QosBucket::approval_order();
    market.warm(&buckets, &Obs::disabled());
    // Oversized asks: grants, partials and denials, index and sweep.
    let storm = StormConfig {
        requests: 400,
        seed: 4960,
        max_ask_gbps: 2000.0,
        ..Default::default()
    };
    let requests = generate_storm(&market, &buckets, &storm);
    let chunks: Vec<_> = requests.chunks(100).collect();
    let (a, b, c) = (
        Obs::new(Clock::manual(0)),
        Obs::new(Clock::manual(0)),
        Obs::new(Clock::manual(0)),
    );
    let (mut in_a, mut in_b, mut in_c) = (Vec::new(), Vec::new(), Vec::new());
    let run = |market: &mut EntitlementMarket, obs: &Obs, chunk: usize, seen: &mut Vec<_>| {
        seen.extend(chunks[chunk].iter().map(|req| market.admit_obs(req, obs)));
    };
    run(&mut market, &a, 0, &mut in_a);
    run(&mut market, &b, 1, &mut in_b);
    // The clone starts out holding the cells of `b`.
    let mut clone = market.clone();
    run(&mut clone, &c, 2, &mut in_c);
    run(&mut market, &a, 3, &mut in_a);

    let kinds = |seen: &[AdmitDecision]| {
        let mut kinds: Vec<(AdmitOutcome, AdmitPath)> =
            seen.iter().map(|d| (d.outcome, d.path)).collect();
        kinds.sort_by_key(|&(o, p)| (o as u8, p as u8));
        kinds.dedup();
        kinds.len()
    };
    assert!(kinds(&in_a) >= 3, "the storm reaches several cells");
    for (name, obs, seen) in [("a", &a, &in_a), ("b", &b, &in_b), ("c", &c, &in_c)] {
        let rendered = market_families(&obs.registry.render());
        assert_eq!(rendered, reference(seen), "registry {name}");
        let admits: u64 = rendered
            .lines()
            .filter(|line| line.starts_with("entitlement_market_admits_total{"))
            .filter_map(|line| line.rsplit(' ').next()?.parse::<u64>().ok())
            .sum();
        assert_eq!(admits, seen.len() as u64, "registry {name}");
    }
}

/// An index-path admit reads its clock exactly twice, traced or not.
/// Traced, the two reads are the `market`/`admit` span's open and
/// close, and the span's `dur_ms` is the latency `last_admit_ms` reads
/// and the histogram records; untraced, the market reads the same
/// two instants itself.
#[test]
fn an_index_path_admit_reads_the_clock_twice() {
    let config = ApprovalConfig {
        max_cuts: 1,
        ..Default::default()
    };
    let grid = SliceGrid::quarterly(Quarter(0), 30);
    let mut market = EntitlementMarket::new(BackboneSpec::small(7).build(), grid, config);
    let buckets = QosBucket::approval_order();
    market.warm(&buckets, &Obs::disabled());
    let storm = StormConfig {
        requests: 1,
        ..Default::default()
    };
    let req = generate_storm(&market, &buckets[4..], &storm)[0];
    let traced = Obs::new(Clock::counting(1));
    let untraced = Obs {
        trace: TraceSink::disabled(),
        ..Obs::new(Clock::counting(1))
    };
    for obs in [&traced, &untraced] {
        let before = obs.clock.now_ms();
        assert_eq!(market.admit_obs(&req, obs).path, AdmitPath::Index);
        assert_eq!(obs.clock.now_ms() - before, 1 + 2, "two reads between ours");
        assert_eq!(market.last_admit_ms(), 1.0);
    }
    let events = traced.trace.events();
    assert_eq!(events.len(), 1);
    assert_eq!((events[0].phase.as_str(), events[0].dur_ms), ("admit", 1.0));
    let text = traced.registry.render();
    assert!(text.contains("entitlement_market_admit_ms_sum{path=\"index\"} 1\n"), "{text}");
}
