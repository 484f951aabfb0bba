//! What a traced admit costs, part by part.
//!
//! Builds the benchmark's admit world (10 DCs, 4 buckets, 12 slices,
//! the four-contract book, warmed), draws a storm of tiny asks — every
//! one an index hit — and times each part in wall-clock ns per admit,
//! the median of several rounds, each on a fresh clone of the market
//! and a fresh sink:
//!
//! * `market work` — `admit` untraced: probe, consume, ledger;
//! * `traced admit` — `admit_obs` on a counting-clock `Obs`, as the
//!   benchmark's `admit_traced` runs it;
//! * `bare span` — a `market`/`admit` span with no labels: two locks,
//!   two clock reads, ids, the names, the numbers, one copy;
//! * `value text` — each traced admit's labels written back onto a
//!   bare span as text under keys checked beforehand, less the bare
//!   span: the key and value copies;
//! * `float formats` — the same with the six rate labels written as
//!   floats through the span's memo, less `value text`.
//!
//! What the traced admit costs beyond the four is printed as
//! `unattributed`.
//!
//! ```sh
//! cargo run --release --example admit_cost [-- SEED]
//! ```

use network_entitlement::approval::ApprovalConfig;
use network_entitlement::core::{NpgId, QosBucket, Quarter, Rate};
use network_entitlement::market::{
    generate_storm, AdmitRequest, EntitlementKind, EntitlementMarket, MarketEntitlement,
    SliceGrid, StormConfig,
};
use network_entitlement::obs::{Clock, Key, Obs, TraceEvent};
use network_entitlement::topology::BackboneSpec;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

const ADMITS: usize = 20_000;
const ROUNDS: usize = 9;
/// The admit's labels that the market writes as floats.
const FLOATS: [&str; 6] = [
    "ask_bps",
    "binding_p",
    "granted_bps",
    "headroom_bps",
    "residual_after_bps",
    "residual_before_bps",
];

/// The benchmark's admit world, warmed.
fn world(buckets: &[QosBucket]) -> EntitlementMarket {
    let spec = BackboneSpec {
        dc_count: 10,
        pop_count: 5,
        ..BackboneSpec::small(2)
    };
    let config = ApprovalConfig {
        tms_per_hose: 2,
        max_cuts: 1,
        ..Default::default()
    };
    let mut market = EntitlementMarket::new(spec.build(), SliceGrid::quarterly(Quarter(0), 7), config);
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
        entry(102, 2, 0, 10.0, EntitlementKind::Quota { volume_bytes: 1e15 }),
        entry(103, 0, 2, 50.0, EntitlementKind::UsageBased),
    ]);
    market.warm(buckets, &Obs::disabled());
    market
}

/// The admits' labels, flattened: every value's text in one string,
/// each label's key (an index into `keys`), text range and float, and
/// each admit's range of labels.
struct Replay {
    keys: Vec<Key<String>>,
    text: String,
    labels: Vec<(usize, Range<usize>, Option<f64>)>,
    admits: Vec<Range<usize>>,
}

impl Replay {
    fn new(events: &[TraceEvent]) -> Replay {
        let mut replay = Replay {
            keys: Vec::new(),
            text: String::new(),
            labels: Vec::new(),
            admits: Vec::new(),
        };
        for e in events.iter().filter(|e| (e.span.as_str(), e.phase.as_str()) == ("market", "admit")) {
            let first = replay.labels.len();
            for (k, v) in &e.labels {
                let at = match replay.keys.iter().position(|key| key.as_str() == k) {
                    Some(at) => at,
                    None => {
                        replay.keys.push(Key::new(k.clone()).expect("a key the market wrote"));
                        replay.keys.len() - 1
                    }
                };
                let float = FLOATS.contains(&k.as_str()).then(|| v.parse().expect("a float label"));
                let start = replay.text.len();
                replay.text.push_str(v);
                replay.labels.push((at, start..replay.text.len(), float));
            }
            replay.admits.push(first..replay.labels.len());
        }
        replay
    }

    /// Every admit's span, with its labels or without, the rates as
    /// floats or as their text; returns ns per admit.
    fn run(&self, labels: bool, floats: bool) -> f64 {
        let obs = Obs::new(Clock::counting(1));
        let start = Instant::now();
        for admit in &self.admits {
            let mut span = obs.span("market", "admit");
            let written = if labels { admit.clone() } else { 0..0 };
            for (k, range, float) in &self.labels[written] {
                let k = self.keys[*k].borrowed();
                match float {
                    Some(v) if floats => span.add_label_f64(k, *v),
                    _ => span.add_label(k, &self.text[range.clone()]),
                }
            }
            black_box(span.id());
        }
        ns_per(start, self.admits.len())
    }
}

fn ns_per(start: Instant, n: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e9 / n as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let seed = std::env::args().nth(1).map_or(1, |s| s.parse().expect("a seed"));
    let buckets = &QosBucket::approval_order()[4..];
    let warm = world(buckets);
    let storm: Vec<AdmitRequest> = generate_storm(
        &warm,
        buckets,
        &StormConfig {
            requests: ADMITS,
            seed,
            npgs: 32,
            max_ask_gbps: 0.002,
        },
    );
    let plain = |market: &mut EntitlementMarket| {
        let start = Instant::now();
        for req in &storm {
            black_box(market.admit(req));
        }
        ns_per(start, storm.len())
    };
    let traced = |market: &mut EntitlementMarket, obs: &Obs| {
        let start = Instant::now();
        for req in &storm {
            black_box(market.admit_obs(req, obs));
        }
        ns_per(start, storm.len())
    };
    let recorded = Obs::new(Clock::counting(1));
    traced(&mut warm.clone(), &recorded);
    let replay = Replay::new(&recorded.trace.events());
    assert_eq!(replay.admits.len(), storm.len(), "one event per admit");

    let mut parts: [Vec<f64>; 5] = Default::default();
    for _ in 0..ROUNDS {
        parts[0].push(plain(&mut warm.clone()));
        parts[1].push(traced(&mut warm.clone(), &Obs::new(Clock::counting(1))));
        parts[2].push(replay.run(false, false));
        parts[3].push(replay.run(true, false));
        parts[4].push(replay.run(true, true));
    }
    let [market, traced, bare, text, floats] = parts.map(median);
    let rows = [
        ("market work", market),
        ("bare span", bare),
        ("value text", text - bare),
        ("float formats", floats - text),
        ("unattributed", traced - market - floats),
        ("traced admit", traced),
    ];
    println!(
        "{} admits, seed {seed}, median of {ROUNDS} rounds, ns per admit ({} labels a span):",
        storm.len(),
        replay.labels.len() as f64 / storm.len() as f64
    );
    for (part, ns) in rows {
        println!("  {part:<14} {ns:>7.1}");
    }
}
