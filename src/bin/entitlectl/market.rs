//! `market`: a seeded admission storm through the entitlement market,
//! and `explain`: decision provenance from its trace.

use crate::{fail, load, load_faults, load_trace, write_telemetry};
use network_entitlement::cli::Matches;
use network_entitlement::core::{QosBand, QosBucket};
use network_entitlement::market::{generate_storm, run_storm_with};
use network_entitlement::prelude::*;
use network_entitlement::slo::IntervalObs;
use network_entitlement::topology::LinkId;

/// `market`: warm residual index, index-path admits, sweep fallback.
///
/// One deterministic pass: the storm runs once, under the counting
/// clock whenever `--trace` / `--metrics` / `--watch` asked for one,
/// so stdout and every telemetry file are a function of the flags.
/// Fault windows are applied at logical time = request index (1 ms
/// per admit). Admit speed is measured by `benchmark/`, not here.
pub fn market(m: &Matches) {
    let requests: usize = m.get("--requests").unwrap_or(100_000);
    let seed: u64 = m.get("--seed").unwrap_or(0x1360);
    let (workers, dedup) = m.sweep();
    let faults = load_faults(m, "entitlectl market", &["LinkCut"]);
    // The links dead while request `i` is served.
    let cuts = |i: usize| -> Vec<LinkId> {
        faults.as_ref().map_or_else(Vec::new, |plan| {
            plan.cut_links(i as u64).into_iter().map(LinkId).collect()
        })
    };

    let topo = BackboneSpec::small(seed).build();
    let dcs = topo.dc_ids();
    // `SliceGrid` clamps the width into the quarter; outside input must
    // not quietly mean another grid.
    let quarter_days = Quarter(0).period().days();
    let slice_days: u32 = m.get("--slice-days").unwrap_or(7);
    if !(1..=quarter_days).contains(&slice_days) {
        fail(
            2,
            format_args!(
                "--slice-days {slice_days}: must be in 1..={quarter_days}, the quarter's days"
            ),
        );
    }
    let grid = SliceGrid::quarterly(Quarter(0), slice_days);
    let cfg = ApprovalConfig {
        tms_per_hose: 2,
        max_cuts: 1,
        workers,
        dedup,
        ..Default::default()
    };
    // Buckets whose default SLOs are certifiable under the single-cut
    // enumeration: C1/C2 targets (0.9998 / 0.999) demand more
    // probability mass than `max_cuts: 1` scenarios carry, so their
    // headroom is zero and every admit would sweep-deny.
    let buckets: Vec<QosBucket> = [QosClass::C3, QosClass::C4]
        .into_iter()
        .flat_map(|class| {
            [QosBand::Low, QosBand::High]
                .into_iter()
                .map(move |band| QosBucket { class, band })
        })
        .collect();

    let contracts: Vec<MarketEntitlement> = match m.text("--contracts") {
        Some(path) => load(path, "contracts", 2, serde_json::from_str),
        None => {
            // A small deterministic synthetic book: subscriptions and a
            // quota on the first DC pairs, plus one usage-based (metered
            // only, reserves nothing).
            let entitlement = |npg, src: usize, dst: usize, gbps, kind| MarketEntitlement {
                npg: NpgId(npg),
                bucket: buckets[0],
                src: dcs[src % dcs.len()],
                dst: dcs[dst % dcs.len()],
                rate: Rate::gbps(gbps),
                kind,
            };
            vec![
                entitlement(100, 0, 1, 20.0, EntitlementKind::Subscription),
                entitlement(101, 1, 2, 15.0, EntitlementKind::Subscription),
                entitlement(102, 2, 0, 10.0, EntitlementKind::Quota { volume_bytes: 1e15 }),
                entitlement(103, 0, 2, 50.0, EntitlementKind::UsageBased),
            ]
        }
    };

    let storm_cfg = StormConfig {
        requests,
        seed,
        npgs: 32,
        max_ask_gbps: m.get("--max-ask").unwrap_or(2.0),
    };
    let tele = m.telemetry();
    let obs = if m.on("--watch") && !tele.requested() {
        // --watch alone: the watchdog folds counting-clock admit
        // latencies, but nothing retains the trace.
        Obs {
            trace: network_entitlement::obs::TraceSink::disabled(),
            ..Obs::new(Clock::counting(1))
        }
    } else {
        tele.make_obs()
    };
    let mut market = EntitlementMarket::new(topo, grid, cfg);
    market.load_contracts(&contracts);
    market.warm(&buckets, &obs);
    let warm_slots = market.index().fresh_len();
    let storm = generate_storm(&market, &buckets, &storm_cfg);
    let mut evaluator = SloEvaluator::default();
    let mut watchdog = WatchEvaluator::default();
    let chunk = (requests / 16).max(1);
    let mut chunk_granted_bps = 0.0;
    let report = run_storm_with(
        &mut market,
        &storm,
        &obs,
        &mut watchdog,
        cuts,
        |i, d| {
            chunk_granted_bps += d.granted.as_bps();
            if (i + 1) % chunk != 0 && i + 1 != storm.len() {
                return;
            }
            // The SLO tracks delivery of *admitted* volume: every
            // granted bit is delivered, so attainment gates purely on
            // regressions in what the market can grant.
            evaluator.observe(
                &obs,
                &IntervalObs {
                    entity: "market".to_string(),
                    qos: "mixed".to_string(),
                    target: 0.99,
                    demand_bps: chunk_granted_bps,
                    delivered_bps: chunk_granted_bps,
                    approved_bps: chunk_granted_bps,
                    measurable: true,
                },
            );
            chunk_granted_bps = 0.0;
        },
    );

    outln!(
        "market storm: {requests} requests over {} DC pairs x {} buckets x {} slices (seed {seed})",
        dcs.len() * (dcs.len() - 1),
        buckets.len(),
        grid.slice_count(),
    );
    outln!(
        "  book: {} contract(s); index warm with {warm_slots} slot(s)",
        contracts.len()
    );
    outln!(
        "  outcomes: {} granted / {} partial / {} denied; paths: {} index / {} sweep; {:.1} Tbps granted",
        report.granted,
        report.partial,
        report.denied,
        report.index_path,
        report.sweep_path,
        report.granted_gbps / 1000.0,
    );
    if faults.is_some() {
        outln!(
            "  fault plan: link cuts applied at logical time = request index (1 ms/admit); \
index fails closed to the sweep path on every cut and heal"
        );
    }
    write_telemetry(&tele, &obs);
    if m.on("--watch") {
        let watch = watchdog.report();
        out!("{}", watch.render_text());
        if !watch.healthy() {
            std::process::exit(1);
        }
    }
}

/// `explain`: render decision provenance from a `market --trace`
/// recording — no market state or replay, just the trace.
pub fn explain(m: &Matches) {
    use network_entitlement::market::{explain_denied, explain_request};

    let events = load_trace(m);
    let rendered = if m.on("--all-denied") {
        explain_denied(&events)
    } else if let Some(id) = m.get("--request") {
        explain_request(&events, id)
    } else {
        crate::exit_with(&m.command.usage_error("pass --request N or --all-denied"));
    };
    match rendered {
        Ok(text) => out!("{text}"),
        Err(e) => fail(1, format_args!("explain: {e}")),
    }
}
