//! `market`: a seeded admission storm through the entitlement market,
//! and `explain`: decision provenance from its trace.

use crate::{fail, load, load_faults, load_trace, percentile, write_telemetry};
use network_entitlement::cli::Matches;
use network_entitlement::core::{QosBand, QosBucket};
use network_entitlement::market::{generate_storm, run_storm_with};
use network_entitlement::prelude::*;
use network_entitlement::slo::IntervalObs;
use network_entitlement::topology::LinkId;

/// `market`: warm residual index, index-path admits, sweep fallback.
///
/// Wall-clock run first for the perf headline (admits/sec, p50/p99
/// admit µs from real elapsed time); then, only when `--trace` /
/// `--metrics` / `--watch` were requested, an identical storm under the
/// counting clock so the telemetry stays byte-identical per seed. Fault
/// windows are applied at logical time = request index (1 ms per admit)
/// in both runs, so the two serve the same decision sequence.
pub fn market(m: &Matches) {
    let requests: usize = m.get("--requests").unwrap_or(100_000);
    let seed: u64 = m.get("--seed").unwrap_or(0x1360);
    let (workers, dedup) = m.sweep();
    let faults = load_faults(m);
    // The links dead while request `i` is served.
    let cuts = |i: usize| -> Vec<LinkId> {
        faults.as_ref().map_or_else(Vec::new, |plan| {
            plan.cut_links(i as u64).into_iter().map(LinkId).collect()
        })
    };

    let topo = BackboneSpec::small(seed).build();
    let dcs = topo.dc_ids();
    let grid = SliceGrid::quarterly(Quarter(0), m.get("--slice-days").unwrap_or(7));
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
    let build = |obs: &Obs| {
        let mut market = EntitlementMarket::new(topo.clone(), grid, cfg.clone());
        market.load_contracts(&contracts);
        market.warm(&buckets, obs);
        let storm = generate_storm(&market, &buckets, &storm_cfg);
        (market, storm)
    };

    // Wall-clock run: the perf headline.
    let (mut market, storm) = build(&Obs::disabled());
    let warm_slots = market.index().fresh_len();
    let mut report = StormReport::default();
    let mut lat_us: Vec<f64> = Vec::with_capacity(requests);
    let started = std::time::Instant::now();
    for (i, req) in storm.iter().enumerate() {
        market.set_faults(&cuts(i));
        let t = std::time::Instant::now();
        let d = market.admit(req);
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        report.tally(&d);
    }
    let wall_s = started.elapsed().as_secs_f64();
    lat_us.sort_by(f64::total_cmp);

    println!(
        "market storm: {requests} requests over {} DC pairs x {} buckets x {} slices (seed {seed})",
        dcs.len() * (dcs.len() - 1),
        buckets.len(),
        grid.slice_count(),
    );
    println!(
        "  book: {} contract(s); index warm with {warm_slots} slot(s)",
        contracts.len()
    );
    println!(
        "  {:.0} admits/sec; admit p50 {:.2} µs, p99 {:.2} µs",
        requests as f64 / wall_s,
        percentile(&lat_us, 0.50),
        percentile(&lat_us, 0.99),
    );
    println!(
        "  outcomes: {} granted / {} partial / {} denied; paths: {} index / {} sweep; {:.1} Tbps granted",
        report.granted,
        report.partial,
        report.denied,
        report.index_path,
        report.sweep_path,
        report.granted_gbps / 1000.0,
    );
    if faults.is_some() {
        println!(
            "  fault plan: link cuts applied at logical time = request index (1 ms/admit); \
index fails closed to the sweep path on every cut and heal"
        );
    }

    // Deterministic run: same storm, counting clock. Runs when
    // telemetry files were requested and/or --watch asked for the
    // watchdog fold (admit latency under the counting clock is logical
    // instrumentation density — the sweep path reads the clock more
    // than the warm index path — so detector verdicts stay
    // reproducible, unlike wall-clock microseconds).
    let tele = m.telemetry();
    if !tele.requested() && !m.on("--watch") {
        return;
    }
    let obs = if tele.requested() {
        tele.make_obs()
    } else {
        // --watch alone: deterministic clock, but nothing retains the
        // trace.
        Obs {
            trace: network_entitlement::obs::TraceSink::disabled(),
            ..Obs::new(Clock::counting(1))
        }
    };
    let (mut market, storm) = build(&obs);
    let mut evaluator = SloEvaluator::default();
    let mut watchdog = WatchEvaluator::default();
    let chunk = (requests / 16).max(1);
    let mut chunk_granted_bps = 0.0;
    run_storm_with(
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
    write_telemetry(&tele, &obs);
    if m.on("--watch") {
        let watch = watchdog.report();
        print!("{}", watch.render_text());
        if !watch.healthy() {
            std::process::exit(1);
        }
    }
}

/// `explain`: render decision provenance from a `market --trace`
/// recording — no market state or replay, just the trace.
pub fn explain(m: &Matches) {
    use network_entitlement::market::{explain_denied, explain_request};
    use std::io::Write;

    let events = load_trace(m);
    let rendered = if m.on("--all-denied") {
        explain_denied(&events)
    } else if let Some(id) = m.get("--request") {
        explain_request(&events, id)
    } else {
        crate::exit_with(&m.command.usage_error("pass --request N or --all-denied"));
    };
    match rendered {
        Ok(text) => {
            // A closed pipe (`entitlectl explain ... | head`) just ends
            // the output.
            let _ = std::io::stdout().write_all(text.as_bytes());
        }
        Err(e) => fail(1, format_args!("explain: {e}")),
    }
}
