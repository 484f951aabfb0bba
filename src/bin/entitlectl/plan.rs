//! The contract-side commands: `plan`, `show`, `check`, `negotiate`,
//! `topo`, `lint`.

use crate::{exit_with, fail, load, only_with, write_file, write_telemetry};
use network_entitlement::cli::Matches;
use network_entitlement::core::DetRng;
use network_entitlement::hose::segment::FlowSeries;
use network_entitlement::prelude::*;
use network_entitlement::workload::matrix::MatrixSpec;
use network_entitlement::workload::ontology::CatalogSpec;
use std::str::FromStr;

/// A flag the command cannot run without, or exit 2 naming it.
fn required<T: FromStr>(m: &Matches, name: &str) -> T {
    m.get(name).unwrap_or_else(|| {
        exit_with(&m.command.usage_error(format_args!("{name} is required")))
    })
}

/// `--slo P` as an availability target (default 0.99); the grammar
/// holds it to `(0, 1]`.
fn slo_target(m: &Matches) -> SloTarget {
    SloTarget(m.get("--slo").unwrap_or(0.99))
}

fn parse_qos(s: &str) -> Option<QosClass> {
    match s.to_ascii_lowercase().as_str() {
        "c1" | "a" => Some(QosClass::C1),
        "c2" | "b" => Some(QosClass::C2),
        "c3" | "c" => Some(QosClass::C3),
        "c4" | "d" => Some(QosClass::C4),
        _ => None,
    }
}

pub fn plan(m: &Matches) {
    let out = m.text("--out").unwrap_or("contracts.json");
    let seed: u64 = m.get("--seed").unwrap_or(0xE17);
    let slo = slo_target(m);
    // An unwritable --out fails now, not after the granting cycle
    // (append: an existing snapshot survives until the new one lands).
    if let Err(e) = std::fs::OpenOptions::new().create(true).append(true).open(out) {
        fail(1, format_args!("cannot write {out}: {e}"));
    }

    let topo = BackboneSpec {
        seed,
        ..Default::default()
    }
    .build();
    let catalog = ServiceCatalog::generate(&CatalogSpec {
        tail_services: 200,
        seed,
        ..Default::default()
    });
    eprintln!(
        "planning on {} regions for {} services (slo {slo})...",
        topo.region_count(),
        catalog.services().len()
    );

    // High-touch hoses via segmentation, exactly like the capacity
    // planning example but trimmed for CLI latency.
    let mut rng = DetRng::new(seed);
    let mut hoses = Vec::new();
    for service in catalog.high_touch(0.75) {
        for &qos in service.rate_by_class.keys() {
            let tm = TrafficMatrix::synthesize(&topo, service, qos, &MatrixSpec::default());
            for (src, egress) in tm.egress_by_src() {
                if egress.as_gbps() < 50.0 {
                    continue;
                }
                let mut flows = FlowSeries::new();
                for (&(s, d), &r) in &tm.demands {
                    if s == src {
                        let j = rng.range(0.02, 0.08);
                        flows.insert(
                            d,
                            (0..12)
                                .map(|t| r.as_bps() * (1.0 + j * (t as f64).sin()))
                                .collect(),
                        );
                    }
                }
                if flows.len() < 2 {
                    continue;
                }
                if let Ok(h) =
                    segment_flow_series(service.npg, qos, src, Direction::Egress, egress, &flows)
                {
                    hoses.push(h);
                }
            }
        }
    }
    let slos = vec![slo; hoses.len()];
    let (workers, dedup) = m.sweep();
    let approvals = hose_approval(
        &topo,
        &hoses,
        &slos,
        &ApprovalConfig {
            tms_per_hose: 4,
            max_cuts: 1,
            workers,
            dedup,
            ..Default::default()
        },
    );
    let summary = ApprovalSummary::from_approvals(&approvals);
    eprintln!(
        "approved {:.1}% of {} across {} hoses",
        summary.approval_rate() * 100.0,
        summary.requested,
        summary.total_hoses
    );

    let db = ContractDb::new();
    for a in &approvals {
        if a.approved_total.is_zero() {
            continue;
        }
        let entitlement = Entitlement {
            npg: a.request.npg,
            qos: a.request.qos,
            region: a.request.region,
            direction: a.request.direction,
            entitled_rate: a.approved_total,
            period: Quarter(0).period(),
        };
        if let Err(e) = db.insert(a.request.npg, a.slo, vec![entitlement]) {
            fail(1, format_args!("approved hose does not form a contract: {e}"));
        }
    }
    if let Err(e) = db.save(std::path::Path::new(out)) {
        fail(1, format_args!("cannot write {out}: {e}"));
    }
    outln!("{} contracts written to {out}", db.len());
}

fn load_db(m: &Matches) -> ContractDb {
    let path = m.text("--db").unwrap_or("contracts.json");
    ContractDb::load(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(1, format_args!("cannot load {path}: {e}")))
}

pub fn show(m: &Matches) {
    let db = load_db(m);
    let filter: Option<u32> = m.get("--npg");
    let contracts: Vec<EntitlementContract> = serde_json::from_str(&db.snapshot())
        .unwrap_or_else(|e| fail(1, format_args!("contract snapshot does not re-parse: {e}")));
    outln!(
        "{:<12} {:<14} {:>6} {:>8} {:>8} {:>16} {:>14}",
        "contract", "npg", "qos", "region", "dir", "entitled", "period"
    );
    for c in contracts {
        if filter.is_some_and(|n| c.npg != NpgId(n)) {
            continue;
        }
        for e in &c.entitlements {
            let line = format!(
                "{:<12} {:<14} {:>6} {:>8} {:>8} {:>16} {:>14}",
                format!("#{}", c.id.0),
                format!("{}", c.npg),
                format!("{}", e.qos),
                format!("{}", e.region),
                format!("{}", e.direction),
                format!("{}", e.entitled_rate),
                format!("{}", e.period),
            );
            outln!("{line}");
        }
    }
}

pub fn check(m: &Matches) {
    only_with(
        m,
        "--risk",
        m.on("--risk"),
        &["--seed", "--slo", "--workers", "--no-dedup", "--trace", "--metrics"],
    );
    let npg = NpgId(required(m, "--npg"));
    let qos_arg: String = required(m, "--qos");
    let qos = parse_qos(&qos_arg).unwrap_or_else(|| {
        fail(2, format_args!("unknown QoS class '{qos_arg}'; expected c1..c4 (or a..d)"))
    });
    let region = RegionId(required(m, "--region"));
    let rate = Rate::gbps(required(m, "--rate"));
    let db = load_db(m);
    let Some(entitled) = db.entitled_rate(npg, qos, region, Direction::Egress, 0) else {
        outln!("no entitlement found for {npg} {qos} {region} egress");
        std::process::exit(1);
    };
    let fits = rate.as_bps() <= entitled.as_bps();
    if fits {
        outln!(
            "OK: {rate} fits within the {entitled} entitlement ({:.0}% headroom)",
            (1.0 - rate.as_bps() / entitled.as_bps()) * 100.0
        );
    } else {
        outln!(
            "OVER: {rate} exceeds the {entitled} entitlement; the excess \
             will be remarked and dropped first under congestion"
        );
    }
    if m.on("--risk") {
        check_risk(m, region, rate);
    }
    std::process::exit(if fits { 0 } else { 3 });
}

/// The `check --risk` what-if: sweep the failure scenarios of the
/// planning backbone and report the availability the network could give
/// the planned rate, independent of what the contract says.
fn check_risk(m: &Matches, region: RegionId, rate: Rate) {
    use network_entitlement::risk::sweep_plan;
    use network_entitlement::topology::routing::Demand;
    use network_entitlement::topology::RoutePlan;

    let seed: u64 = m.get("--seed").unwrap_or(0xE17);
    let slo_v = slo_target(m).0;
    let (workers, dedup) = m.sweep();

    let topo = BackboneSpec {
        seed,
        ..Default::default()
    }
    .build();
    let dcs = topo.dc_ids();
    let remotes: Vec<RegionId> = dcs.iter().copied().filter(|&r| r != region).collect();
    if remotes.is_empty() || !dcs.contains(&region) {
        eprintln!("--risk: region {region} is not a DC of the seed-{seed} backbone");
        return;
    }
    // Hose-style spread: the planned rate split evenly across remotes.
    let per_remote = rate * (1.0 / remotes.len() as f64);
    let demands: Vec<Demand> = remotes
        .iter()
        .map(|&dst| Demand {
            src: region,
            dst,
            amount: per_remote,
        })
        .collect();
    let tele = m.telemetry();
    let obs = tele.make_obs();
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let mut plan = RoutePlan::build(&topo, &scenarios, RiskConfig::default().k_paths);
    let healthy = plan.place(&topo, &[]);
    plan.ensure(&topo, demands.iter().map(Demand::pair));
    let swept = sweep_plan(&plan, &healthy, &demands, &scenarios, workers, dedup, &obs);
    let curves: Vec<AvailabilityCurve> = swept
        .samples
        .into_iter()
        .map(AvailabilityCurve::from_samples)
        .collect();
    // A demand's availability at its full share; the hose carries the
    // planned rate only when every pipe does.
    let worst = curves
        .iter()
        .zip(&demands)
        .map(|(c, d)| c.availability_of(d.amount))
        .fold(1.0_f64, f64::min);
    let at_slo: Rate = curves.iter().map(|c| c.bandwidth_at(slo_v)).sum();
    outln!(
        "risk: {rate} from {region} survives with availability {worst:.5} \
         (network could carry {at_slo} at the {slo_v} SLO; routed {} of {} scenarios{})",
        swept.routed_scenarios,
        swept.total_scenarios,
        if dedup { ", dedup on" } else { ", dedup off" },
    );
    write_telemetry(&tele, &obs);
}

pub fn negotiate(m: &Matches) {
    use network_entitlement::approval::negotiate::{negotiate, Agreement, ThresholdPolicy};

    let rate = Rate::gbps(required(m, "--rate"));
    let accept: f64 = m.get("--accept").unwrap_or(0.8);
    let seed: u64 = m.get("--seed").unwrap_or(0xE17);

    let topo = BackboneSpec {
        seed,
        ..BackboneSpec::small(seed)
    }
    .build();
    let dcs = topo.dc_ids();
    let hose = HoseRequest::general(
        NpgId(1),
        QosClass::C2,
        dcs[0],
        Direction::Egress,
        rate,
        dcs[1..].iter().copied(),
    );
    let mut policy = ThresholdPolicy {
        accept_fraction: accept,
        patience: 3,
    };
    let (workers, dedup) = m.sweep();
    let outcome = negotiate(
        &topo,
        &hose,
        SloTarget(0.99),
        &mut policy,
        &ApprovalConfig {
            tms_per_hose: 4,
            max_cuts: 1,
            workers,
            dedup,
            ..Default::default()
        },
        8,
    );
    match outcome {
        Agreement::Accepted {
            granted, rounds, ..
        } => outln!("accepted after {rounds} round(s): {granted} guaranteed"),
        Agreement::RiskAccepted {
            guaranteed, rounds, ..
        } => outln!(
            "service keeps its {rate} ask after {rounds} round(s); only {guaranteed} is guaranteed — the excess rides at risk"
        ),
        Agreement::Exhausted { best_counter } => {
            outln!("no agreement; best counter-proposal was {best_counter}")
        }
    }
}

pub fn topo(m: &Matches) {
    let seed: u64 = m.get("--seed").unwrap_or(0xE17);
    let topo = BackboneSpec {
        seed,
        ..Default::default()
    }
    .build();
    let dot = topo.to_dot();
    match m.text("--dot") {
        Some(path) => {
            write_file(path, &dot);
            eprintln!(
                "{} regions / {} links written to {path}; render with `dot -Tsvg {path}`",
                topo.region_count(),
                topo.link_count()
            );
        }
        None => out!("{dot}"),
    }
}

pub fn lint(m: &Matches) {
    use network_entitlement::analyzer::{analyze, Code, LintBundle};

    if m.on("--list-rules") {
        for e in Code::CATALOG {
            outln!("{} {:<7} {}  [{}]", e.code, e.severity.to_string(), e.invariant, e.paper);
        }
        return;
    }
    let Some(path) = m.positional(0) else {
        exit_with(&m.command.usage_error("missing [bundle.json] (or --list-rules)"));
    };
    let bundle = load(path, "bundle", 2, LintBundle::from_json);
    let report = analyze(&bundle);
    if m.on("--json") {
        outln!("{}", report.render_json());
    } else if report.diagnostics.is_empty() {
        outln!("{path}: clean");
    } else {
        out!("{}", report.render_text());
    }
    if report.has_errors() {
        std::process::exit(1);
    }
}
