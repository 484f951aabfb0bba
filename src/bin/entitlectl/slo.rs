//! `slo report | audit`: the windowed SLO fold over a recorded trace,
//! and the gate on its violations.

use crate::{fail, load_trace, reject_malformed};
use network_entitlement::cli::Matches;
use network_entitlement::slo::{SloEvaluator, SloPolicy};

/// Build an [`SloPolicy`] from the shared policy flags, printing every
/// `E06xx` validation finding and exiting 2 when the result is
/// nonsense.
fn slo_policy(m: &Matches) -> SloPolicy {
    let mut p = SloPolicy::default();
    for (name, window) in [
        ("--fast", &mut p.fast_window),
        ("--slow", &mut p.slow_window),
        ("--hysteresis", &mut p.hysteresis),
    ] {
        *window = m.get(name).unwrap_or(*window);
    }
    for (name, level) in [
        ("--fast-burn", &mut p.fast_burn),
        ("--slow-burn", &mut p.slow_burn),
        ("--clear-fraction", &mut p.clear_fraction),
        ("--tolerance", &mut p.delivery_tolerance),
        ("--under-util", &mut p.under_utilization),
        ("--over-util", &mut p.over_utilization),
    ] {
        *level = m.get(name).unwrap_or(*level);
    }
    let issues = p.validate();
    if !issues.is_empty() {
        for i in &issues {
            eprintln!("{}: {}", i.code, i.message);
        }
        std::process::exit(2);
    }
    p
}

pub fn slo(m: &Matches) {
    let audit = m.command.name == "slo audit";
    let policy = slo_policy(m);
    let events = load_trace(m);
    let mut evaluator = SloEvaluator::new(policy);
    reject_malformed(m.positional(0).unwrap_or_default(), &evaluator.fold_trace(&events));
    let report = evaluator.report();
    if report.entities.is_empty() {
        fail(2, "trace carries no slo/interval events (re-run the drill with --trace)");
    }
    if m.on("--json") {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if audit && report.has_violations() {
        fail(1, "audit: SLO violations present");
    }
}
