//! `slo report | audit`: the windowed SLO fold over a recorded trace,
//! and the bench-baseline regression gate.

use crate::{fail, load_trace, only_with, reject_malformed};
use network_entitlement::cli::Matches;
use network_entitlement::slo::{BenchRecord, BenchTolerance, SloEvaluator, SloPolicy};

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
    let gated = m.on("--bench-name");
    only_with(m, "--bench-name", gated, &["--bench-dir", "--write-bench", "--seed"]);
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
    if !audit {
        return;
    }

    // Audit gates: SLO violations first, then the bench regression
    // diff against the committed baseline.
    let mut failed = report.has_violations();
    if failed {
        eprintln!("audit: SLO violations present");
    }
    if let Some(name) = m.text("--bench-name") {
        let seed: u64 = m.get("--seed").unwrap_or(0xD217);
        let record = BenchRecord::from_run(name, seed, &events, &report);
        let dir = m.text("--bench-dir").unwrap_or(".");
        let path = std::path::Path::new(dir).join(format!("BENCH_{name}.json"));
        let shown = path.display();
        match std::fs::read_to_string(&path) {
            Ok(prior_text) => {
                let prior = BenchRecord::from_json(&prior_text)
                    .unwrap_or_else(|e| fail(2, format_args!("cannot parse baseline {shown}: {e}")));
                let findings = record.diff(&prior, &BenchTolerance::default());
                if findings.is_empty() {
                    println!("bench: no regression vs {shown}");
                } else {
                    for f in &findings {
                        eprintln!("bench regression: {f}");
                    }
                    failed = true;
                }
            }
            Err(_) => eprintln!("bench: no baseline at {shown} (pass --write-bench to create it)"),
        }
        if m.on("--write-bench") {
            std::fs::write(&path, record.to_json())
                .unwrap_or_else(|e| fail(2, format_args!("cannot write {shown}: {e}")));
            println!("bench record written to {shown}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
