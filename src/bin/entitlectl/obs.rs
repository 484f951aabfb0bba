//! `obs summarize | flame | diff`: read-side tools over the telemetry
//! files a run leaves behind.

use crate::{fail, load_trace, read, write_file};
use network_entitlement::cli::Matches;
use network_entitlement::obs::{
    check_metrics, diff_counters, diff_prometheus, diff_traces, flamegraph_folded,
    render_critical_path, render_span_tree, summarize_trace, summarize_trace_by_label,
};

pub fn summarize(m: &Matches) {
    let events = load_trace(m);
    out!("{}", summarize_trace(&events));
    if let Some(key) = m.text("--by-label") {
        outln!();
        out!("{}", summarize_trace_by_label(&events, key));
    }
    if m.on("--tree") {
        let tree = render_span_tree(&events)
            .unwrap_or_else(|e| fail(1, format_args!("cannot build span tree: {e}")));
        outln!();
        out!("{tree}");
        outln!();
        out!("{}", render_critical_path(&events));
    }
    if let Some(path) = m.text("--metrics") {
        let samples = check_metrics(&read(path, 1), &events)
            .unwrap_or_else(|e| fail(1, format_args!("metrics {path}: {e}")));
        outln!("{path}: {samples} valid metric sample(s), the fold of the trace");
    }
}

/// `obs flame`: export a trace as flamegraph folded stacks.
pub fn flame(m: &Matches) {
    let folded = flamegraph_folded(&load_trace(m))
        .unwrap_or_else(|e| fail(1, format_args!("cannot build flamegraph: {e}")));
    match m.text("--out") {
        Some(path) => {
            write_file(path, &folded);
            eprintln!(
                "{} stack(s) written to {path}; render with e.g. flamegraph.pl",
                folded.lines().count()
            );
        }
        None => out!("{folded}"),
    }
}

/// `obs diff`: structural first-divergence diff of two telemetry files.
/// Trace (JSONL) vs Prometheus text is auto-detected from the first
/// non-blank line; exit 0 identical, 1 divergent, 2 usage. With
/// `--counters`, a monotonicity audit of two Prometheus snapshots
/// instead: counter-family samples may not decrease or disappear from
/// the first to the second.
pub fn diff(m: &Matches) {
    let (pa, pb) = (
        m.positional(0).unwrap_or_default(),
        m.positional(1).unwrap_or_default(),
    );
    let (a, b) = (read(pa, 2), read(pb, 2));
    if m.on("--counters") {
        match diff_counters(&a, &b) {
            Ok(violations) if violations.is_empty() => outln!("{pa} -> {pb}: counters monotone"),
            Ok(violations) => {
                eprintln!("{pa} -> {pb}:");
                for v in &violations {
                    eprintln!("  {v}");
                }
                std::process::exit(1);
            }
            Err(e) => fail(2, e),
        }
        return;
    }
    let is_trace = |t: &str| {
        t.lines()
            .find(|l| !l.trim().is_empty())
            .is_some_and(|l| l.trim_start().starts_with('{'))
    };
    let report = if is_trace(&a) || is_trace(&b) {
        diff_traces(&a, &b)
    } else {
        diff_prometheus(&a, &b)
    };
    match report {
        None => outln!("{pa} and {pb}: identical"),
        Some(r) => {
            eprintln!("{pa} vs {pb}:");
            eprint!("{r}");
            std::process::exit(1);
        }
    }
}
