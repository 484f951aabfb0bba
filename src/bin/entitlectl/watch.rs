//! `watch`: re-fold the runtime watchdog over a recorded trace, or
//! tail a growing trace file with `--follow`.

use crate::{fail, load_trace, only_with, reject_malformed};
use network_entitlement::cli::Matches;
use network_entitlement::obs::parse_trace;
use network_entitlement::watch::{WatchEvaluator, WatchReport};
use std::time::Duration;

pub fn watch(m: &Matches) {
    only_with(m, "--follow", m.on("--follow"), &["--idle-ms"]);
    let report = if m.on("--follow") {
        let report = follow(m);
        outln!();
        report
    } else {
        let mut evaluator = WatchEvaluator::default();
        let malformed = evaluator.fold_trace(&load_trace(m));
        reject_malformed(m.positional(0).unwrap_or_default(), &malformed);
        evaluator.report()
    };
    if m.on("--json") {
        outln!("{}", report.render_json());
    } else {
        out!("{}", report.render_text());
    }
    if !report.healthy() {
        std::process::exit(1);
    }
}

/// Print the report entries appended since the last poll (live tail
/// output); returns the updated (violations, transitions) watermarks.
fn print_new(report: &WatchReport, seen_v: usize, seen_t: usize) -> (usize, usize) {
    for v in &report.violations[seen_v..] {
        outln!("{v}");
    }
    for t in &report.transitions[seen_t..] {
        outln!("{t}");
    }
    (report.violations.len(), report.transitions.len())
}

/// `watch --follow`: tail a trace file, folding complete lines as they
/// are appended and printing violations/transitions live. Returns the
/// full report once the file stops growing for `--idle-ms`, counted in
/// the polls slept since it last grew.
fn follow(m: &Matches) -> WatchReport {
    const POLL_MS: u64 = 100;
    let path = m.positional(0).unwrap_or_default();
    let idle_ms: u64 = m.get("--idle-ms").unwrap_or(2000);
    let poll = Duration::from_millis(POLL_MS);
    let mut evaluator = WatchEvaluator::default();
    let mut consumed_lines = 0usize;
    let mut consumed_bytes = 0usize;
    let (mut seen_v, mut seen_t) = (0usize, 0usize);
    let mut seen_file = false;
    let mut idle = 0u64;
    loop {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => {
                seen_file = true;
                t
            }
            Err(e) => {
                // The producer may not have created the file yet; keep
                // waiting until the idle deadline.
                if idle >= idle_ms {
                    fail(if seen_file { 1 } else { 2 }, format_args!("cannot read {path}: {e}"));
                }
                std::thread::sleep(poll);
                idle += POLL_MS;
                continue;
            }
        };
        // Only complete (newline-terminated) lines are folded; a
        // partially written last line waits for the next poll. A file
        // that shrank was replaced: nothing new to fold from it.
        let complete = text.rfind('\n').map_or(0, |i| i + 1);
        if let Some(fresh) = text.get(consumed_bytes..complete).filter(|f| !f.is_empty()) {
            for line in fresh.lines() {
                consumed_lines += 1;
                if line.trim().is_empty() {
                    continue;
                }
                let events = parse_trace(line).unwrap_or_else(|e| {
                    fail(1, format_args!("{path} line {consumed_lines}: invalid trace: {e}"))
                });
                let malformed = evaluator.fold_trace(&events);
                reject_malformed(format_args!("{path} line {consumed_lines}"), &malformed);
            }
            consumed_bytes = complete;
            (seen_v, seen_t) = print_new(&evaluator.report(), seen_v, seen_t);
            idle = 0;
        } else if idle >= idle_ms {
            return evaluator.report();
        }
        std::thread::sleep(poll);
        idle += POLL_MS;
    }
}
