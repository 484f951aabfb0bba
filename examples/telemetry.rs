//! Telemetry: spans, histograms, and trace export in one page.
//!
//! Runs a traced approval round plus a short enforcement drill
//! with a single [`Obs`] bundle, then prints a per-phase latency
//! summary, the Prometheus rendering, and the first few JSONL trace
//! lines. The clock is a counting clock, so a re-run with the same
//! seed produces byte-identical output.
//!
//! ```sh
//! cargo run --example telemetry
//! ```

use network_entitlement::obs::{parse_trace, summarize_trace, validate_prometheus};
use network_entitlement::prelude::*;
use network_entitlement::telemetry::traced_approval_preamble;

fn main() {
    let seed = 0xE17;
    let obs = Obs::new(Clock::counting(1));

    // 1. One hose through the full approval pipeline: emits
    //    approval/{preflight,gen_demand,hose_approval,pipe_approval,
    //    aggregate} and risk/{sweep,merge} spans.
    traced_approval_preamble(seed, &obs);

    // 2. A short drill: emits agent/cycle spans and KV op latencies
    //    through the same bundle.
    let _ = run_drill_with(
        &DrillConfig {
            hosts: 200,
            duration_min: 20.0,
            seed,
            ..Default::default()
        },
        &obs,
        &mut SloEvaluator::default(),
        &mut WatchEvaluator::default(),
    );

    // 3. The trace is JSONL with a fixed key order; every line parses.
    let jsonl = obs.trace.to_jsonl();
    let events = parse_trace(&jsonl).expect("own trace parses");
    println!("trace: {} events; first three lines:", events.len());
    for line in jsonl.lines().take(3) {
        println!("  {line}");
    }

    // 4. Per-(span, phase) latency summary — the same table
    //    `entitlectl obs summarize` prints.
    println!("\n{}", summarize_trace(&events));

    // 5. The metrics registry renders Prometheus text.
    let text = obs.registry.render();
    let samples = validate_prometheus(&text).expect("valid Prometheus text");
    println!("metrics: {samples} samples; approval/KV excerpts:");
    for line in text
        .lines()
        .filter(|l| l.contains("hoses_total") || l.contains("kv_ops_total"))
    {
        println!("  {line}");
    }
}
