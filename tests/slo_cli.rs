//! End-to-end contract of `entitlectl slo report|audit` and the
//! `obs summarize --by-label` breakdown: a healthy seeded drill audits
//! clean (exit 0) with byte-identical reports across same-seed runs,
//! a faulted drill audits dirty (exit 1) naming the violated
//! `(entity, QoS)` and burn window, nonsense SLO policy flags exit 2
//! with their E06xx code, and a trace whose observation events do not
//! decode exits 1 naming the event. Every CLI run that writes a trace
//! and a metrics file writes the trace's fold as the metrics file, and
//! `obs summarize --metrics` holds a pair to that.

use std::path::{Path, PathBuf};
use std::process::Command;

fn ctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_entitlectl"))
}

fn fault_plan() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/faults/kv_outage.json")
        .display()
        .to_string()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slo_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Run a seeded drill writing its trace to `out`; panics on failure.
fn drill_trace(out: &Path, seed: &str, faults: Option<&str>) {
    let mut cmd = ctl();
    cmd.args(["drill", "--hosts", "200", "--seed", seed, "--trace"])
        .arg(out);
    if let Some(plan) = faults {
        cmd.args(["--faults", plan]);
    }
    let st = cmd.output().expect("spawn entitlectl drill");
    assert!(st.status.success(), "drill failed: {st:?}");
}

/// A healthy seeded drill audits clean, and two same-seed runs produce
/// byte-identical JSON reports — the determinism contract CI leans on.
#[test]
fn healthy_audit_is_clean_and_deterministic() {
    let (a, b) = (tmp("healthy_a.jsonl"), tmp("healthy_b.jsonl"));
    drill_trace(&a, "3607", None);
    drill_trace(&b, "3607", None);

    let audit = ctl().args(["slo", "audit"]).arg(&a).output().expect("audit");
    let stdout = String::from_utf8_lossy(&audit.stdout);
    assert_eq!(audit.status.code(), Some(0), "healthy audit exits 0:\n{stdout}");
    assert!(stdout.contains("violations: none"), "clean verdict:\n{stdout}");

    let json = |p: &Path| {
        let out = ctl().args(["slo", "report", "--json"]).arg(p).output().expect("report");
        assert!(out.status.success());
        out.stdout
    };
    assert_eq!(json(&a), json(&b), "same seed, same bytes");
}

/// A corrupted trace is not re-judged under defaults. Garbling one
/// label of every observation event of a healthy drill used to print
/// `0/499 ... VIOLATED` with a burn alert and exit 0 (`slo report`) or
/// `healthy` (`watch`); now each fold refuses on one line naming the
/// first such event's `span_id` and the label, exit 1 — `slo report`,
/// `slo audit`, `watch` and `watch --follow` alike, for a value that
/// is not a number, one that is not a boolean, and a missing label.
#[test]
fn a_malformed_observation_event_exits_one_naming_it() {
    let healthy = tmp("malformed_src.jsonl");
    drill_trace(&healthy, "3607", None);
    let text = std::fs::read_to_string(&healthy).expect("trace written");
    let cases = [
        ("\"delivered_bps\":\"", "\"delivered_bps\":\"oops", "label `delivered_bps` has unusable value `oops"),
        ("\"measurable\":\"true\"", "\"measurable\":\"maybe\"", "label `measurable` has unusable value `maybe`"),
        ("\"entity\":\"npg:2\",", "", "label `entity` is missing"),
    ];
    for (i, (from, to, complaint)) in cases.into_iter().enumerate() {
        let bad = tmp(&format!("malformed_{i}.jsonl"));
        std::fs::write(&bad, text.replace(from, to)).expect("write corrupted trace");
        let invocations: [&[&str]; 4] = [
            &["slo", "report"],
            &["slo", "audit"],
            &["watch"],
            &["watch", "--follow", "--idle-ms", "200"],
        ];
        for args in invocations {
            let out = ctl().args(args).arg(&bad).output().expect("spawn entitlectl");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?} case {i}: {out:?}");
            assert_eq!(stderr.lines().count(), 1, "{args:?} case {i}: one line:\n{stderr}");
            assert!(stderr.contains(complaint), "{args:?} case {i}:\n{stderr}");
            assert!(stderr.contains("event span_id "), "{args:?} case {i}:\n{stderr}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(!stdout.contains("VIOLATED") && !stdout.contains("status:"), "{stdout}");
        }
    }
    // The untouched trace still folds through both (only the watchdog's
    // having reached a verdict is checked).
    let run = |args: &[&str]| ctl().args(args).arg(&healthy).output().expect("spawn");
    assert!(run(&["slo", "audit"]).status.success());
    let watch = run(&["watch"]);
    assert!(watch.stderr.is_empty() && String::from_utf8_lossy(&watch.stdout).contains("status:"));
}

/// A trace-schema v3 tick (`watch/cycle`, from before a tick was one
/// `slo/cycle` event) is refused by the watchdog, live or tailed: exit
/// 1 and one stderr line naming the event, never a `healthy` report
/// over zero cycles.
#[test]
fn a_v3_tick_is_refused_by_the_watchdog() {
    let v3 = tmp("v3_tick.jsonl");
    let line = r#"{"ts_ms":99,"trace_id":50,"span_id":50,"parent_id":0,"span":"watch","phase":"cycle","labels":{"approved_bps":"3000000000000","conform_fraction":"1","delivered_bps":"901662852005.8058","demand_bps":"901662852005.8058","entity":"npg:2","marked_fraction":"0","measurable":"true","qos":"c3","staleness_ms":"0"},"dur_ms":0}"#;
    std::fs::write(&v3, format!("{line}\n")).expect("write v3 trace");
    for args in [&["watch"][..], &["watch", "--follow", "--idle-ms", "200"]] {
        let out = ctl().args(args).arg(&v3).output().expect("spawn entitlectl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: one line:\n{stderr}");
        assert!(stderr.contains("watch/cycle event span_id 50"), "{args:?}:\n{stderr}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("status:"), "{out:?}");
    }
}

/// A trace-schema v4 market trace (rates in Gbps on `market/admit`, a
/// `watch/admit` copy in bps) is refused by the watchdog and by
/// `explain`: exit 1 and one stderr line naming the `market/admit`
/// event and the `ask_bps` it lacks.
#[test]
fn a_v4_market_trace_is_refused_by_watch_and_explain() {
    let v4 = tmp("v4_admit.jsonl");
    let admit = r#"{"ts_ms":724,"trace_id":362,"span_id":362,"parent_id":0,"span":"market","phase":"admit","labels":{"ask_gbps":"0.11777390238570917","bucket":"c4_low","dst":"r2","epoch":"1","granted_gbps":"0.11777390238570917","npg":"npg:17","outcome":"granted","path":"index","request":"0","residual_after_gbps":"790.1614641798707","residual_before_gbps":"790.2792380822565","slice":"s4","src":"r0","state":"fresh"},"dur_ms":1}"#;
    let copy = r#"{"ts_ms":728,"trace_id":363,"span_id":363,"parent_id":0,"span":"watch","phase":"admit","labels":{"admit_ms":"5","ask_bps":"117773902.38570917","granted_bps":"117773902.38570917","path":"index","request":"0","residual_after_bps":"790161464179.8707","residual_before_bps":"790279238082.2565"},"dur_ms":0}"#;
    std::fs::write(&v4, format!("{admit}\n{copy}\n")).expect("write v4 trace");
    for args in [&["watch"][..], &["explain", "--all-denied"], &["explain", "--request", "0"]] {
        let out = ctl().args(args).arg(&v4).output().expect("spawn entitlectl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: one line:\n{stderr}");
        assert!(
            stderr.contains("market/admit event span_id 362: label `ask_bps` is missing"),
            "{args:?}:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }
}

/// A drill through the example KV outage audits dirty: exit 1, the
/// violated (entity, QoS) named with its burn window, and the
/// fire/clear alert pair visible in the report.
#[test]
fn faulted_audit_names_the_violation() {
    let trace = tmp("faulted.jsonl");
    drill_trace(&trace, "3607", Some(&fault_plan()));

    let out = ctl().args(["slo", "audit"]).arg(&trace).output().expect("audit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "faulted audit exits 1:\n{stdout}");
    for needle in ["npg:2", "c3", "fast5/slow60", "VIOLATED", "fire", "clear"] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    assert!(
        stdout.contains("< target 0.99"),
        "violation line names the target:\n{stdout}"
    );
}

/// Nonsense SLO policy flags are rejected up front with their
/// analyzer-numbered code and exit 2, before any trace is read.
#[test]
fn bad_policy_flags_exit_two_with_code() {
    let trace = tmp("unused.jsonl");
    std::fs::write(&trace, "").expect("stub trace");
    let out = ctl()
        .args(["slo", "report", "--fast", "60", "--slow", "5"])
        .arg(&trace)
        .output()
        .expect("report with bad policy");
    assert_eq!(out.status.code(), Some(2), "bad policy exits 2: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("E0602"), "names the code:\n{stderr}");
}

/// Every `E06xx` code in `text`, as a set.
fn e06_codes(text: &str) -> std::collections::BTreeSet<String> {
    let bytes = text.as_bytes();
    (0..bytes.len().saturating_sub(4))
        .filter(|&i| bytes[i..i + 3] == *b"E06" && bytes[i + 3..i + 5].iter().all(u8::is_ascii_digit))
        .map(|i| text[i..i + 5].to_string())
        .collect()
}

/// `entitlectl lint` on a bundle's `slo_policies` entry and
/// `entitlectl slo` on the same knobs as flags report the same set of
/// `E06xx` codes — none for a usable policy — for every policy in the
/// table, including the three knobs the bundle once left out
/// (`clear_fraction`, `under_utilization`, `over_utilization`).
#[test]
fn lint_and_slo_flags_report_the_same_codes_for_a_policy() {
    use network_entitlement::slo::SloPolicy;
    let d = SloPolicy::default();
    let table = [
        d.clone(),
        SloPolicy { clear_fraction: 5.0, ..d.clone() },
        SloPolicy { clear_fraction: 0.0, slow_burn: 1.0, ..d.clone() },
        SloPolicy { under_utilization: 2.0, over_utilization: 1.0, ..d.clone() },
        SloPolicy { over_utilization: -1.0, ..d.clone() },
        SloPolicy { fast_window: 0, ..d.clone() },
        SloPolicy { fast_window: 60, slow_window: 60, ..d.clone() },
        SloPolicy { fast_burn: 0.5, ..d.clone() },
        SloPolicy { delivery_tolerance: 1.0, ..d.clone() },
        SloPolicy { hysteresis: 0, ..d.clone() },
        SloPolicy { fast_window: 70, clear_fraction: 1.0, delivery_tolerance: -0.1, ..d.clone() },
    ];
    let bundle = tmp("policy_bundle.json");
    for p in table {
        std::fs::write(
            &bundle,
            format!(
                r#"{{"slo_policies": [{{"name": "svc", "fast_window": {}, "slow_window": {}, "fast_burn": {}, "slow_burn": {}, "hysteresis": {}, "delivery_tolerance": {}, "clear_fraction": {}, "under_utilization": {}, "over_utilization": {}}}]}}"#,
                p.fast_window, p.slow_window, p.fast_burn, p.slow_burn, p.hysteresis,
                p.delivery_tolerance, p.clear_fraction, p.under_utilization, p.over_utilization,
            ),
        )
        .expect("write bundle");
        let lint = ctl().arg("lint").arg(&bundle).output().expect("spawn lint");
        let linted = e06_codes(&String::from_utf8_lossy(&lint.stdout));
        let flags = [
            ("--fast", p.fast_window.to_string()),
            ("--slow", p.slow_window.to_string()),
            ("--hysteresis", p.hysteresis.to_string()),
            ("--fast-burn", p.fast_burn.to_string()),
            ("--slow-burn", p.slow_burn.to_string()),
            ("--clear-fraction", p.clear_fraction.to_string()),
            ("--tolerance", p.delivery_tolerance.to_string()),
            ("--under-util", p.under_utilization.to_string()),
            ("--over-util", p.over_utilization.to_string()),
        ];
        let mut slo = ctl();
        slo.args(["slo", "report", "/dev/null"]);
        for (flag, value) in &flags {
            slo.args([flag, value.as_str()]);
        }
        let slo = slo.output().expect("spawn slo report");
        let flagged = e06_codes(&String::from_utf8_lossy(&slo.stderr));
        assert_eq!(linted, flagged, "{p:?}\nlint: {lint:?}\nslo: {slo:?}");
        assert_eq!(lint.status.code(), Some(if linted.is_empty() { 0 } else { 1 }), "{p:?}");
        // A usable policy gets past validation to the empty trace.
        assert_eq!(slo.status.code(), Some(2), "{p:?}");
        assert_eq!(p.validate().is_empty(), linted.is_empty(), "{p:?}");
    }
}

/// `obs summarize --by-label` groups span durations by a label key —
/// the per-outcome breakdown of the drill's agent cycles.
#[test]
fn summarize_by_label_groups_outcomes() {
    let trace = tmp("by_label.jsonl");
    drill_trace(&trace, "3607", None);
    let out = ctl()
        .args(["obs", "summarize", "--by-label", "outcome"])
        .arg(&trace)
        .output()
        .expect("summarize --by-label");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("outcome="), "label groups present:\n{stdout}");
    assert!(stdout.contains("p95_ms"), "histogram columns present:\n{stdout}");
}

/// Trace ids are read from their digits, exact for every `u64`: an id
/// of twenty digits comes back as written (the f64 reader before it
/// read `…962` as `…976`, then refused it), and what is not a `u64` —
/// an exponent, one past `u64::MAX` — is refused with its line and
/// key: `obs summarize --tree` exits 1 and prints no table.
#[test]
fn summarize_refuses_an_id_it_cannot_read_exactly() {
    let good = tmp("exact_ids.jsonl");
    drill_trace(&good, "3607", None);
    let text = std::fs::read_to_string(&good).expect("the drill's trace");
    let lines = text.lines().count();
    let event = |span_id: &str, parent_id: &str| {
        format!(
            "{{\"ts_ms\":1,\"trace_id\":1,\"span_id\":{span_id},\"parent_id\":{parent_id},\
             \"span\":\"x\",\"phase\":\"y\",\"labels\":{{}},\"dur_ms\":0}}"
        )
    };
    let summarize = |name: &str, line: &str| {
        let doctored = tmp(name);
        std::fs::write(&doctored, format!("{text}{line}\n")).expect("write the doctored trace");
        ctl()
            .args(["obs", "summarize", "--tree"])
            .arg(&doctored)
            .output()
            .expect("summarize --tree")
    };
    // Read exactly: the tree names the parent no event has, digit for digit.
    let out = summarize("exact_parent.jsonl", &event("900001", "16131454690887550962"));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unresolved parent_id 16131454690887550962"), "{stderr}");
    for (name, value) in [("exponent", "1e300"), ("past_max", "18446744073709551616")] {
        let out = summarize(&format!("inexact_{name}.jsonl"), &event(value, "1"));
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("line {}: cannot read `span_id`", lines + 1);
        assert!(stderr.contains(&want), "names the line and the key:\n{stderr}");
        assert!(out.stdout.is_empty(), "no table, no tree: {out:?}");
    }
}

/// Run `entitlectl` with `args`; panics unless it exits 0.
fn run_ok(args: &[&str]) {
    let out = ctl().args(args).output().expect("spawn entitlectl");
    assert!(out.status.success(), "{args:?}: {out:?}");
}

/// Every command shape CI runs with both `--trace` and `--metrics` —
/// the seeded drill, the sharded drill (under a fault plan, so held
/// and missing shards and fail-static cycles are in it), an admission
/// storm with sweeps and denials, and `check --risk` — writes as its
/// metrics file the fold of its trace file, read back from disk, byte
/// for byte.
#[test]
fn every_metrics_file_is_the_fold_of_its_trace() {
    use network_entitlement::obs::{fold_metrics, parse_trace};
    let plan = |name: &str, faults: &str| {
        let path = tmp(name);
        std::fs::write(&path, format!(r#"{{"seed": 1, "faults": [{faults}]}}"#)).expect("write the plan");
        path.display().to_string()
    };
    let stale = plan(
        "fold_stale.json",
        r#"{"window": {"from_ms": 2000, "to_ms": 3600000}, "kind": "StaleReads"}"#,
    );
    let outage = plan(
        "fold_outage.json",
        r#"{"window": {"from_ms": 4000, "to_ms": 9001}, "kind": {"ShardOutage": {"shards": [2]}}}"#,
    );
    let db = tmp("fold_contracts.json").display().to_string();
    run_ok(&["plan", "--out", &db]);
    let fleet = ["drill", "--shards", "8", "--hosts", "2000", "--cycles", "16"];
    let shapes: [(&str, Vec<&str>); 5] = [
        ("drill", vec!["drill", "--hosts", "200", "--seed", "3607"]),
        ("stale", [&fleet[..], &["--strategy", "par", "--faults", stale.as_str()]].concat()),
        ("outage", [&fleet[..], &["--faults", outage.as_str()]].concat()),
        ("storm", vec!["market", "--requests", "2000", "--max-ask", "2000"]),
        (
            "risk",
            vec!["check", "--db", db.as_str(), "--npg", "0", "--qos", "c1", "--region", "0", "--rate", "500", "--risk"],
        ),
    ];
    for (name, args) in shapes {
        let trace = tmp(&format!("fold_{name}.jsonl")).display().to_string();
        let metrics = tmp(&format!("fold_{name}.prom")).display().to_string();
        run_ok(&[&args[..], &["--trace", trace.as_str(), "--metrics", metrics.as_str()]].concat());
        let read = |p: &str| std::fs::read_to_string(p).expect("telemetry written");
        let events = parse_trace(&read(&trace)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let folded = fold_metrics(&events).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!folded.is_empty(), "{name}: no family");
        assert!(folded == read(&metrics), "{name}: the metrics file is not the fold of the trace");
    }
}

/// `obs summarize --metrics` re-folds the trace: a seeded drill's own
/// pair agrees (exit 0), and the same pair with one counter sample
/// edited exits 1 naming the family and both samples.
#[test]
fn summarize_checks_the_metrics_file_against_the_trace() {
    let (trace, metrics) = (tmp("agree.jsonl"), tmp("agree.prom"));
    let st = ctl()
        .args(["drill", "--hosts", "200", "--seed", "3607", "--trace"])
        .arg(&trace)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("spawn entitlectl drill");
    assert!(st.status.success(), "drill failed: {st:?}");
    let summarize = |prom: &Path| {
        ctl()
            .args(["obs", "summarize"])
            .arg(&trace)
            .arg("--metrics")
            .arg(prom)
            .output()
            .expect("summarize --metrics")
    };
    let out = summarize(&metrics);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("the fold of the trace"), "{out:?}");

    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let sample = "entitlement_kv_ops_total{op=\"put\",outcome=\"ok\"} 998\n";
    assert!(text.contains(sample), "the drill's puts:\n{text}");
    let edited = tmp("disagree.prom");
    std::fs::write(&edited, text.replace(sample, "entitlement_kv_ops_total{op=\"put\",outcome=\"ok\"} 999\n"))
        .expect("write the edited metrics");
    let out = summarize(&edited);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for part in [
        "family `entitlement_kv_ops_total`",
        "the trace folds to `entitlement_kv_ops_total{op=\"put\",outcome=\"ok\"} 998`",
        "the file has `entitlement_kv_ops_total{op=\"put\",outcome=\"ok\"} 999`",
    ] {
        assert!(stderr.contains(part), "names {part}:\n{stderr}");
    }
}
