//! End-to-end contract of `entitlectl slo report|audit` and the
//! `obs summarize --by-label` breakdown: a healthy seeded drill audits
//! clean (exit 0) with byte-identical reports across same-seed runs,
//! a faulted drill audits dirty (exit 1) naming the violated
//! `(entity, QoS)` and burn window, nonsense SLO policy flags exit 2
//! with their E06xx code, and a trace whose observation events do not
//! decode exits 1 naming the event.

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
    // The untouched trace still folds through both (a 200-host drill
    // is too coarse for the watchdog to call healthy — DESIGN §15 — so
    // only its having reached a verdict is checked).
    let run = |args: &[&str]| ctl().args(args).arg(&healthy).output().expect("spawn");
    assert!(run(&["slo", "audit"]).status.success());
    let watch = run(&["watch"]);
    assert!(watch.stderr.is_empty() && String::from_utf8_lossy(&watch.stdout).contains("status:"));
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

/// A trace line whose id the JSON reader cannot hold exactly is
/// refused with its line and key: `obs summarize --tree` exits 1 and
/// prints no tree, where it used to round the id and hang the span
/// under whichever parent the rounded value named.
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
    let doctored = [
        ("parent_id", event("900001", "16131454690887550962")),
        ("span_id", event("1e300", "1")),
    ];
    for (key, line) in doctored {
        let bad = tmp(&format!("inexact_{key}.jsonl"));
        std::fs::write(&bad, format!("{text}{line}\n")).expect("write the doctored trace");
        let out = ctl()
            .args(["obs", "summarize", "--tree"])
            .arg(&bad)
            .output()
            .expect("summarize --tree");
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("line {}: `{key}` exceeds 2^53 and cannot be read exactly", lines + 1);
        assert!(stderr.contains(&want), "names the line and the key:\n{stderr}");
        assert!(out.stdout.is_empty(), "no table, no tree: {out:?}");
    }
}
