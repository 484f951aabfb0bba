//! Golden diagnostics tests over the fixture corpus.
//!
//! Every file under `fixtures/broken/` must fire its named error code
//! (the `eNNNN_` filename prefix) with error severity; every file under
//! `fixtures/warn/` must fire its named code at warning severity and
//! carry no errors; every file under `fixtures/clean/` must produce an
//! empty report.

use std::fs;
use std::path::{Path, PathBuf};

use entitlement_analyzer::{analyze, LintBundle, Report, Severity};

fn fixture_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(kind)
}

fn run_fixture(path: &Path) -> Report {
    let text = fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let bundle = LintBundle::from_json(&text)
        .unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
    analyze(&bundle)
}

/// The code a fixture is named for: `e0203_caps_dont_sum.json` → "E0203".
fn expected_code(path: &Path) -> String {
    let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8 stem");
    let prefix = stem.split('_').next().expect("code prefix");
    prefix.to_uppercase()
}

fn json_fixtures(kind: &str) -> Vec<PathBuf> {
    let dir = fixture_dir(kind);
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no fixtures under {}", dir.display());
    paths
}

#[test]
fn broken_fixtures_fire_their_named_error() {
    let mut distinct = std::collections::BTreeSet::new();
    for path in json_fixtures("broken") {
        let report = run_fixture(&path);
        let want = expected_code(&path);
        let fired: Vec<&str> = report.codes().iter().map(|c| c.as_str()).collect();
        assert!(
            fired.contains(&want.as_str()),
            "{}: expected {want} to fire, got {fired:?}\n{}",
            path.display(),
            report.render_text(),
        );
        assert!(
            report.has_errors(),
            "{}: expected at least one error-severity diagnostic\n{}",
            path.display(),
            report.render_text(),
        );
        for code in report.codes() {
            distinct.insert(code.as_str().to_string());
        }
    }
    // Acceptance floor: the corpus exercises at least ten distinct rules.
    assert!(
        distinct.len() >= 10,
        "broken corpus fires only {} distinct codes: {distinct:?}",
        distinct.len()
    );
}

#[test]
fn warn_fixtures_warn_without_errors() {
    for path in json_fixtures("warn") {
        let report = run_fixture(&path);
        let want = expected_code(&path);
        let fired: Vec<&str> = report.codes().iter().map(|c| c.as_str()).collect();
        assert!(
            fired.contains(&want.as_str()),
            "{}: expected {want} to fire, got {fired:?}\n{}",
            path.display(),
            report.render_text(),
        );
        assert!(
            !report.has_errors(),
            "{}: warning fixture must not produce errors\n{}",
            path.display(),
            report.render_text(),
        );
        assert!(report.count(Severity::Warning) > 0, "{}: no warnings", path.display());
    }
}

#[test]
fn clean_fixtures_produce_empty_reports() {
    for path in json_fixtures("clean") {
        let report = run_fixture(&path);
        assert!(
            report.diagnostics.is_empty(),
            "{}: expected a clean report, got\n{}",
            path.display(),
            report.render_text(),
        );
    }
}

/// Message-shape goldens: exact rendered first line for a few
/// representative fixtures, so codes, locations, and phrasing stay
/// stable across refactors.
#[test]
fn rendered_messages_are_stable() {
    let cases = [
        (
            "broken/e0203_caps_dont_sum.json",
            "error[E0203] hoses[0].segments: segment caps 900.000Gbps do not sum to hose total \
             800.000Gbps",
        ),
        (
            "broken/e0301_order_violation.json",
            "error[E0301] approval_order[2]: bucket c2_low is more premium than c2_high at \
             approval_order[1]; Algorithm 2 sweeps c1_low \u{2192} c4_high",
        ),
        (
            "warn/e0402_oversubscription.json",
            "warning[E0402] contracts: r0 egress entitlements total 50.000Gbps, exceeding the \
             10.000Gbps attached",
        ),
    ];
    for (rel, want_first_line) in cases {
        let path = fixture_dir("").join(rel);
        let report = run_fixture(&path);
        let rendered = report.render_text();
        let first = rendered.lines().next().unwrap_or("");
        assert_eq!(
            first,
            want_first_line,
            "{rel}: rendered first line drifted\nfull report:\n{rendered}"
        );
    }
}
