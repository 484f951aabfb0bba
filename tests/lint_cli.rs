//! End-to-end exit-code contract of `entitlectl lint`: every broken
//! fixture exits non-zero with its named error code on stdout, every
//! clean fixture exits zero, warnings never gate, and `--list-rules`
//! prints the code catalog.

use network_entitlement::analyzer::Code;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures(kind: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/analyzer/fixtures")
        .join(kind);
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no fixtures under {}", dir.display());
    paths
}

fn run_lint(path: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_entitlectl"))
        .arg("lint")
        .arg(path)
        .args(extra)
        .output()
        .expect("spawn entitlectl")
}

#[test]
fn broken_fixtures_exit_nonzero_with_their_code() {
    for path in fixtures("broken") {
        let out = run_lint(&path, &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{}: expected exit 1, stdout:\n{stdout}",
            path.display()
        );
        let code = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| s.split('_').next())
            .expect("code prefix")
            .to_uppercase();
        assert!(
            stdout.contains(&format!("[{code}]")),
            "{}: stdout does not mention {code}:\n{stdout}",
            path.display()
        );
    }
}

#[test]
fn clean_fixtures_exit_zero() {
    for path in fixtures("clean") {
        let out = run_lint(&path, &[]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}: expected exit 0, stdout:\n{}\nstderr:\n{}",
            path.display(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn warnings_do_not_gate() {
    for path in fixtures("warn") {
        let out = run_lint(&path, &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}: warnings must not fail the lint:\n{stdout}",
            path.display()
        );
        assert!(
            stdout.contains("warning["),
            "{}: expected a rendered warning:\n{stdout}",
            path.display()
        );
    }
}

#[test]
fn json_output_is_parseable() {
    let path = fixtures("broken").remove(0);
    let out = run_lint(&path, &["--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trimmed = stdout.trim();
    // The vendored serde_json has no generic Value, so check shape:
    // a JSON array of diagnostic objects carrying code and location.
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "not a JSON array:\n{stdout}"
    );
    assert!(trimmed.contains("\"code\""), "missing code field:\n{stdout}");
    assert!(trimmed.contains("\"location\""), "missing location field:\n{stdout}");
}

#[test]
fn usage_errors_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_entitlectl"))
        .arg("lint")
        .output()
        .expect("spawn entitlectl");
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(env!("CARGO_BIN_EXE_entitlectl"))
        .args(["lint", "/nonexistent/bundle.json"])
        .output()
        .expect("spawn entitlectl");
    assert_eq!(out.status.code(), Some(2));
}

/// `--list-rules` needs no bundle and prints the one code catalog, a
/// line per `Code::CATALOG` entry in catalog order: code, severity,
/// invariant and paper anchor, the E07xx approval-config and W01xx
/// watchdog codes included.
#[test]
fn list_rules_prints_the_code_catalog() {
    let out = Command::new(env!("CARGO_BIN_EXE_entitlectl"))
        .args(["lint", "--list-rules"])
        .output()
        .expect("spawn entitlectl");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), Code::CATALOG.len(), "{stdout}");
    for (line, e) in lines.iter().zip(Code::CATALOG) {
        let severity = e.severity.to_string();
        assert!(line.starts_with(&format!("{} {severity}", e.code)), "{line}");
        assert!(line.contains(e.invariant) && line.contains(e.paper), "{line}");
    }
    for code in ["E0701", "W0107"] {
        assert!(lines.iter().any(|l| l.starts_with(code)), "{code} missing:\n{stdout}");
    }
}
