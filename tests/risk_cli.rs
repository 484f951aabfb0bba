//! `entitlectl check --risk`: the CLI's one way into the risk sweep
//! with a live `Obs`. Its stdout is pinned, and the trace and metrics
//! it writes are pinned by length and FNV-1a-64, so a change to how the
//! sweep is set up (the plan, the placed background) must leave every
//! byte where it was. The `--workers` flag claims to change wall-clock
//! time only, so the report it prints may not move with it.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_entitlectl"))
        .args(args)
        .output()
        .expect("spawn entitlectl")
}

fn tmp(name: &str) -> String {
    let dir: PathBuf = std::env::temp_dir().join(format!("risk_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name).display().to_string()
}

/// FNV-1a-64 of `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The stdout of a `check --risk` of 500 Gbps out of region 0 against
/// a default `plan` snapshot, with `extra` flags.
fn check_risk(db: &str, extra: &[&str]) -> String {
    let args = [
        &[
            "check", "--db", db, "--npg", "0", "--qos", "c1", "--region", "0", "--rate", "500",
        ][..],
        &["--risk"],
        extra,
    ]
    .concat();
    let out = ctl(&args);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

const REPORT: &str = "\
OK: 500.000Gbps fits within the 768.332Gbps entitlement (35% headroom)
risk: 500.000Gbps from r0 survives with availability 0.99983 \
(network could carry 500.000Gbps at the 0.99 SLO; routed 632 of 632 scenarios, dedup on)
";

#[test]
fn check_risk_output_is_pinned_and_independent_of_workers() {
    let db = tmp("contracts.json");
    let plan = ctl(&["plan", "--out", &db]);
    assert!(plan.status.success(), "{plan:?}");

    let (trace, metrics) = (tmp("risk.jsonl"), tmp("risk.prom"));
    let traced = check_risk(&db, &["--trace", &trace, "--metrics", &metrics]);
    assert_eq!(traced, REPORT);
    let pin = |path: &str| {
        let bytes = std::fs::read(path).expect("telemetry written");
        (bytes.len(), fnv(&bytes))
    };
    // One `risk`/`scenario` span per scenario, the sweep and the merge.
    let trace_bytes = std::fs::read_to_string(&trace).expect("trace written");
    assert_eq!(trace_bytes.lines().count(), 634);
    assert_eq!(pin(&trace), (80_390, 0x38bd_18c1_f0ce_9e36), "trace");
    // Re-pinned when the metrics file became the fold of the trace:
    // the `entitlement_risk_sweep_workers` gauge, in no trace, is gone
    // (158 bytes). It was (5_654, 0xeb5f_8d7a_8bdb_dc7c).
    assert_eq!(pin(&metrics), (5_496, 0x28f5_9811_1804_6df8), "metrics");

    let serial = check_risk(&db, &["--workers", "1"]);
    assert_eq!(serial, REPORT);
    assert_eq!(check_risk(&db, &["--workers", "0"]), serial, "--workers 0");
}
